"""Test-session settings shared by every test module."""

from hypothesis import settings

# The active profile (Hypothesis's "ci" profile where a CI environment
# variable is set, else "default"), with print_blob on: a property test that
# fails prints the @reproduce_failure line that replays its example, which
# is the only record of it where no example database is kept.
settings.register_profile("mnarfuse", settings(), print_blob=True)
settings.load_profile("mnarfuse")
