"""The README's documented library calls run as written."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _library_surface_block() -> str:
    """The first ```python block under the README's "Library surface"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_surface_block_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # warnings are errors, as in the suite
    done = subprocess.run([sys.executable, "-W", "error", "-c", _library_surface_block()],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
