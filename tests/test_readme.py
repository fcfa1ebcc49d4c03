"""The README's documented library calls run as written, and its command
synopses name the flags the parser accepts."""

import argparse
import os
import pathlib
import re
import subprocess
import sys

from mnarfuse import cli

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


def _synopsis_flags() -> dict:
    """subcommand -> the flags its synopsis block under "Command line"
    names.  A `...` after `--config schema.ini` stands for the other schema
    flags."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    schema_flags = _option_strings(_schema_flag_parser())
    synopses = {}
    for block in re.findall(r"```\n(mnarfuse .*?)```", section, re.S):
        flags = set(re.findall(r"--[a-z][a-z-]*", block))
        if "--config schema.ini ..." in block:
            flags |= schema_flags
        synopses[block.split()[1]] = flags
    return synopses


def _schema_flag_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    cli._add_schema_flags(parser)
    return parser


def _option_strings(parser: argparse.ArgumentParser) -> set:
    return {option for action in parser._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def test_each_synopsis_names_the_flags_its_subcommand_accepts():
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    accepted = {name: _option_strings(sub) for name, sub in subcommands.items()}
    assert _synopsis_flags() == accepted
