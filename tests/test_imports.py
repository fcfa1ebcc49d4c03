"""Every import in the package's modules is used (standard library only)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mnarfuse"


def unused_imports(text: str) -> list[str]:
    """The names a module's source imports and never reads, as "line N:
    name".  An import on a line marked `# noqa: F401` is kept on purpose (a
    lookup site that bench/tracing.py patches) and is not reported."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []  # (line, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported += [(alias.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names
                         if "# noqa: F401" not in lines[alias.lineno - 1]]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found_and_a_marked_one_is_kept():
    text = ("import sys\nimport numpy as np\nfrom os import path  # noqa: F401\n"
            "from typing import Optional\n\n\ndef f(a: Optional[int]) -> int:\n"
            "    return np.sum(a)\n")
    assert unused_imports(text) == ["line 1: sys"]
