"""Every import in the package's modules is used (standard library only)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mnarfuse"
TRACING = ROOT / "bench" / "tracing.py"


def patch_sites(text: str) -> set[tuple[str, str]]:
    """The (module, name) lookup sites that bench/tracing.py patches, read
    from its source: the pairs of its `_SITES` list, and each
    `modules[mod].name = ...` assignment in a loop over a literal tuple of
    module names."""
    sites = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_SITES" for t in node.targets):
            sites |= {(mod, name) for mod, name, _ in ast.literal_eval(node.value)}
        elif (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
              and isinstance(node.iter, ast.Tuple)):
            for stmt in node.body:
                for t in stmt.targets if isinstance(stmt, ast.Assign) else ():
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Subscript)
                            and isinstance(t.value.slice, ast.Name)
                            and t.value.slice.id == node.target.id):
                        sites |= {(mod, t.attr) for mod in ast.literal_eval(node.iter)}
    return sites


def unused_imports(text: str, module: str = "",
                   patched: frozenset[tuple[str, str]] = frozenset()) -> list[str]:
    """The names a module's source imports and never reads, as "line N:
    name".  An import on a line marked `# noqa: F401` is kept on purpose
    when (module, name) is in `patched`, a lookup site that bench/tracing.py
    patches, and is not reported; a marked import of any other name is."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []  # (line, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported += [(alias.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
    kept = {(line, name) for line, name in imported
            if "# noqa: F401" in lines[line - 1] and (module, name) in patched}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported)
            if name not in read and (line, name) not in kept]


def test_the_patch_sites_are_read_from_the_tracer():
    sites = patch_sites(TRACING.read_text(encoding="utf-8"))
    assert {("model1", "fit_logistic"), ("model1", "solve"), ("model2", "solve"),
            ("model2", "evaluate_basis_matrix")} <= sites
    assert ("model1", "main") not in sites


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    patched = frozenset(patch_sites(TRACING.read_text(encoding="utf-8")))
    assert unused_imports(path.read_text(encoding="utf-8"), path.stem, patched) == []


def test_an_unused_import_is_found_and_a_marked_one_is_kept():
    text = ("import sys\nimport numpy as np\nfrom os import path  # noqa: F401\n"
            "from typing import Optional\n\n\ndef f(a: Optional[int]) -> int:\n"
            "    return np.sum(a)\n")
    assert unused_imports(text, "m", frozenset({("m", "path")})) == ["line 1: sys"]


def test_a_marked_import_of_no_patch_site_is_found():
    text = "from os import path  # noqa: F401\nfrom os import sep  # noqa: F401\n"
    assert unused_imports(text, "m", frozenset({("m", "path")})) == ["line 2: sep"]
    assert unused_imports(text, "other", frozenset({("m", "path")})) == [
        "line 1: path", "line 2: sep"]
