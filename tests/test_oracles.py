"""The oracles stay independent of the package they check."""

import ast
from pathlib import Path

import oracles


def test_oracles_import_nothing_from_hoffman():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "the walk found no imports at all"
    offending = [m for m in imported if m == "hoffman" or m.startswith(("hoffman.", "."))]
    assert not offending, f"tests/oracles.py imports {offending}"
