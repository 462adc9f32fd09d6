"""The oracles stay independent of the package they check, and the package
needs nothing at run time beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

import oracles


def _imports(path):
    """Every module path imports, relative ones with their leading dots."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, f"the walk found no imports at all in {path}"
    return imported


def test_oracles_import_nothing_from_hoffman():
    imported = _imports(oracles.__file__)
    offending = [m for m in imported if m == "hoffman" or m.startswith(("hoffman.", "."))]
    assert not offending, f"tests/oracles.py imports {offending}"


def test_package_imports_only_numpy_and_the_standard_library():
    # pyproject lists numpy as the only runtime dependency; scipy, jsonschema,
    # hypothesis and mpmath are installed for the tests alone
    allowed = {"numpy"} | set(sys.stdlib_module_names)
    modules = sorted((Path(__file__).resolve().parent.parent / "src" / "hoffman").glob("*.py"))
    assert modules
    offending = {}
    for path in modules:
        bad = [m for m in _imports(path) if not m.startswith(".") and m.split(".")[0] not in allowed]
        if bad:
            offending[path.name] = bad
    assert not offending, f"runtime imports outside numpy and the standard library: {offending}"
