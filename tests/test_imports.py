"""Import hygiene: every name a package or test module imports is used there.

A helper that moves out of a module can leave its import behind; this
catches it from the source alone, with the standard library's ast.  Names
that __init__.py re-exports through __all__ count as used.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sievedops"
# no test module shares a name with a package module, so the names are the ids
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by the module's imports that it never reads."""
    imported, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    assert unused_imports("from .polycore import Poly, poly_gcd\nPoly()\n") == [
        "poly_gcd"
    ]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []
