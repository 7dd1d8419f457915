"""The package's surface: every name and every CLI option has a caller.

A name that only the tests read belongs in the tests, and an option with one
choice chooses nothing.  The callers outside the tests are the package
itself, the benchmark (perfbench/*.py), the acceptance criteria
(tests/test_acceptance.py) and the console-script entry point in
pyproject.toml.  Both checks read the source with the standard library's ast
and re, and walk the parser that main uses.
"""

import argparse
import ast
import re
from pathlib import Path

from sievedops.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sievedops"
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module) -> list:
    """The module's top-level functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for name in names if not _is_dunder(name)]


def read_names(tree: ast.Module) -> set:
    """Every name the module loads or reads as an attribute, and the parts of
    every dotted-identifier string (perfbench/tracing.py names its targets
    so)."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            reads.update(node.value.split("."))
    return reads


def package_reads(tree: ast.Module) -> set:
    """The names the module reads off the package: sievedops.X, or X in
    `from sievedops import X`."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sievedops":
            reads.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "sievedops"):
            reads.add(node.attr)
    return reads


def reexports(tree: ast.Module) -> list:
    """The names __init__.py binds by importing them from its modules."""
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def test_every_package_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    reads, off_package = set(), set()
    for tree in trees.values():
        reads |= read_names(tree)
        off_package |= package_reads(tree)
    pyproject = (ROOT / "pyproject.toml").read_text()
    reads.update(re.findall(r'"sievedops\.\w+:(\w+)"', pyproject))
    unread = [f"{path.name}:{name}" for path in MODULES
              for name in defined_names(trees[path]) if name not in reads]
    init = trees[PACKAGE / "__init__.py"]
    unread += [f"__init__.py:{name}" for name in reexports(init)
               if not _is_dunder(name) and name not in off_package]
    assert unread == []


def test_no_cli_option_has_a_single_choice():
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    single = [f"{name} {'/'.join(action.option_strings)}"
              for name, sub in commands.choices.items()
              for action in sub._actions
              if action.choices is not None and len(action.choices) == 1]
    assert single == []
