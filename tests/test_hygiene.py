"""Every module under src/retract/ and tests/ reads each name it imports,
and the oracle imports none of the solvers it arbitrates."""

import ast
from pathlib import Path

import pytest

import retract
from retract import bounds, oracle

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in (ROOT / "src" / "retract", ROOT / "tests")
                 for path in folder.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name that `source` imports and never reads.
    `from __future__` imports and lines marked `noqa: F401` are exempt."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).split(".")[0])
                     for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        imported += [(a.lineno, name) for a, name in names
                     if "noqa: F401" not in lines[a.lineno - 1]]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as js\n"
              "from math import ceil, floor\n"
              "from sys import argv  # noqa: F401\n"
              "print(os.sep, floor)\n")
    assert unused_imports(source) == [(3, "js"), (4, "ceil")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


SOLVERS = {"approx", "planar", "bounds", "treewidth", "euclid", "cli"}


def imported_modules(source):
    """Every dotted part of each module that `source` imports, with the
    names a `from . import` or `from retract import` brings in."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for a in node.names:
                found.update(a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            if node.module in (None, "retract"):
                found.update(a.name for a in node.names)
    return found - {""}


def test_imported_modules_are_found():
    source = ("import os.path\n"
              "from .core import Instance\n"
              "from . import planar as p\n"
              "from retract import bounds\n"
              "from retract.cli import main\n")
    assert imported_modules(source) == {"os", "path", "core", "planar",
                                        "retract", "bounds", "cli"}


def test_oracle_imports_no_solver():
    source = (ROOT / "src" / "retract" / "oracle.py").read_text()
    assert imported_modules(source) & SOLVERS == set()


def test_separation_oracle_is_one_object():
    assert (retract.separation_oracle is bounds.separation_oracle
            is oracle.separation_oracle)
