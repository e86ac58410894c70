"""Every module under src/retract/ and tests/ reads each name it imports."""

import ast
from pathlib import Path

import pytest

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
