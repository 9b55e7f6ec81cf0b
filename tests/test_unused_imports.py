"""No module of the package imports a name it never uses.

``__init__`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "limsketch"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads as a name."""
    tree = ast.parse(source)
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names
                         if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\nimport sys\n"
              "from typing import Callable, Iterable as It\n"
              "def f(x: Callable) -> None:\n    sys.exit(os.path.sep)\n")
    assert unused_imports(source) == ["It", "regex"]


def test_modules_found():
    assert "engine.py" in MODULES and "finset.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []
