"""No module of the package imports a name it never uses, and none
defines a module-level name that nothing reads.

``__init__`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest
from test_surface import traced_targets

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


def defined_names(source: str) -> list[str]:
    """The names ``source`` binds at module level by a ``def``, a ``class``
    or an assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def read_names(sources) -> set[str]:
    """The names ``sources`` read: loaded as a name, taken as an attribute,
    or imported from a module."""
    read: set[str] = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return read


def test_the_check_finds_unread_names():
    source = ("import re\n_A, _B = 1, 2\n_C: int = _A\n"
              "def f():\n    return _C\nclass K:\n    pass\n")
    assert defined_names(source) == ["_A", "_B", "_C", "f", "K"]
    read = read_names([source, "from .m import K\nx.f()\n"])
    assert set(defined_names(source)) - read == {"_B"}


def test_modules_found():
    assert "engine.py" in MODULES and "finset.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []


def test_every_module_level_name_is_read():
    """Each module-level name of each module is read somewhere in the
    package (``__init__``'s imports are its exports), or is a target the
    benchmark tracer wraps."""
    read = read_names(p.read_text(encoding="utf-8") for p in SRC.glob("*.py"))
    traced = {(module.rsplit(".", 1)[-1] + ".py", attr)
              for module, attr in traced_targets()}
    unread = [(name, n) for name in MODULES
              for n in defined_names((SRC / name).read_text(encoding="utf-8"))
              if n not in read and (name, n) not in traced]
    assert unread == []
