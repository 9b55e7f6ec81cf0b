"""The public surface: what ``limsketch`` exports and what the benchmark wraps."""

import ast
import importlib
from pathlib import Path

import limsketch

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_targets() -> dict:
    """The benchmark tracer's ``TARGETS`` table, read from its source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


def test_every_export_resolves_once():
    names = limsketch.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(limsketch, n)] == []


def test_every_traced_target_resolves():
    """The tracer wraps each target by a plain ``getattr``, so a traced
    benchmark run fails once one of them is gone.  Nothing in the package
    calls ``finset.pushout`` or ``finset.limit``: they stay for this table,
    which times them as the ``finset.pushout`` and ``finset.limit`` layers."""
    missing = [(module, attr) for module, attr in traced_targets()
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
