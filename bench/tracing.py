"""Spans around calls into limsketch, recorded from outside the package.

The tracer replaces public names with timing wrappers in every limsketch
module that holds them, so a call is caught under whichever alias its
caller uses (``limsketch.finset.FinFunction`` and
``limsketch.engine.FinFunction`` are one class seen from two modules).
Nothing inside ``src/`` changes; ``restore`` puts the original objects back.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, public name) -> span name. The two classes are timed as
# constructors: building one validates it, which is the layer's cost.
TARGETS = {
    ("limsketch.finset", "FinSet"): "finset.validate",
    ("limsketch.finset", "FinFunction"): "finset.validate",
    ("limsketch.finset", "pushout"): "finset.pushout",
    ("limsketch.finset", "limit"): "finset.limit",
    ("limsketch.engine", "saturate"): "engine.saturate",
    ("limsketch.engine", "rules_of"): "engine.rules_of",
    ("limsketch.engine", "match_rule"): "engine.match_rule",
    ("limsketch.engine", "apply_rule"): "engine.apply_rule",
    ("limsketch.engine", "compose_fractions"): "engine.compose_fractions",
    ("limsketch.engine", "check_fraction"): "engine.check_fraction",
    ("limsketch.realization", "extend_morphism"): "realization.extend_morphism",
    ("limsketch.realization", "check_realization"):
        "realization.check_realization",
    ("limsketch.dsl", "parse"): "dsl.parse",
    ("limsketch.dsl", "parse_json"): "dsl.parse_json",
    ("limsketch.dsl", "serialize"): "dsl.serialize",
    ("limsketch.dsl", "serialize_json"): "dsl.serialize_json",
    ("limsketch.localizer", "break_cycles"): "localizer.break_cycles",
    ("limsketch.yoneda", "representable"): "yoneda.representable",
}

# Spans whose call count is reported next to their time.
COUNTED = ("finset.validate", "realization.extend_morphism")

# Counters read off results, keyed by the span that returned them.
_BYTES = {"dsl.serialize": "dsl.text_bytes",
          "dsl.serialize_json": "dsl.json_bytes"}


def _chase_counts(res) -> dict[str, int]:
    """Work counts of one chase, from the trace it returns."""
    spec = res.embedding.src
    objects = spec.over.objects
    return {
        "engine.rounds": res.rounds,
        "engine.fired": sum(len(r.fired) for r in res.trace.rounds),
        "engine.added": sum(len(names) for r in res.trace.rounds
                            for names in r.added.values()),
        "engine.identified": sum(len(r.identified) for r in res.trace.rounds),
        "chase.input": sum(len(spec.carrier[ob].elements) for ob in objects),
        "chase.final": sum(len(res.result.carrier[ob].elements)
                           for ob in objects),
    }


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call.

    Times ``calls`` calls of a no-op through a span wrapper and without
    one, keeps the fastest of ``repeats`` tries of each, and divides the
    difference by ``calls``.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(best(wrapped) - best(noop), 0.0) / calls


class Tracer:
    """Keeps spans in memory; ``phase`` tags each span as set-up or pass."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id or -1, phase)
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id; filled in below
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.phase)
            if name == "engine.saturate":
                for key, value in _chase_counts(out).items():
                    counts[(key, self.phase)] += value
            elif name in _BYTES:
                counts[(_BYTES[name], self.phase)] += len(out.encode())
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target under every name a limsketch module binds it to."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "limsketch" or key.startswith("limsketch.")]
        for (home, attr), name in TARGETS.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Summed self time per (span name, phase): duration minus children."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sid, name, start, end, _, phase in self.spans:
            out[(name, phase)] += end - start - child[sid]
        return out

    def calls(self) -> dict[tuple[str, str], int]:
        out: dict[tuple[str, str], int] = defaultdict(int)
        for _, name, _, _, _, phase in self.spans:
            out[(name, phase)] += 1
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "phase": phase}) + "\n")
