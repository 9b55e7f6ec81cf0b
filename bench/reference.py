"""A fixed unit of pure-Python work that times how fast the machine runs now.

The benchmark's end-to-end times are divided by the time of this unit,
measured in the same run next to the work it calibrates, and multiplied by
``REF_S``. On a shared host the speed of the same code moves by a quarter
and more, over spans from a fraction of a second to minutes; the reference
moves with it, so the quotient is steadier than either time. The unit uses only the standard library, so no change to
limsketch changes it. Its mix follows limsketch's hot paths: tuples of
short names as dict keys, frozensets, set membership, sorting with a key,
a linear scan of a tuple of strings and small function calls.
"""
from __future__ import annotations

import gc
import random
import time

# Nominal seconds of one unit: a calibrated time is the time the work would
# take on a machine that runs the unit in REF_S seconds.
REF_S = 0.020

_rng = random.Random(0)
_NAMES = [f"x{_rng.randrange(16 ** 6):06x}" for _ in range(2000)]
_TUPLE = tuple(_NAMES[:400])


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def unit() -> float:
    """Seconds one unit of reference work takes, with the collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            table = {}
            for i, a in enumerate(_NAMES):
                table[_pair(a, _NAMES[i - 1])] = frozenset((a, _NAMES[i - 7]))
            kept = set()
            for key, value in table.items():
                if key[0] in value:
                    kept.add(key)
            sorted(table, key=lambda k: k[1])
            sum(1 for a in _NAMES[::4] if a in _TUPLE)
        return time.perf_counter() - t0
    finally:
        gc.enable()
