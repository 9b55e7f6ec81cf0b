"""The chase's pass guard, and repair units that read the same in every run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import limsketch
from limsketch.engine import ChaseDiverged
from limsketch.sketch import ArrowDecl, Sketch
from limsketch.yoneda import representable

READS = """
from limsketch.engine import _repair_units
from limsketch.localizer import break_cycles
from limsketch.sketch import builtin_sketches
sp, _ = break_cycles(builtin_sketches()["mp_theory"])
print([reads for units in _repair_units(sp).values() for _, reads in units])
"""


def test_repair_that_never_settles_stops_at_the_pass_guard():
    # s(g), s(s(g)), ...: each totality pass makes one new element, so the
    # pass guard stops the chase long before the element budget does
    loop = Sketch("loop", ("A",), {"s": ArrowDecl("s", "A", "A")})
    with pytest.raises(RuntimeError, match="not finitely closed") as info:
        representable(loop, "A")
    assert isinstance(info.value.__cause__, ChaseDiverged)
    assert "repair did not stabilise" in str(info.value.__cause__)


def test_repair_unit_reads_do_not_depend_on_the_hash_seed():
    src = str(Path(limsketch.__file__).resolve().parents[1])
    outs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.add(subprocess.run([sys.executable, "-c", READS], env=env,
                                capture_output=True, text=True,
                                check=True).stdout)
    assert len(outs) == 1
