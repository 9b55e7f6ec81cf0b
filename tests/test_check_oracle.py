"""The cone check against its frozen copy in ``oracle_check``.

Seeded corruptions of implication chains (n = 1..6), of chain(4) saturated
under modus ponens, and of the corpus ``mp_basic``: an apex
element dropped, an apex tuple duplicated, a leg re-pointed, a second
``H_IM_part_c_IM`` element under a ``lim_H_MP`` family (an ambiguous
extension), and an apex emptied.  ``check_realization`` must report the
oracle's violations, code, place, message and order alike.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import limsketch
from limsketch.engine import saturate
from limsketch.finset import FinFunction, FinSet
from limsketch.realization import Realization, check_realization

import oracle_check
from test_engine import MP_RULE, RULES, SP, mp_basic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

ENV = workloads.Env(limsketch, {}, SP, RULES, MP_RULE, Path("."))
BASES = [workloads.chain(ENV, n, 5 + n) for n in range(1, 7)] + [
    saturate(workloads.chain(ENV, 4, 9), [MP_RULE]).result, mp_basic()]


def parts(R: Realization) -> tuple[dict, dict]:
    return ({ob: list(s.elements) for ob, s in R.carrier.items()},
            {aid: dict(f.mapping) for aid, f in R.action.items()})


def build(over, carriers: dict, actions: dict) -> Realization:
    carrier = {ob: FinSet(tuple(xs)) for ob, xs in carriers.items()}
    return Realization(over, carrier, {
        aid: FinFunction(carrier[over.arrows[aid].src],
                         carrier[over.arrows[aid].tgt], table)
        for aid, table in actions.items()})


def drop(over, carriers, actions, ob: str, x: str, rng) -> bool:
    """Drop ``x`` from ``ob``, re-pointing what maps to it; False when
    nothing is left to re-point to."""
    rest = [y for y in carriers[ob] if y != x]
    for aid, decl in over.arrows.items():
        if decl.src == ob:
            del actions[aid][x]
        if decl.tgt == ob:
            for y, z in actions[aid].items():
                if z == x:
                    if not rest:
                        return False
                    actions[aid][y] = rng.choice(rest)
    carriers[ob] = rest
    return True


def duplicate(over, carriers, actions, ob: str, x: str) -> None:
    """A second element of ``ob`` with ``x``'s images along every arrow."""
    twin = f"{x}_twin"
    while twin in carriers[ob]:
        twin += "_"
    carriers[ob].append(twin)
    for aid, decl in over.arrows.items():
        if decl.src == ob:
            actions[aid][twin] = actions[aid][x]


def empty(over, carriers, actions, ob: str) -> None:
    """Empty ``ob`` and every object with an arrow into an emptied one."""
    gone, grew = {ob}, True
    while grew:
        grew = False
        for decl in over.arrows.values():
            if decl.tgt in gone and decl.src not in gone:
                gone.add(decl.src)
                grew = True
    for o in gone:
        carriers[o] = []
    for aid, decl in over.arrows.items():
        if decl.src in gone:
            actions[aid] = {}


def lim_h_mp_witnesses(carriers, actions) -> list[str]:
    """The ``H_IM_part_c_IM`` elements of some ``lim_H_MP`` family over an
    apex element."""
    a = actions
    out = []
    for m in carriers["H_MP"]:
        f1, nq, f2 = a["inc"][a["t1"][m]], a["q"][m], a["inc"][a["t2"][m]]
        out += [x for x in carriers["H_IM_part_c_IM"]
                if a["p1"][a["h_c_IM"][x]] == f1 and a["p2"][a["h_c_IM"][x]] == nq
                and a["e_IM"][a["c_IM"][x]] == f2]
    return out


def corrupt(R: Realization, kind: str, rng: random.Random) -> Realization | None:
    over = R.over
    carriers, actions = parts(R)
    cone = over.cones[rng.choice(sorted(over.cones))]
    elements = carriers[cone.apex]
    if kind == "drop":
        if not elements or not drop(over, carriers, actions, cone.apex,
                                    rng.choice(elements), rng):
            return None
    elif kind == "duplicate":
        if not elements:
            return None
        duplicate(over, carriers, actions, cone.apex, rng.choice(elements))
    elif kind == "re-point":
        leg = over.arrows[rng.choice(sorted(cone.projections.values()))]
        if not elements or not carriers[leg.tgt]:
            return None
        actions[leg.id][rng.choice(elements)] = rng.choice(carriers[leg.tgt])
    elif kind == "ambiguous":
        witnesses = lim_h_mp_witnesses(carriers, actions)
        if not witnesses:
            return None
        duplicate(over, carriers, actions, "H_IM_part_c_IM", rng.choice(witnesses))
    else:
        empty(over, carriers, actions, cone.apex)
    return build(over, carriers, actions)


KINDS = ("drop", "duplicate", "re-point", "ambiguous", "empty")


def test_bases_are_models():
    for R in BASES:
        assert check_realization(R).ok


def test_cone_check_agrees_with_the_frozen_copy_on_corruptions():
    corrupted = {kind: 0 for kind in KINDS}
    messages = []
    for seed in range(400):
        rng = random.Random(seed)
        R = rng.choice(BASES)
        kinds = [KINDS[seed % len(KINDS)]] + rng.sample(KINDS, rng.randint(0, 1))
        for i, kind in enumerate(kinds):
            bad = corrupt(R, kind, rng)
            corrupted[kind] += i == 0 and bad is not None
            R = bad or R
        want = oracle_check.check_realization(R).violations
        got = check_realization(R).violations
        assert [(v.code, v.where, v.message) for v in got] \
            == [(v.code, v.where, v.message) for v in want], (seed, kinds)
        messages += [(v.code, v.message) for v in want]
    assert sum(corrupted.values()) >= 300 and min(corrupted.values()) >= 40
    assert {"cone-comparison-not-injective", "cone-comparison-unrealized",
            "cone-comparison-not-surjective",
            "cone-ambiguous-extension"} <= {code for code, _ in messages}
    assert any(m.endswith("the enumeration stopped there") for _, m in messages)
