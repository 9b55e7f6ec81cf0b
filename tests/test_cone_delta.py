"""Semi-naive cone repair.

A cone that runs again in one chase state joins only the families with a
value its last run did not see, and reads only the new apex elements.  It
must stop at the family budget in the same run as a full join would, join
no family twice, and leave results as they were, also past the benchmark's
sizes.
"""

import sys
from pathlib import Path

import pytest

import limsketch
import oracle_chase
from limsketch import engine
from limsketch.engine import ChaseConfig, is_theory, saturate
from limsketch.realization import check_realization
from limsketch.sketch import ArrowDecl, Cone, ConeEdge, Sketch

from test_chase_oracle import assert_same_repair, repaired
from test_engine import MP_RULE, RULES, SP

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

BUDGET = "cone family enumeration exceeded the chase budget"
ENV = workloads.Env(limsketch, {}, SP, RULES, MP_RULE, Path("."))


def pairs(x: int, y: int):
    """The cone P of all pairs of X elements, with ``x`` X elements and
    ``y`` Y elements; f: Y -> X is undefined, so the first totality pass
    adds one X element per Y element after the cone's first run."""
    arrows = {"f": ArrowDecl("f", "Y", "X"), "pa": ArrowDecl("pa", "P", "X"),
              "pb": ArrowDecl("pb", "P", "X")}
    cone = Cone("pairs", "P", {"a": "X", "b": "X"}, (), {"a": "pa", "b": "pb"})
    sk = Sketch("pairs", ("X", "Y", "P"), arrows, (), {"pairs": cone})
    return sk, {"X": tuple(f"x{i}" for i in range(x)),
                "Y": tuple(f"y{i}" for i in range(y))}, {}


def spy_on(monkeypatch, name):
    """Count the families that the kernel ``engine.<name>`` yields."""
    kernel, count = getattr(engine, name), [0]

    def counted(*args, **kwargs):
        for fam in kernel(*args, **kwargs):
            count[0] += 1
            yield fam
    monkeypatch.setattr(engine, name, counted)
    return count


@pytest.fixture
def budget_300(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    monkeypatch.setattr(oracle_chase, "_MAX_ELEMENTS", 300)


def test_family_budget_stops_a_first_run(budget_300, monkeypatch):
    # 18 X elements make 324 families, past the budget of 300
    delta = spy_on(monkeypatch, "join_new")
    case = pairs(18, 0)
    got = repaired(engine._Chase, *case)
    assert got == (BUDGET, 18)
    assert got == repaired(oracle_chase._Chase, *case)
    assert delta == [0]


def test_family_budget_stops_a_delta_run(budget_300, monkeypatch):
    # The first run joins 10 × 10 families and adds their 100 apex
    # elements; totality then adds 8 X elements.  The second run joins
    # only the 224 families with a new value, but 100 + 224 is past 300.
    delta = spy_on(monkeypatch, "join_new")
    case = pairs(10, 8)
    got = repaired(engine._Chase, *case)
    assert got == (BUDGET, 126)
    assert got == repaired(oracle_chase._Chase, *case)
    assert delta[0] > 0
    # With one X element fewer, the 289 families pass the family budget,
    # and their apex elements then pass the element budget.
    delta[0] = 0
    case = pairs(10, 7)
    got = repaired(engine._Chase, *case)
    assert got == repaired(oracle_chase._Chase, *case)
    assert got[0].startswith("chase element budget exceeded")
    assert delta[0] == 17 ** 2 - 10 ** 2


def test_a_delta_run_that_finds_a_second_family_joins_in_full(monkeypatch):
    # Cone a's first run finds y1 over x0.  Cone b then builds the family
    # of q0's tuple (x0, w0) from scratch, with a new Y element over x0.
    # Cone a's next run joins that element into (x0, Y#0), a second family
    # for the restriction (x0,): it joins in full, and y1 and Y#0 merge in
    # the full join's order, as in the frozen chase.
    arrows = {f: ArrowDecl(f, s, t) for f, s, t in [
        ("g", "Y", "X"), ("k", "Y", "W"), ("pa", "P", "X"), ("qu", "Q", "X"),
        ("qw", "Q", "W")]}
    sk = Sketch("second", ("X", "Y", "W", "P", "Q"), arrows, (), {
        "a": Cone("a", "P", {"x": "X", "y": "Y"},
                  (ConeEdge("y", "x", ("g",)),), {"x": "pa"}),
        "b": Cone("b", "Q", {"u": "X", "v": "Y", "w": "W"},
                  (ConeEdge("v", "u", ("g",)), ConeEdge("v", "w", ("k",))),
                  {"u": "qu", "w": "qw"}),
    })
    delta = spy_on(monkeypatch, "join_new")
    reps = assert_same_repair(
        sk, {"X": ("x0",), "Y": ("y1",), "W": ("w0", "w1"), "Q": ("q0",)},
        {"g": {"y1": "x0"}, "k": {"y1": "w1"}, "qu": {"q0": "x0"},
         "qw": {"q0": "w0"}})
    assert reps["Y"] == ["y1"] and reps["W"] == ["w0"]
    assert delta[0] == 1


def reference_families(st, cone) -> int:
    """How many families the cone has in ``st``, by the frozen search."""
    def path(p):
        def evaluate(x):
            for a in p:
                x = x if x is None else st.get(a, x)
            return x
        return evaluate
    return sum(1 for _ in oracle_chase.families(
        {n: st.reps(ob) for n, ob in cone.nodes.items()},
        [(e.src, e.tgt, path(e.path)) for e in cone.edges]))


def test_a_cone_that_runs_again_joins_only_new_families(monkeypatch):
    full = spy_on(monkeypatch, "join")
    delta = spy_on(monkeypatch, "join_new")
    runs = []
    repair_cone = engine._Chase._repair_cone

    def spied(st, cone):
        if cone.name != "lim_H_MP":
            return repair_cone(st, cone)
        before, full[0], delta[0] = reference_families(st, cone), 0, 0
        repair_cone(st, cone)
        runs.append((id(st), before, full[0], delta[0]))
    monkeypatch.setattr(engine._Chase, "_repair_cone", spied)
    n = 12
    res = saturate(workloads.chain(ENV, n, n), [MP_RULE],
                   ChaseConfig(max_rounds=n + 1))
    assert res.status == "fixpoint" and len({r[0] for r in runs}) == 1
    # The first run joins every family; a later one none but those with a
    # value created since the run before it.
    assert runs[0][1:] == (1, 1, 0)
    for (_, last, _, _), (_, now, joined, new) in zip(runs, runs[1:]):
        assert joined == 0 and new == now - last
    assert sum(r[3] for r in runs) == n - 1


def test_extraction_drops_what_the_cones_kept():
    # Extraction ends a state's repairs, so what each cone kept for its
    # next run goes; a state repaired again joins in full and finds
    # nothing to change.
    st = engine._state_of(workloads.chain(ENV, 6, 3))
    st.repair(full=True)
    assert st.kept
    st.realization()
    assert st.kept == {}
    clock = st.clock
    st.clean_at.clear()
    st.repair(full=True)
    assert st.clock == clock


def test_chain_past_the_benchmark_sizes_reaches_its_fixpoint():
    n = 60
    res = saturate(workloads.chain(ENV, n, 7), [MP_RULE],
                   ChaseConfig(max_rounds=n + 1))
    size = {ob: len(res.result.carrier[ob]) for ob in ("Theo", "H_IM", "H_MP")}
    assert (res.status, res.rounds) == ("fixpoint", n)
    assert size == {"Theo": 2 * n + 1, "H_IM": (2 * n + 1) ** 2, "H_MP": n}
    assert check_realization(res.result).ok
    assert is_theory(res.result, [MP_RULE])
