"""A proof step seeds only what it touches.

A chase state builds an object's union-find only at the first add, merge or
``birth`` read there; until then it reads the object's elements off the
seed.  The repair units, each object's out-arrows and each cone's join
plans are made once per sketch, kept outside the sketch's fields.

Counts: over a 10-step chain proof and the modus ponens (MP) steps on the
corpus ``mp_basic``, the objects no MP step changes (``For``, ``H_IM``,
``C_IM``, ``H_IM_part_c_IM``) never get a union-find, ``_repair_units``
runs once per sketch and ``plan_join`` once per cone and seed set.

Inputs: every realization handed to ``saturate``, ``apply_rule``, the glue
behind ``compose_fractions``, and ``check_fraction``,
and every one ``representable`` returns, reads the same afterwards, over
chain proofs and random glues.
"""

import pickle
from collections import Counter
from pathlib import Path

import pytest

import limsketch
from limsketch import dsl, engine, realization, yoneda
from limsketch.engine import ChaseDiverged, rules_of, saturate
from limsketch.localizer import as_localiser
from limsketch.realization import check_realization

from test_repaired_mark import CORPUS, random_non_model, workloads
from test_sharing import point_legs

UNTOUCHED = {"For", "H_IM", "C_IM", "H_IM_part_c_IM"}


@pytest.fixture
def counts(monkeypatch):
    """Union-finds built per object, ``_repair_units`` calls per sketch and
    ``plan_join`` calls per (nodes, edges, seeded), from now on."""
    states, units, plans = [], Counter(), Counter()
    made = [0]
    init, repair_units = engine._Chase.__init__, engine._repair_units
    plan_join, union_find = realization.plan_join, engine.UnionFind

    def recorded_init(self, *args):
        init(self, *args)
        states.append(self)

    def counted_union_find(*args):
        made[0] += 1
        return union_find(*args)

    def counted_units(sk):
        units[id(sk)] += 1
        return repair_units(sk)

    def counted_plan(nodes, edges, seeded=()):
        plans[tuple(nodes), tuple(edges), tuple(seeded)] += 1
        return plan_join(nodes, edges, seeded)
    monkeypatch.setattr(engine._Chase, "__init__", recorded_init)
    monkeypatch.setattr(engine, "UnionFind", counted_union_find)
    monkeypatch.setattr(engine, "_repair_units", counted_units)
    monkeypatch.setattr(realization, "plan_join", counted_plan)

    def built():
        """Union-finds per object over the states made since the last call;
        each one the engine made is in a state's table."""
        out = Counter(ob for st in states for ob in st.uf)
        assert sum(out.values()) == made[0]
        states.clear()
        made[0] = 0
        return out
    return built, units, plans


def fresh_corpus():
    """The MP corpus parsed anew, so that no sketch in it has a plan yet,
    and its rules."""
    corpus = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    return corpus, rules_of(as_localiser(corpus["mp_sigma"].morphism))


def assert_planned_once(sk, units, plans):
    """One ``_repair_units`` call for ``sk``, and per join shape no more
    ``plan_join`` calls than ``sk`` has cones of that shape."""
    assert units == {id(sk): 1}
    shapes = Counter()
    for cone in sk.cones.values():
        legs = sorted(cone.projections)
        nodes = (*legs, *sorted(cone.nodes.keys() - set(legs)))
        shapes[nodes, tuple((e.src, e.tgt) for e in cone.edges)] += 1
    assert plans
    for (nodes, edges, _), n in plans.items():
        assert n <= shapes[nodes, edges], (nodes, n)


def test_a_chain_proof_seeds_only_what_it_touches(counts):
    built, units, plans = counts
    corpus, rules = fresh_corpus()
    built()  # the representables behind the rules build their own
    mp_rule = next(r for r in rules if r.id == "c_MP")
    env = workloads.Env(limsketch, corpus, corpus["mp_sp"], rules, mp_rule,
                        Path("."))
    out = workloads.prove_chain(env, workloads.chain(env, 10, 1), 20)
    assert workloads.gate_proof(env, out, 10) == []
    made = built()
    assert not UNTOUCHED & made.keys(), made
    assert made["Theo"] >= 10
    assert_planned_once(env.sp, units, plans)


def test_mp_steps_on_mp_basic_seed_only_what_they_touch(counts):
    built, units, plans = counts
    corpus, rules = fresh_corpus()
    built()
    mp_rule = next(r for r in rules if r.id == "c_MP")
    spec, steps = corpus["mp_basic"].realization, 0
    while (match := next((m for m in engine.match_rule(mp_rule, spec)
                          if not m.satisfied), None)) is not None:
        spec = engine.apply_rule(spec, mp_rule, match).tgt
        steps += 1
    assert steps >= 1
    assert check_realization(spec).ok and engine.is_theory(spec, [mp_rule])
    made = built()
    assert not UNTOUCHED & made.keys(), made
    assert_planned_once(spec.over, units, plans)


def test_a_sketch_with_plans_pickles_without_them():
    corpus, rules = fresh_corpus()
    sk = corpus["mp_sp"]
    assert saturate(corpus["mp_basic"].realization, rules,
                    engine.ChaseConfig(max_rounds=2)).result
    assert "_cached" in vars(sk)
    assert any("_cached" in vars(c) for c in sk.cones.values())
    copy = pickle.loads(pickle.dumps(sk))
    assert copy == sk
    assert "_cached" not in vars(copy)
    assert not any("_cached" in vars(c) for c in copy.cones.values())


# -- inputs never change ------------------------------------------------------


def snapshot(spec):
    """Each carrier's elements and a copy of each action's mapping."""
    return ({ob: s.elements for ob, s in spec.carrier.items()},
            {a: dict(fn.mapping) for a, fn in spec.action.items()})


@pytest.fixture
def inputs(monkeypatch):
    """A snapshot of every realization the chase entry points are given
    (and ``representable`` returns), with the realization, from now on."""
    seen = []

    def record(*args):
        for x in args:
            if isinstance(x, engine.Realization):
                seen.append((x, snapshot(x)))
            elif isinstance(x, engine.Fraction):
                record(x.src, x.mid, x.tgt)

    def wrap(module, name, returns=False):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            record(*args)
            out = real(*args, **kwargs)
            if returns:
                record(out.spec)
            return out
        for home in {module, limsketch}:
            if getattr(home, name, None) is real:
                monkeypatch.setattr(home, name, wrapped)
    for name in ("saturate", "apply_rule", "compose_fractions",
                 "check_fraction", "_glue_state"):
        wrap(engine, name)
    wrap(yoneda, "representable", returns=True)
    return seen


def assert_unchanged(seen):
    assert seen
    for spec, before in seen:
        assert snapshot(spec) == before


def test_chain_proofs_leave_their_inputs_unchanged(inputs):
    corpus, rules = fresh_corpus()
    mp_rule = next(r for r in rules if r.id == "c_MP")
    env = workloads.Env(limsketch, corpus, corpus["mp_sp"], rules, mp_rule,
                        Path("."))
    for n in range(3, 11):
        out = workloads.prove_chain(env, workloads.chain(env, n, 11 + n),
                                    2 * n)
        assert workloads.gate_proof(env, out, n) == []
    assert_unchanged(inputs)


def test_random_glues_leave_their_inputs_unchanged(monkeypatch, inputs):
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    glues = 0
    for seed in range(200):
        R = random_non_model(seed)
        if R is None:
            continue
        try:
            M = engine.saturate(R, []).result
        except ChaseDiverged:
            continue
        ob = next((o for o in M.over.objects
                   if R.carrier[o].elements and M.carrier[o].elements), None)
        if ob is None:
            continue
        x, y = R.carrier[ob].elements[0], M.carrier[ob].elements[-1]
        try:
            engine._glue_state(R, M, *point_legs(R, M, ob, x, y))
        except ChaseDiverged:
            continue
        glues += 1
    assert glues >= 100
    assert_unchanged(inputs)
