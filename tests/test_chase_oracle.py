"""Differential tests: the incremental chase against a frozen full-scan copy.

``oracle_chase`` re-checks every repair unit on every pass and joins cone
families by scanning every candidate.  The engine skips units whose inputs
did not change and joins through preimage buckets; both must give the same
trace lines, serialized result and embedding, byte for byte.  Likewise
``match_rule``, which indexes its target once, must list the same matches
as one ``extend_morphism`` per apex element.
"""

import random
import sys
from importlib import resources
from pathlib import Path

import pytest

import limsketch
import oracle_chase
from limsketch import dsl, engine, yoneda
from limsketch.engine import (
    ChaseConfig,
    ChaseDiverged,
    Match,
    match_rule,
    rules_of,
    saturate,
    trace_lines,
)
from limsketch.localizer import as_localiser, break_cycles
from limsketch.realization import extend_morphism
from limsketch.sketch import ArrowDecl, Cone, ConeEdge, PathEquation, Sketch

from test_acceptance import tabled_spec
from test_engine import IM_RULE, MP_RULE, RULES, SP, mp_basic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

CORPUS = resources.files("limsketch") / "corpus"


def rendered(res):
    return (trace_lines(res),
            dsl.serialize(dsl.NamedSpec("result", res.result)),
            {ob: fn.mapping for ob, fn in res.embedding.components.items()})


def assert_same_chase(spec, rules, cfg=None):
    got = rendered(saturate(spec, rules, cfg))
    want = rendered(oracle_chase.saturate(spec, rules, cfg))
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]


@pytest.mark.parametrize("rules", [RULES, [MP_RULE], [IM_RULE]],
                         ids=["both", "mp", "im"])
def test_mp_basic_capped_matches_oracle(rules):
    assert_same_chase(mp_basic(), rules, ChaseConfig(max_rounds=3))


def test_chains_match_oracle():
    env = workloads.Env(limsketch, {}, SP, RULES, MP_RULE, Path("."))
    for n in [*range(3, 13), 20]:
        assert_same_chase(workloads.chain(env, n, n), [MP_RULE],
                          ChaseConfig(max_rounds=n + 1))


def reference_matches(rule, spec):
    """One ``Match`` per apex element, its morphism set to the reference
    extension before ``match_rule``'s own could be built."""
    image = set(spec.action[rule.h_arrow].mapping.values())
    out = []
    for x in spec.carrier[rule.apex].elements:
        m = Match(rule.id, x, x in image, rule, spec)
        object.__setattr__(m, "morphism", extend_morphism(
            rule.hypothesis, spec, {rule.apex: {rule.generator: x}}))
        out.append(m)
    return out


def test_match_rule_equals_one_extension_per_element():
    corpus = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    env = workloads.Env(limsketch, {}, SP, RULES, MP_RULE, Path("."))
    cases = [(rules_of(as_localiser(corpus["mp_sigma"].morphism)),
              corpus["mp_basic"].realization),
             (RULES, workloads.chain(env, 5, 5))]
    for rules, spec in cases:
        for rule in rules:
            got = match_rule(rule, spec)
            assert got == reference_matches(rule, spec)
            assert len(got) == len(spec.carrier[rule.apex])


def test_tabled_specs_match_oracle():
    for seed in range(20):
        rng = random.Random(seed)
        complete = seed % 2 == 0
        spec = tabled_spec(rng, rng.randint(1, 4), complete=complete)
        rules = [IM_RULE, MP_RULE] if complete else [MP_RULE]
        assert_same_chase(spec, rules, ChaseConfig(max_rounds=6))


def broken_corpus_sketches():
    for path in sorted(CORPUS.iterdir()):
        if path.name.endswith(".sk"):
            for d in dsl.parse_path(path):
                if isinstance(d, Sketch):
                    yield break_cycles(d)[0]


def test_representables_match_oracle():
    checked = 0
    for sk in broken_corpus_sketches():
        for ob in sk.objects:
            rep = yoneda.representable(sk, ob)
            st = oracle_chase._Chase(sk, {ob: (rep.generator,)}, {})
            st.repair(full=True)
            want = st.realization()
            assert dsl.serialize(dsl.NamedSpec("rep", rep.spec)) == \
                dsl.serialize(dsl.NamedSpec("rep", want)), (sk.name, ob)
            checked += 1
    assert checked >= 20


def assert_same_repair(sk, carriers, actions):
    got = repaired(engine._Chase, sk, carriers, actions)
    assert got == repaired(oracle_chase._Chase, sk, carriers, actions)
    return got[0]


def test_cone_rereads_arrows_on_its_edge_paths():
    # In the first pass c0 creates y0 = a(x0), then c1 finds no family
    # (b(y0) is undefined), then c2 realizes q0's family by writing
    # b(y0) = z0.  That write creates nothing and touches none of c1's
    # nodes X and Z, yet it completes c1's path a.b from x0 to z0 through
    # Y, so the next pass must run c1 again.
    arrows = {"a": ArrowDecl("a", "X", "Y"), "b": ArrowDecl("b", "Y", "Z"),
              "c": ArrowDecl("c", "X", "Z"), "p": ArrowDecl("p", "P", "X"),
              "q": ArrowDecl("q", "Q", "X"), "r": ArrowDecl("r", "R", "X")}
    sk = Sketch("paths", ("X", "Y", "Z", "P", "Q", "R"), arrows, (), {
        "c0": Cone("c0", "R", {"x": "X", "y": "Y"},
                   (ConeEdge("x", "y", ("a",)),), {"x": "r"}),
        "c1": Cone("c1", "P", {"x": "X", "z": "Z"},
                   (ConeEdge("x", "z", ("a", "b")),), {"x": "p"}),
        "c2": Cone("c2", "Q", {"x": "X", "y": "Y", "z": "Z"},
                   (ConeEdge("x", "y", ("a",)), ConeEdge("x", "z", ("c",)),
                    ConeEdge("y", "z", ("b",))), {"x": "q"}),
    })
    reps = assert_same_repair(
        sk, {"X": ("x0",), "Z": ("z0",), "Q": ("q0",), "R": ("r0",)},
        {"c": {"x0": "z0"}, "q": {"q0": "x0"}, "r": {"r0": "x0"}})
    assert reps["Y"] == ["Y#0"] and reps["P"] == ["P#1"]


def test_mono_rereads_after_a_merge_in_its_target():
    # The mono m is checked before the cone merges p1 and p2, its target
    # elements; the merge alone must make the next pass merge s1 and s2.
    arrows = {"pr": ArrowDecl("pr", "P", "X"), "m": ArrowDecl("m", "S", "P")}
    sk = Sketch("merge", ("X", "P", "S"), arrows, (), {
        "c": Cone("c", "P", {"x": "X"}, (), {"x": "pr"}),
    }, frozenset({"m"}))
    reps = assert_same_repair(
        sk, {"X": ("x0",), "P": ("p1", "p2"), "S": ("s1", "s2")},
        {"pr": {"p1": "x0", "p2": "x0"}, "m": {"s1": "p1", "s2": "p2"}})
    assert reps["S"] == ["s1"]


def random_state(rng):
    """A random sketch and a partial state over it, for ``_Chase``.

    Objects O0..Ok carry arrows going up the index, so totality alone
    terminates; each cone gets an apex of its own, with projections to
    some of its nodes and edges along paths of up to three arrows, so cone
    repair can write to arrows and merge elements outside its nodes.
    """
    k = rng.randint(3, 5)
    objects = tuple(f"O{i}" for i in range(k))
    arrows = {}
    for j in range(rng.randint(3, 9)):
        s = rng.randrange(k - 1)
        arrows[f"a{j}"] = ArrowDecl(f"a{j}", objects[s],
                                    objects[rng.randrange(s + 1, k)])

    def paths(src, length):
        if length == 0:
            return [((), src)]
        return [(p + (a,), d.tgt) for p, end in paths(src, length - 1)
                for a, d in sorted(arrows.items()) if d.src == end]

    equations = []
    for _ in range(rng.randint(0, 3)):
        by_end, src = {}, rng.choice(objects)
        for n in (1, 2):
            for p, end in paths(src, n):
                by_end.setdefault(end, []).append(p)
        choices = [ps for ps in by_end.values() if len(ps) >= 2]
        if choices:
            equations.append(PathEquation(*rng.sample(rng.choice(choices), 2)))
    cones = {}
    for c in range(rng.randint(1, 3)):
        apex = f"P{c}"
        objects += (apex,)
        nodes = {f"n{m}": rng.choice(objects[:k])
                 for m in range(rng.randint(1, 3))}
        edges = []
        for s in nodes:
            for t in nodes:
                ps = [p for n in (1, 2, 3) for p, end in paths(nodes[s], n)
                      if end == nodes[t]]
                if s != t and rng.random() < 0.5 and ps:
                    edges.append(ConeEdge(s, t, rng.choice(ps)))
        targets = {e.tgt for e in edges}
        projections = {}
        for n, ob in nodes.items():
            if n not in targets or rng.random() < 0.5:
                projections[n] = a = f"pr{c}{n}"
                arrows[a] = ArrowDecl(a, apex, ob)
        cones[f"c{c}"] = Cone(f"c{c}", apex, nodes, tuple(edges), projections)
    monos = frozenset(a for a in arrows if rng.random() < 0.2)
    sk = Sketch("random", objects, arrows, tuple(equations), cones, monos)
    carriers = {ob: tuple(f"{ob.lower()}_{m}" for m in range(rng.randint(0, 2)))
                for ob in objects}
    actions = {a: {x: rng.choice(carriers[d.tgt]) for x in carriers[d.src]
                   if carriers[d.tgt] and rng.random() < 0.6}
               for a, d in arrows.items()}
    return sk, carriers, actions


def repaired(chase, sk, carriers, actions):
    st = chase(sk, carriers, actions)
    try:
        st.repair(full=True)
    except ChaseDiverged as exc:
        return str(exc), st.created
    return ({ob: st.reps(ob) for ob in sk.objects},
            {a: {x: st.get(a, x) for x in st.reps(d.src)}
             for a, d in sk.arrows.items()},
            st.take_round())


def test_random_sketches_match_oracle(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    monkeypatch.setattr(oracle_chase, "_MAX_ELEMENTS", 300)
    merged = 0
    for seed in range(400):
        case = random_state(random.Random(seed))
        got = repaired(engine._Chase, *case)
        assert got == repaired(oracle_chase._Chase, *case), f"seed {seed}"
        merged += len(got) == 3 and bool(got[2][1])
    assert merged >= 100


def test_reads_leave_the_chase_unchanged(monkeypatch):
    # Action values go stale when their target merges; a read resolves
    # them to their class but must not store the resolution.
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    stale = 0
    for seed in range(200):
        sk, carriers, actions = random_state(random.Random(seed))
        st = engine._Chase(sk, carriers, actions)
        try:
            st.repair(full=True)
        except ChaseDiverged:
            continue
        before = ({a: dict(t) for a, t in st.act.items()}, st.clock)
        stale += any(st._uf(sk.arrows[a].tgt).find(y) != y
                     for a, t in st.act.items() for y in t.values())
        for a, d in sk.arrows.items():
            for x in st.reps(d.src):
                st.get(a, x)
        st.realization()
        assert (st.act, st.clock) == before, f"seed {seed}"
    assert stale >= 80
