"""Reads of a chase state before and after the first merge in an object.

Until an object first merges, every element of it is its own root, so the
chase reads each arrow into it through the action table's bare ``get`` and
lists its elements straight off the union-find.  The first merge re-binds
the reads of the arrows into that object, and drops the compiled cone
readers built on the old ones, so that every read from then on resolves
through ``find``.

The sketches of the merging cases are built here, so that a chase that
reads stale values fails an assertion in this file.
"""

import sys
from importlib import resources
from pathlib import Path

import pytest

import limsketch
import oracle_chase
from limsketch import dsl, engine
from limsketch.engine import Fraction, compose_fractions, rules_of
from limsketch.finset import FinFunction, FinSet, UnionFind
from limsketch.localizer import break_cycles
from limsketch.realization import RealMorphism, Realization, identity_morphism
from limsketch.sketch import ArrowDecl, Cone, Sketch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def env():
    """The MP corpus and its rules, as the benchmark's set-up reads them."""
    corpus = {d.name: d for d in dsl.parse_path(
        resources.files(limsketch) / "corpus" / "mp.sk")}
    sp, loc = break_cycles(corpus["mp_theory"])
    rules = rules_of(loc)
    mp_rule = next(r for r in rules if r.id == "c_MP")
    return workloads.Env(limsketch, corpus, sp, rules, mp_rule, Path("."))


def count_union_find(monkeypatch) -> dict[str, int]:
    """Count the ``UnionFind.find`` and ``UnionFind.roots`` calls from now."""
    calls = {"find": 0, "roots": 0}
    for name in calls:
        def counted(self, *args, real=getattr(UnionFind, name), name=name):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(UnionFind, name, counted)
    return calls


def test_a_chain_saturation_never_asks_the_union_find(env, monkeypatch):
    spec = workloads.chain(env, 20, 1)
    calls = count_union_find(monkeypatch)
    res = limsketch.saturate(spec, [env.mp_rule],
                             limsketch.ChaseConfig(max_rounds=21))
    assert calls == {"find": 0, "roots": 0}
    assert not any(r.identified for r in res.trace.rounds)
    monkeypatch.undo()
    assert workloads.gate_chain(env, res, 20) == []


def test_a_chain_proof_never_asks_the_union_find(env, monkeypatch):
    spec = workloads.chain(env, 10, 1)
    calls = count_union_find(monkeypatch)
    out = workloads.prove_chain(env, spec, 20)
    assert calls == {"find": 0, "roots": 0}
    monkeypatch.undo()
    assert workloads.gate_proof(env, out, 10) == []


def test_capped_growth_never_asks_the_union_find(env, monkeypatch):
    jobs, _ = workloads.WORKLOADS["capped-growth"](env, 1)
    calls = count_union_find(monkeypatch)
    outs = [job.run() for job in jobs]
    assert calls == {"find": 0, "roots": 0}
    monkeypatch.undo()
    assert [job.check(out) for job, out in zip(jobs, outs)] == [[]] * len(jobs)


# The cone ``a_reads`` (P = A through pi) runs first and compiles its reader
# while A holds a1 and a2.  The cone ``b_merges`` (A = B through f) then
# merges a1 and a2, its apex elements over the one b; so the next pass runs
# ``a_reads`` again, and it must read pi(x2) as a1 and merge x1 and x2.
REBIND = Sketch("rebind", ("A", "B", "P"), {
    "f": ArrowDecl("f", "A", "B"), "pi": ArrowDecl("pi", "P", "A"),
}, (), {
    "a_reads": Cone("a_reads", "P", {"n": "A"}, (), {"n": "pi"}),
    "b_merges": Cone("b_merges", "A", {"m": "B"}, (), {"m": "f"}),
})


def snapshot(st):
    """Everything a chase state shows: classes, reads, the round so far."""
    sk = st.sk
    return ({ob: st.reps(ob) for ob in sk.objects},
            {a: {x: st.get(a, x) for x in st.reps(d.src)}
             for a, d in sk.arrows.items()},
            st.take_round(),
            dsl.serialize(dsl.NamedSpec("state", st.realization())))


def test_a_cone_rereads_an_arrow_into_an_object_after_its_first_merge():
    carriers = {"A": ("a1", "a2"), "B": ("b",), "P": ("x1", "x2")}
    actions = {"f": {"a1": "b", "a2": "b"}, "pi": {"x1": "a1", "x2": "a2"}}
    states = [chase(REBIND, carriers, actions)
              for chase in (engine._Chase, oracle_chase._Chase)]
    for st in states:
        st.repair(full=True)
    got, want = map(snapshot, states)
    assert got == want
    assert got[0] == {"A": ["a1"], "B": ["b"], "P": ["x1"]}
    assert got[2][1] == (("A", "a1", "a2"), ("P", "x1", "x2"))
    # A second state of the same chase: a new A element over b and a new P
    # element over it merge into the old classes, after A has merged.
    for st in states:
        a3, x3 = st.fresh("A"), st.fresh("P")
        st.put("f", a3, "b")
        st.put("pi", x3, a3)
        st.repair(full=True)
    got, want = map(snapshot, states)
    assert got == want
    assert got[0] == {"A": ["a1"], "B": ["b"], "P": ["x1"]}
    assert got[2][1] == (("A", "a1", "A#0"), ("P", "x1", "P#1"))


GRAPH = Sketch("graph", ("E", "V"), {
    "s": ArrowDecl("s", "E", "V"), "t": ArrowDecl("t", "E", "V")})


def graph(vertices, edges):
    """A graph realization; ``edges`` maps each edge to (source, target)."""
    cs = {"V": FinSet(tuple(vertices)), "E": FinSet(tuple(edges))}
    return Realization(GRAPH, cs, {
        a: FinFunction(cs["E"], cs["V"], {e: ends[i] for e, ends in
                                          edges.items()})
        for i, a in enumerate(("s", "t"))})


def test_a_glue_that_merges_old_elements_reads_through_find(monkeypatch):
    # h sends a and b to q, so the glue merges S's a and b; the edge e of S
    # still has t(e) = b in its table, which must read as a from then on.
    s = graph(("a", "b"), {"e": ("a", "b")})
    q = graph(("q", "b"), {"l": ("q", "q")})
    h = RealMorphism(s, q, {
        "V": FinFunction(s.carrier["V"], q.carrier["V"], {"a": "q", "b": "q"}),
        "E": FinFunction(s.carrier["E"], q.carrier["E"], {"e": "l"})})
    calls = count_union_find(monkeypatch)
    st, _ = engine._glue_state(q, s, h.components,
                               identity_morphism(s).components)
    assert st.round_identified == [("V", "a", "b")]
    before = dict(calls)
    assert (st.get("s", "e"), st.get("t", "e")) == ("a", "a")
    assert st.reps("V") == ["a", "b'"]
    assert (calls["find"] - before["find"],
            calls["roots"] - before["roots"]) == (2, 1)
    monkeypatch.undo()
    proof = compose_fractions(
        Fraction(s, s, s, identity_morphism(s), identity_morphism(s),
                 "by-construction"),
        Fraction(s, q, q, h, identity_morphism(q), "by-construction"))
    assert proof.mid.carrier["V"].elements == ("a", "b'")
    assert {a: fn.mapping for a, fn in proof.mid.action.items()} == {
        "s": {"e": "a"}, "t": {"e": "a"}}
