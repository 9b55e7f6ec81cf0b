from __future__ import annotations

import itertools
import random

import pytest

from limsketch.finset import (
    FinDiagram,
    FinFunction,
    FinSet,
    UnionFind,
    identity,
    is_bijection,
    limit,
    pushout,
)
from oracle_surface import compose, congruence_closure, families, finset

# ---------------------------------------------------------------------------
# independent oracles (naive, kept separate from the library implementations)
# ---------------------------------------------------------------------------


def oracle_limit(nodes: dict[str, list[str]], edges: list[tuple[str, str, dict[str, str]]]) -> set[tuple[str, ...]]:
    """Filter the full cartesian product by every edge constraint.

    An edge map may be partial; a value it leaves undefined rules the family out.
    """
    names = sorted(nodes)
    out = set()
    for combo in itertools.product(*(nodes[n] for n in names)):
        fam = dict(zip(names, combo))
        if all(fn.get(fam[s]) == fam[t] for s, t, fn in edges):
            out.add(tuple(fam[n] for n in names))
    return out


def all_functions(dom: list[str], cod: list[str]) -> list[dict[str, str]]:
    if not dom:
        return [{}]
    if not cod:
        return []
    return [dict(zip(dom, vals)) for vals in itertools.product(cod, repeat=len(dom))]


def fn(dom, cod, mapping):
    return FinFunction(finset(dom), finset(cod), dict(mapping))


def diagram(nodes, edges):
    ns = {k: finset(v) for k, v in nodes.items()}
    es = {
        f"e{i}": (s, t, FinFunction(ns[s], ns[t], dict(m)))
        for i, (s, t, m) in enumerate(edges)
    }
    return FinDiagram(ns, es)


def limit_tuples(d: FinDiagram) -> set[tuple[str, ...]]:
    lim, projs = limit(d)
    names = sorted(d.nodes)
    return {tuple(projs[n](x) for n in names) for x in lim}


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


def test_diagram_edges_must_meet_their_nodes():
    A, B = finset(["a"]), finset(["b"])
    f = FinFunction(A, B, {"a": "b"})
    with pytest.raises(ValueError, match="edge f references unknown node"):
        FinDiagram({"A": A}, {"f": ("A", "B", f)})
    with pytest.raises(ValueError,
                       match="edge f function does not match its endpoints"):
        FinDiagram({"A": A, "B": B}, {"f": ("B", "A", f)})


def test_limit_empty_diagram_is_terminal():
    lim, projs = limit(FinDiagram({}, {}))
    assert len(lim) == 1
    assert projs == {}


def test_limit_discrete_product():
    d = diagram({"A": ["a1", "a2"], "B": ["b1"]}, [])
    lim, projs = limit(d)
    assert len(lim) == 2
    assert [projs["A"](x) for x in lim] == ["a1", "a2"]
    assert [projs["B"](x) for x in lim] == ["b1", "b1"]


def test_limit_parallel_pair_equalizer():
    # families fixing x1 and x3; expected set frozen from the product-filter oracle
    f = {"x1": "y1", "x2": "y1", "x3": "y2"}
    g = {"x1": "y1", "x2": "y2", "x3": "y2"}
    d = diagram({"a": ["x1", "x2", "x3"], "b": ["y1", "y2"]}, [("a", "b", f), ("a", "b", g)])
    assert limit_tuples(d) == {("x1", "y1"), ("x3", "y2")}


def test_limit_tuple_naming_is_canonical():
    d = diagram({"n2": ["u"], "n1": ["a", "b"]}, [])
    lim, _ = limit(d)
    assert lim.elements == ("(n1=a,n2=u)", "(n1=b,n2=u)")


def test_limit_projections_commute_with_edges():
    f = {"x1": "y2", "x2": "y2"}
    d = diagram({"a": ["x1", "x2"], "b": ["y1", "y2"]}, [("a", "b", f)])
    lim, projs = limit(d)
    for x in lim:
        assert f[projs["a"](x)] == projs["b"](x)


def test_limit_matches_oracle_on_random_diagrams():
    rng = random.Random(20837)
    for _ in range(80):
        n_nodes = rng.randint(1, 4)
        nodes = {
            f"n{i}": [f"n{i}e{j}" for j in range(rng.randint(0, 4))]
            for i in range(n_nodes)
        }
        edges = []
        for _ in range(rng.randint(0, 4)):
            s = rng.choice(sorted(nodes))
            t = rng.choice(sorted(nodes))
            if nodes[s] and not nodes[t]:
                continue
            m = {x: rng.choice(nodes[t]) for x in nodes[s]}
            edges.append((s, t, m))
        d = diagram(nodes, edges)
        assert limit_tuples(d) == oracle_limit(nodes, edges)


def test_families_with_partial_edges_match_oracle():
    rng = random.Random(5150)
    for _ in range(150):
        nodes = {
            f"n{i}": [f"n{i}e{j}" for j in range(rng.randint(0, 4))]
            for i in range(rng.randint(0, 4))
        }
        edges = []
        for _ in range(rng.randint(0, 5) if nodes else 0):
            s = rng.choice(sorted(nodes))
            t = rng.choice(sorted(nodes))
            m = {x: rng.choice(nodes[t]) for x in nodes[s]
                 if nodes[t] and rng.random() < 0.8}
            edges.append((s, t, m))
        fams = list(families(nodes, [(s, t, m.get) for s, t, m in edges]))
        names = sorted(nodes)
        got = [tuple(fam[n] for n in names) for fam in fams]
        assert len(got) == len(set(got))
        assert set(got) == oracle_limit(nodes, edges)
        # the order depends on the candidate orders, not on the dict order
        backwards = dict(reversed(list(nodes.items())))
        assert list(families(backwards, [(s, t, m.get) for s, t, m in edges])) == fams


# ---------------------------------------------------------------------------
# union-find
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a, b", [("x", "y"), ("y", "x")])
def test_union_keeps_the_first_added_root(a, b):
    uf = UnionFind(["x", "y", "z"])
    assert uf.union(a, b) == ("x", "y")
    assert uf.union(a, b) is None
    assert uf.union("z", b) == ("x", "z")
    assert uf.roots() == ["x"]


def test_union_compares_roots_not_arguments():
    uf = UnionFind("abcd")
    assert uf.union("d", "c") == ("c", "d")
    assert uf.union("d", "b") == ("b", "c")
    assert uf.find("d") == "b"
    assert uf.roots() == ["a", "b"]


# ---------------------------------------------------------------------------
# pushouts
# ---------------------------------------------------------------------------


def test_pushout_empty_apex_is_disjoint_union():
    f = fn([], ["b1", "b2"], {})
    g = fn([], ["c1"], {})
    P, ib, ic = pushout(f, g)
    assert len(P) == 3
    assert set(ib.mapping.values()) | set(ic.mapping.values()) == set(P.elements)


def test_pushout_of_identities_is_identity():
    a = finset(["a1", "a2"])
    P, ib, ic = pushout(identity(a), identity(a))
    assert P == a
    assert ib == identity(a) and ic == identity(a)


def test_pushout_single_gluing():
    # hand oracle: classes {b1,c1} and {b2}
    f = fn(["a"], ["b1", "b2"], {"a": "b1"})
    g = fn(["a"], ["c1"], {"a": "c1"})
    P, ib, ic = pushout(f, g)
    assert P.elements == ("b1", "b2")
    assert ib.mapping == {"b1": "b1", "b2": "b2"}
    assert ic.mapping == {"c1": "b1"}


def test_pushout_name_collision_uses_side_tags():
    f = fn([], ["x"], {})
    g = fn([], ["x"], {})
    P, ib, ic = pushout(f, g)
    assert P.elements == ("b.x", "c.x")
    assert ib.mapping["x"] == "b.x" and ic.mapping["x"] == "c.x"


def test_pushout_square_commutes():
    f = fn(["a1", "a2"], ["b1", "b2"], {"a1": "b1", "a2": "b1"})
    g = fn(["a1", "a2"], ["c1", "c2"], {"a1": "c1", "a2": "c2"})
    P, ib, ic = pushout(f, g)
    assert compose(f, ib) == compose(g, ic)


def _random_span(rng):
    A = [f"a{i}" for i in range(rng.randint(0, 3))]
    lo = 1 if A else 0
    B = [f"b{i}" for i in range(rng.randint(lo, 3))]
    C = [f"c{i}" for i in range(rng.randint(lo, 3))]
    f = fn(A, B, {a: rng.choice(B) for a in A})
    g = fn(A, C, {a: rng.choice(C) for a in A})
    return f, g


def test_pushout_universal_property_small():
    rng = random.Random(4411)
    for _ in range(30):
        f, g = _random_span(rng)
        P, ib, ic = pushout(f, g)
        Q = [f"q{i}" for i in range(rng.randint(1, 3))]
        for u in all_functions(list(f.cod), Q):
            for v in all_functions(list(g.cod), Q):
                if any(u[f(a)] != v[g(a)] for a in f.dom):
                    continue
                mediating = [
                    m
                    for m in all_functions(list(P), Q)
                    if all(m[ib(b)] == u[b] for b in f.cod)
                    and all(m[ic(c)] == v[c] for c in g.cod)
                ]
                assert len(mediating) == 1


def test_pushout_mismatched_domains_error():
    f = fn(["a"], ["b"], {"a": "b"})
    g = fn(["z"], ["c"], {"z": "c"})
    with pytest.raises(ValueError):
        pushout(f, g)


# ---------------------------------------------------------------------------
# congruence closure
# ---------------------------------------------------------------------------


def test_congruence_empty_pairs_is_identity():
    s = finset(["x", "y"])
    assert congruence_closure(s, []) == {"x": "x", "y": "y"}


def test_congruence_transitivity():
    s = finset(["x", "y", "z"])
    assert congruence_closure(s, [("x", "y"), ("y", "z")]) == {"x": "x", "y": "x", "z": "x"}


def test_congruence_two_classes_plus_singleton():
    s = finset(["a", "b", "c", "d", "e"])
    q = congruence_closure(s, [("a", "b"), ("c", "d")])
    assert q == {"a": "a", "b": "a", "c": "c", "d": "c", "e": "e"}
    assert len(set(q.values())) == 3


def test_congruence_idempotent():
    rng = random.Random(99)
    elems = [f"e{i}" for i in range(6)]
    s = finset(elems)
    for _ in range(20):
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(rng.randint(0, 5))]
        q = congruence_closure(s, pairs)
        reps = finset(sorted(set(q.values())))
        q2 = congruence_closure(reps, [])
        assert all(q2[q[x]] == q[x] for x in elems)
        # quotienting by the image pairs again changes nothing
        assert congruence_closure(s, [(x, q[x]) for x in elems]) == q


def test_congruence_foreign_element_errors():
    with pytest.raises(ValueError):
        congruence_closure(finset(["a"]), [("a", "zzz")])


# ---------------------------------------------------------------------------
# function algebra
# ---------------------------------------------------------------------------


def test_identity_is_bijection():
    assert is_bijection(identity(finset(["x", "y", "z"])))


def test_constant_function_not_bijection():
    assert not is_bijection(fn(["x1", "x2"], ["y"], {"x1": "y", "x2": "y"}))


def test_compose_of_bijections():
    e = ["e1", "e2", "e3"]
    f = fn(e, e, {"e1": "e2", "e2": "e3", "e3": "e1"})
    g = fn(e, e, {"e1": "e3", "e2": "e1", "e3": "e2"})
    h = compose(f, g)
    assert h == identity(finset(e))
    assert is_bijection(h)


def test_compose_mismatch_errors():
    f = fn(["a"], ["b"], {"a": "b"})
    g = fn(["z"], ["c"], {"z": "c"})
    with pytest.raises(ValueError):
        compose(f, g)


def test_finset_rejects_duplicates():
    with pytest.raises(ValueError):
        finset(["a", "a"])


def test_finfunction_must_be_total():
    with pytest.raises(ValueError):
        FinFunction(finset(["a", "b"]), finset(["c"]), {"a": "c"})
