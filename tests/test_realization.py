from __future__ import annotations

import itertools
import random

import pytest

from limsketch import realization
from limsketch.finset import FinFunction, FinSet, is_bijection
from limsketch.localizer import SketchMorphism, break_cycles
from limsketch.realization import (
    RealMorphism,
    Realization,
    check_morphism,
    check_realization,
    enumerate_morphisms,
    extend_morphism,
    identity_morphism,
    is_isomorphic,
    restrict_along,
)
from limsketch.engine import ChaseConfig, saturate
from limsketch.sketch import (
    ArrowDecl,
    Cone,
    ConeEdge,
    PathEquation,
    Sketch,
    builtin_sketches,
)

from limsketch.yoneda import representable

from helpers import compose_morphisms, empty_realization
from oracle_surface import finset
from test_engine import RULES, mp_basic

GRAPH = builtin_sketches()["graph"]
MAGMA = builtin_sketches()["magma"]
MP = builtin_sketches()["mp_theory"]

# A terminal object One, through a cone without projections.
TERMINAL = Sketch(
    name="terminal",
    objects=("One", "A"),
    arrows={"a": ArrowDecl("a", "A", "One")},
    cones={"t": Cone("t", "One", {})},
)

# P is a limit over A through p and, by a second cone, over B through q.
TWO_CONES = Sketch(
    name="two_cones",
    objects=("P", "A", "B"),
    arrows={"p": ArrowDecl("p", "P", "A"), "q": ArrowDecl("q", "P", "B")},
    cones={"c1": Cone("c1", "P", {"a": "A"}, projections={"a": "p"}),
           "c2": Cone("c2", "P", {"b": "B"}, projections={"b": "q"})},
)


def mk_graph(vs, es, smap, tmap) -> Realization:
    V, E = finset(vs), finset(es)
    return Realization(
        over=GRAPH,
        carrier={"V": V, "E": E},
        action={"s": FinFunction(E, V, dict(smap)), "t": FinFunction(E, V, dict(tmap))},
    )


def mk_magma(table: dict[tuple[str, str], str]) -> Realization:
    M = finset(["0", "1"])
    pairs = [a + b for a in M for b in M]
    M2 = finset(pairs)
    return Realization(
        over=MAGMA,
        carrier={"M": M, "M2": M2},
        action={
            "s": FinFunction(M2, M, {p: p[0] for p in pairs}),
            "t": FinFunction(M2, M, {p: p[1] for p in pairs}),
            "k": FinFunction(M2, M, {p: table[(p[0], p[1])] for p in pairs}),
        },
    )


AND_TABLE = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}


def one_formula_theory() -> Realization:
    """The least modus ponens theory: a single formula that is its own implication."""
    c = {
        "For": finset(["a"]),
        "Theo": finset(["ta"]),
        "H_IM": finset(["xa"]),
        "C_IM": finset(["ca"]),
        "H_MP": finset(["ma"]),
        "C_MP": finset(["da"]),
    }
    fn = lambda d, co, m: FinFunction(c[d], c[co], m)
    return Realization(
        over=MP,
        carrier=c,
        action={
            "inc": fn("Theo", "For", {"ta": "a"}),
            "p1": fn("H_IM", "For", {"xa": "a"}),
            "p2": fn("H_IM", "For", {"xa": "a"}),
            "c_IM": fn("H_IM", "C_IM", {"xa": "ca"}),
            "e_IM": fn("C_IM", "For", {"ca": "a"}),
            "t1": fn("H_MP", "Theo", {"ma": "ta"}),
            "t2": fn("H_MP", "Theo", {"ma": "ta"}),
            "q": fn("H_MP", "For", {"ma": "a"}),
            "c_MP": fn("H_MP", "C_MP", {"ma": "da"}),
            "e_MP": fn("C_MP", "Theo", {"da": "ta"}),
        },
    )


# ---------------------------------------------------------------------------
# check_realization
# ---------------------------------------------------------------------------


def test_one_loop_graph_ok():
    R = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    assert check_realization(R).ok


def test_and_magma_ok():
    assert check_realization(mk_magma(AND_TABLE)).ok


def test_three_element_pair_carrier_fails_cone():
    M = finset(["0", "1"])
    M2 = finset(["00", "01", "10"])
    R = Realization(
        over=MAGMA,
        carrier={"M": M, "M2": M2},
        action={
            "s": FinFunction(M2, M, {p: p[0] for p in M2}),
            "t": FinFunction(M2, M, {p: p[1] for p in M2}),
            "k": FinFunction(M2, M, {p: "0" for p in M2}),
        },
    )
    report = check_realization(R)
    assert not report.ok
    assert {v.code for v in report.violations} == {"cone-comparison-not-surjective"}


def test_check_stops_once_a_cone_is_not_surjective(monkeypatch):
    """The capped MP growth has about 2.3e8 base families over For x For;
    the check stops after |H_IM| + 1 distinct restrictions.  The apex
    tuples it has not enumerated are looked up by separate, seeded joins."""
    capped = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=3)).result
    joined: dict[frozenset, int] = {}  # unseeded families, by plan nodes
    real_join = realization.join

    def counted(plan, candidates, lookups, seed=(), buckets=None):
        for fam in real_join(plan, candidates, lookups, seed, buckets):
            if not seed:
                key = frozenset(plan.nodes)
                joined[key] = joined.get(key, 0) + 1
            yield fam

    monkeypatch.setattr(realization, "join", counted)
    report = check_realization(capped)
    base = frozenset(capped.over.cones["lim_H_IM"].nodes)
    assert joined[base] == len(capped.carrier["H_IM"]) + 1 == 15_130
    assert [(v.code, v.where) for v in report.violations] == [
        ("cone-comparison-not-surjective", "cone lim_H_IM")]


def test_stopped_check_pins_apex_tuples_it_has_not_enumerated():
    # an equalizer of f, g : A -> B whose families are a = 0, 2, 4, 3 in
    # that order; the apex projects to 1 (no family) and to 3 (a family the
    # enumeration stops before, after three restrictions for two tuples)
    sk = Sketch(
        name="eq",
        objects=("A", "B", "P"),
        arrows={"f": ArrowDecl("f", "A", "B"), "g": ArrowDecl("g", "A", "B"),
                "p": ArrowDecl("p", "P", "A")},
        equations=(),
        cones={"e": Cone("e", "P", {"a": "A", "b": "B"},
                         (ConeEdge("a", "b", ("f",)), ConeEdge("a", "b", ("g",))),
                         {"a": "p"})},
        monos=frozenset(),
    )
    A, B, P = finset(["0", "2", "4", "3", "1"]), finset(["x", "y"]), finset(["p1", "p3"])
    R = Realization(sk, {"A": A, "B": B, "P": P}, {
        "f": FinFunction(A, B, {a: "x" for a in A}),
        "g": FinFunction(A, B, {a: "y" if a == "1" else "x" for a in A}),
        "p": FinFunction(P, A, {"p1": "1", "p3": "3"}),
    })
    assert [(v.code, v.message) for v in check_realization(R).violations] == [
        ("cone-comparison-unrealized",
         "apex element 'p1' projects to ('1',), which no base family restricts to"),
        ("cone-comparison-not-surjective",
         "no apex element projects to the family restriction ('0',), the first of "
         "more restrictions than apex tuples; the enumeration stopped there"),
    ]


def test_equation_violation_reported():
    bad = one_formula_theory()
    action = dict(bad.action)
    action["q"] = FinFunction(bad.carrier["H_MP"], bad.carrier["For"], {"ma": "a"})
    # break the theorem equation by rerouting e_MP through a fresh carrier value
    c = dict(bad.carrier)
    c["For"] = finset(["a", "b"])
    action = dict(bad.action)
    action["inc"] = FinFunction(c["Theo"], c["For"], {"ta": "b"})
    action["q"] = FinFunction(c["H_MP"], c["For"], {"ma": "a"})
    action["p1"] = FinFunction(c["H_IM"], c["For"], {"xa": "a"})
    action["p2"] = FinFunction(c["H_IM"], c["For"], {"xa": "a"})
    action["e_IM"] = FinFunction(c["C_IM"], c["For"], {"ca": "a"})
    report = check_realization(Realization(over=MP, carrier=c, action=action))
    assert "equation-violated" in {v.code for v in report.violations}


def test_equation_violation_message_names_both_sides():
    # f;g = h over X -> Y -> Z, broken at x: the composite reaches a, h reaches b
    sk = Sketch(
        name="tri",
        objects=("X", "Y", "Z"),
        arrows={"f": ArrowDecl("f", "X", "Y"), "g": ArrowDecl("g", "Y", "Z"),
                "h": ArrowDecl("h", "X", "Z")},
        equations=(PathEquation(("f", "g"), ("h",)),),
    )
    X, Y, Z = finset(["x"]), finset(["y"]), finset(["a", "b"])
    R = Realization(
        over=sk,
        carrier={"X": X, "Y": Y, "Z": Z},
        action={"f": FinFunction(X, Y, {"x": "y"}), "g": FinFunction(Y, Z, {"y": "a"}),
                "h": FinFunction(X, Z, {"x": "b"})},
    )
    [v] = check_realization(R).violations
    assert (v.code, v.where, v.message) == (
        "equation-violated", "equation#0", "sides disagree at 'x': 'a' != 'b'")


def test_mono_injectivity_checked():
    c = {
        "For": finset(["a"]),
        "Theo": finset(["t1", "t2"]),
    }
    # two theorems over one formula: inc cannot be injective
    full = one_formula_theory()
    carrier = dict(full.carrier)
    carrier["Theo"] = c["Theo"]
    action = dict(full.action)
    action["inc"] = FinFunction(c["Theo"], carrier["For"], {"t1": "a", "t2": "a"})
    action["t1"] = FinFunction(carrier["H_MP"], c["Theo"], {"ma": "t1"})
    action["t2"] = FinFunction(carrier["H_MP"], c["Theo"], {"ma": "t1"})
    action["e_MP"] = FinFunction(carrier["C_MP"], c["Theo"], {"da": "t1"})
    report = check_realization(Realization(over=MP, carrier=carrier, action=action))
    assert "mono-not-injective" in {v.code for v in report.violations}


def test_untyped_realization_reports_each_gap():
    """A missing carrier or action, or an action between the wrong
    carriers, is reported before any equation or cone is read."""
    V = finset(["v"])
    R = Realization(GRAPH, {"V": V}, {"t": FinFunction(V, V, {"v": "v"})})
    assert [(v.code, v.where, v.message)
            for v in check_realization(R).violations] == [
        ("missing-carrier", "E", "no carrier for object 'E'"),
        ("missing-action", "s", "no action for arrow 's'"),
        ("action-type", "t", "action of 't' does not match its carriers"),
    ]


def test_one_formula_theory_is_valid():
    assert check_realization(one_formula_theory()).ok


def test_random_graph_assignments_always_accepted():
    rng = random.Random(7342)
    for _ in range(50):
        vs = [f"v{i}" for i in range(rng.randint(1, 4))]
        es = [f"e{i}" for i in range(rng.randint(0, 5))]
        R = mk_graph(
            vs, es, {e: rng.choice(vs) for e in es}, {e: rng.choice(vs) for e in es}
        )
        assert check_realization(R).ok


def test_magma_realizations_count_tables():
    # accepted realizations on n elements with the canonical pair carrier
    # correspond to multiplication tables: n^(n*n) of them
    for n in (1, 2):
        elems = [str(i) for i in range(n)]
        count = 0
        for values in itertools.product(elems, repeat=n * n):
            keys = [(a, b) for a in elems for b in elems]
            table = dict(zip(keys, values))
            M = finset(elems)
            pairs = [a + b for a, b in keys]
            M2 = finset(pairs)
            R = Realization(
                over=MAGMA,
                carrier={"M": M, "M2": M2},
                action={
                    "s": FinFunction(M2, M, {p: p[0] for p in pairs}),
                    "t": FinFunction(M2, M, {p: p[1] for p in pairs}),
                    "k": FinFunction(M2, M, {a + b: table[(a, b)] for a, b in keys}),
                },
            )
            if check_realization(R).ok:
                count += 1
        assert count == n ** (n * n)


# ---------------------------------------------------------------------------
# check_morphism
# ---------------------------------------------------------------------------


def test_identity_morphism_checks():
    R = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    assert check_morphism(identity_morphism(R)).ok


def test_vertex_collapse_is_natural():
    R1 = mk_graph(["v1", "v2"], ["e"], {"e": "v1"}, {"e": "v2"})
    R2 = mk_graph(["w"], ["d"], {"d": "w"}, {"d": "w"})
    phi = RealMorphism(
        R1,
        R2,
        {
            "V": FinFunction(R1.carrier["V"], R2.carrier["V"], {"v1": "w", "v2": "w"}),
            "E": FinFunction(R1.carrier["E"], R2.carrier["E"], {"e": "d"}),
        },
    )
    assert check_morphism(phi).ok


def test_vertex_swap_breaks_naturality_at_s():
    R = mk_graph(["v1", "v2"], ["l1", "l2"], {"l1": "v1", "l2": "v2"}, {"l1": "v1", "l2": "v2"})
    phi = RealMorphism(
        R,
        R,
        {
            "V": FinFunction(R.carrier["V"], R.carrier["V"], {"v1": "v2", "v2": "v1"}),
            "E": FinFunction(R.carrier["E"], R.carrier["E"], {"l1": "l1", "l2": "l2"}),
        },
    )
    report = check_morphism(phi)
    assert not report.ok
    assert "s" in {v.where for v in report.violations}


def test_morphism_with_a_missing_or_mistyped_component():
    R = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    E = R.carrier["E"]
    phi = RealMorphism(R, R, {"V": FinFunction(E, E, {"e": "e"})})
    assert [(v.code, v.where, v.message)
            for v in check_morphism(phi).violations] == [
        ("missing-component", "E", "no component at 'E'"),
        ("component-type", "V", "component at 'V' has wrong carriers"),
    ]


def test_morphism_across_sketches_is_an_error():
    R1 = mk_graph(["v"], [], {}, {})
    R2 = empty_realization(MAGMA)
    with pytest.raises(ValueError):
        check_morphism(RealMorphism(R1, R2, {}))


# ---------------------------------------------------------------------------
# restrict_along
# ---------------------------------------------------------------------------


def test_restrict_along_identity():
    from oracle_surface import identity_morphism as sketch_identity

    R = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    assert restrict_along(sketch_identity(GRAPH), R) == R


def test_restrict_magma_to_multiplication_graph():
    sigma = SketchMorphism(
        src=GRAPH,
        tgt=MAGMA,
        object_map={"V": "M", "E": "M2"},
        arrow_map={"s": ("s",), "t": ("t",)},
    )
    R = restrict_along(sigma, mk_magma(AND_TABLE))
    assert R.over == GRAPH
    assert len(R.carrier["V"]) == 2 and len(R.carrier["E"]) == 4
    assert R.action["s"]("01") == "0" and R.action["t"]("01") == "1"
    assert check_realization(R).ok


def test_restrict_theory_along_localiser_gives_bijective_legs():
    _, loc = break_cycles(MP)
    T = one_formula_theory()
    S = restrict_along(loc.underlying, T)
    assert check_realization(S).ok
    assert is_bijection(S.action["h_c_IM"])
    assert is_bijection(S.action["h_c_MP"])
    # the partial arrows act exactly like the unbroken ones
    assert S.action["c_IM"].mapping == T.action["c_IM"].mapping
    assert S.carrier["H_IM_part_c_IM"] == T.carrier["H_IM"]


def test_restrict_along_needs_a_model_of_the_target():
    sigma = SketchMorphism(GRAPH, MAGMA, {"V": "M", "E": "M2"},
                           {"s": ("s",), "t": ("t",)})
    with pytest.raises(ValueError, match="realization is not over the "
                       "morphism's target sketch"):
        restrict_along(sigma, mk_graph(["v"], [], {}, {}))


def test_restrict_invalid_morphism_errors():
    sigma = SketchMorphism(
        src=GRAPH,
        tgt=MAGMA,
        object_map={"V": "M", "E": "M"},
        arrow_map={"s": ("s",), "t": ("t",)},
    )
    with pytest.raises(ValueError, match="invalid sketch morphism"):
        restrict_along(sigma, mk_magma(AND_TABLE))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_empty_realization_has_one_morphism():
    R1 = empty_realization(GRAPH)
    R2 = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    assert len(enumerate_morphisms(R1, R2)) == 1


def test_loop_to_itself_single_morphism():
    R = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    ms = enumerate_morphisms(R, R)
    assert len(ms) == 1
    assert ms[0].components == identity_morphism(R).components


def test_discrete_two_vertices_to_loop():
    R1 = mk_graph(["a", "b"], [], {}, {})
    R2 = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    assert len(enumerate_morphisms(R1, R2)) == 1


def test_enumeration_contains_identity():
    rng = random.Random(515)
    for _ in range(10):
        vs = [f"v{i}" for i in range(rng.randint(1, 3))]
        es = [f"e{i}" for i in range(rng.randint(0, 3))]
        R = mk_graph(vs, es, {e: rng.choice(vs) for e in es}, {e: rng.choice(vs) for e in es})
        assert any(
            phi.components == identity_morphism(R).components
            for phi in enumerate_morphisms(R, R)
        )


def test_enumeration_over_broken_sketch_derives_apexes():
    _, loc = break_cycles(MP)
    S = restrict_along(loc.underlying, one_formula_theory())
    ms = enumerate_morphisms(S, S)
    assert any(phi.components == identity_morphism(S).components for phi in ms)
    assert len(ms) == 1


def test_enumeration_into_a_non_model_enumerates_the_apex():
    # The target's two M2 elements share the projection tuple (x, x), so
    # its prod cone cannot pin the M2 component: both choices are found.
    M, M2 = finset(["a"]), finset(["aa"])
    R1 = Realization(MAGMA, {"M": M, "M2": M2},
                     {a: FinFunction(M2, M, {"aa": "a"}) for a in "kst"})
    T, T2 = finset(["x"]), finset(["p", "q"])
    R2 = Realization(MAGMA, {"M": T, "M2": T2},
                     {a: FinFunction(T2, T, {"p": "x", "q": "x"})
                      for a in "kst"})
    ms = enumerate_morphisms(R1, R2)
    assert [phi.components["M2"].mapping for phi in ms] == \
        [{"aa": "p"}, {"aa": "q"}]
    assert all(check_morphism(phi).ok for phi in ms)


def test_guard_rejects_large_spaces():
    R1 = mk_graph([f"v{i}" for i in range(8)], [], {}, {})
    R2 = mk_graph([f"w{i}" for i in range(6)], [], {}, {})
    with pytest.raises(ValueError, match="search space"):
        enumerate_morphisms(R1, R2)


def test_is_isomorphic_finds_renaming():
    R1 = mk_graph(["a", "b"], ["e"], {"e": "a"}, {"e": "b"})
    R2 = mk_graph(["x", "y"], ["d"], {"d": "x"}, {"d": "y"})
    phi = is_isomorphic(R1, R2)
    assert phi is not None
    assert phi.components["V"].mapping == {"a": "x", "b": "y"}
    assert is_isomorphic(R1, mk_graph(["x"], [], {}, {})) is None


def test_compose_morphisms_pointwise():
    R1 = mk_graph(["a"], [], {}, {})
    R2 = mk_graph(["b1", "b2"], [], {}, {})
    f = RealMorphism(R1, R2, {
        "V": FinFunction(R1.carrier["V"], R2.carrier["V"], {"a": "b2"}),
        "E": FinFunction(FinSet(()), FinSet(()), {}),
    })
    g = identity_morphism(R2)
    assert compose_morphisms(f, g).components["V"]("a") == "b2"


# ---------------------------------------------------------------------------
# extend_morphism
# ---------------------------------------------------------------------------


def test_extend_from_edge_seed():
    R1 = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    R2 = mk_graph(["w"], ["d1", "d2"], {"d1": "w", "d2": "w"}, {"d1": "w", "d2": "w"})
    phi = extend_morphism(R1, R2, {"E": {"e": "d2"}})
    assert phi is not None
    assert phi.components["E"]("e") == "d2" and phi.components["V"]("v") == "w"


def test_extend_detects_conflict():
    R1 = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    R2 = mk_graph(["w1", "w2"], ["d"], {"d": "w1"}, {"d": "w2"})
    assert extend_morphism(R1, R2, {"E": {"e": "d"}}) is None


def test_extend_refuses_a_seed_outside_the_carriers():
    R1 = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    R2 = mk_graph(["w"], ["d"], {"d": "w"}, {"d": "w"})
    with pytest.raises(ValueError,
                       match="seed 'x' -> 'd' not in the 'E' carriers"):
        extend_morphism(R1, R2, {"E": {"x": "d"}})


def test_extend_refuses_a_seed_at_an_unknown_object():
    R = mk_graph(["v"], ["e"], {"e": "v"}, {"e": "v"})
    with pytest.raises(ValueError,
                       match="seed 'v' -> 'v' not in the 'Nope' carriers"):
        extend_morphism(R, R, {"Nope": {"v": "v"}})


def test_morphism_search_needs_one_sketch():
    R1, R2 = mk_graph(["v"], [], {}, {}), empty_realization(MAGMA)
    for search in (enumerate_morphisms,
                   lambda src, tgt: extend_morphism(src, tgt, {})):
        with pytest.raises(ValueError,
                           match="realizations are over different sketches"):
            search(R1, R2)


def test_extend_underdetermined_returns_none():
    R1 = mk_graph(["v1", "v2"], [], {}, {})
    R2 = mk_graph(["w"], [], {}, {})
    assert extend_morphism(R1, R2, {"V": {"v1": "w"}}) is None


def test_extend_uses_mono_preimages():
    T = one_formula_theory()
    phi = extend_morphism(T, T, {"For": {"a": "a"}})
    assert phi is not None
    assert phi.components["Theo"]("ta") == "ta"
    assert phi.components["H_MP"]("ma") == "ma"


def test_cone_without_projections_sends_its_apex_to_the_terminal():
    one, a = representable(TERMINAL, "One").spec, representable(TERMINAL, "A").spec
    assert len(enumerate_morphisms(one, a)) == 1
    assert extend_morphism(one, one, {}) == identity_morphism(one)


def two_cones_pair() -> tuple[Realization, Realization]:
    """A model of TWO_CONES and a non-model target whose u and v share
    q's value b0 but differ under p."""
    P, A, B = finset(["x"]), finset(["ax"]), finset(["bx"])
    src = Realization(TWO_CONES, {"P": P, "A": A, "B": B}, {
        "p": FinFunction(P, A, {"x": "ax"}), "q": FinFunction(P, B, {"x": "bx"})})
    P, A, B = finset(["u", "v"]), finset(["a0", "a1"]), finset(["b0"])
    tgt = Realization(TWO_CONES, {"P": P, "A": A, "B": B}, {
        "p": FinFunction(P, A, {"u": "a0", "v": "a1"}),
        "q": FinFunction(P, B, {"u": "b0", "v": "b0"})})
    return src, tgt


def test_enumeration_keeps_a_lift_through_either_cone():
    src, tgt = two_cones_pair()
    assert check_realization(src).ok and not check_realization(tgt).ok
    found = enumerate_morphisms(src, tgt)
    assert sorted(phi("P", "x") for phi in found) == ["u", "v"]
    assert all(check_morphism(phi).ok for phi in found)


def test_extend_leaves_an_ambiguous_lift_unforced():
    """Both u and v lie over b0, so the seed forces neither."""
    src, tgt = two_cones_pair()
    assert extend_morphism(src, tgt, {"B": {"bx": "b0"}}) is None
