"""Saturation, rule matching, and fraction composition."""

import time
from importlib import resources

import pytest

from limsketch import dsl, engine
from limsketch.engine import (
    ChaseConfig,
    ChaseDiverged,
    Fraction,
    apply_rule,
    check_fraction,
    compose_fractions,
    induced_isomorphism,
    is_theory,
    match_rule,
    rules_of,
    saturate,
    trace_doc,
    trace_lines,
)
from limsketch.finset import FinFunction
from limsketch.localizer import as_localiser, break_cycles
from limsketch.realization import (
    RealMorphism,
    Realization,
    check_morphism,
    check_realization,
    identity_morphism,
    is_isomorphic,
)
from limsketch.sketch import builtin_sketches
import oracle_chase
from oracle_surface import finset, identity_fraction

GRAPH = builtin_sketches()["graph"]
MP = builtin_sketches()["mp_theory"]
SP, LOC = break_cycles(MP)
RULES = rules_of(LOC)
IM_RULE = next(r for r in RULES if r.id == "c_IM")
MP_RULE = next(r for r in RULES if r.id == "c_MP")

FORMS = ("p", "q", "ipq")


def mk(sk, carrier, action):
    cs = {ob: finset(carrier.get(ob, ())) for ob in sk.objects}
    acts = {
        aid: FinFunction(cs[d.src], cs[d.tgt], dict(action.get(aid, {})))
        for aid, d in sk.arrows.items()
    }
    return Realization(sk, cs, acts)


def mp_basic():
    """Formulas p, q, p=>q; theorems p and p=>q; implication recorded."""
    return mk(SP, {
        "For": FORMS,
        "Theo": ("tp", "tipq"),
        "H_IM": tuple(f"{a}_{b}" for a in FORMS for b in FORMS),
        "C_IM": ("c_p", "c_q", "c_ipq"),
        "H_IM_part_c_IM": ("w0",),
        "H_MP": ("m0",),
        "C_MP": ("d_tp", "d_tipq"),
    }, {
        "inc": {"tp": "p", "tipq": "ipq"},
        "p1": {f"{a}_{b}": a for a in FORMS for b in FORMS},
        "p2": {f"{a}_{b}": b for a in FORMS for b in FORMS},
        "c_IM": {"w0": "c_ipq"},
        "e_IM": {"c_p": "p", "c_q": "q", "c_ipq": "ipq"},
        "h_c_IM": {"w0": "p_q"},
        "t1": {"m0": "tp"},
        "q": {"m0": "q"},
        "t2": {"m0": "tipq"},
        "e_MP": {"d_tp": "tp", "d_tipq": "tipq"},
    })


def chain_spec():
    """Two chained implications a=>b and b=>c, with a, a=>b, b=>c provable."""
    forms = ("a", "b", "c", "iab", "ibc")
    return mk(SP, {
        "For": forms,
        "Theo": ("ta", "tiab", "tibc"),
        "H_IM": tuple(f"{x}_{y}" for x in forms for y in forms),
        "C_IM": tuple("c_" + f for f in forms),
        "H_IM_part_c_IM": ("wab", "wbc"),
        "H_MP": ("m1",),
        "C_MP": ("d_ta", "d_tiab", "d_tibc"),
    }, {
        "inc": {"ta": "a", "tiab": "iab", "tibc": "ibc"},
        "p1": {f"{x}_{y}": x for x in forms for y in forms},
        "p2": {f"{x}_{y}": y for x in forms for y in forms},
        "c_IM": {"wab": "c_iab", "wbc": "c_ibc"},
        "e_IM": {"c_" + f: f for f in forms},
        "h_c_IM": {"wab": "a_b", "wbc": "b_c"},
        "t1": {"m1": "ta"},
        "q": {"m1": "b"},
        "t2": {"m1": "tiab"},
        "e_MP": {"d_ta": "ta", "d_tiab": "tiab", "d_tibc": "tibc"},
    })


def theorem_formulas(spec):
    return {spec.action["inc"].mapping[t] for t in spec.carrier["Theo"].elements}


def sizes(spec):
    return {ob: len(spec.carrier[ob].elements) for ob in spec.over.objects
            if spec.carrier[ob].elements}


def test_fixtures_are_valid():
    assert check_realization(mp_basic()).ok
    assert check_realization(chain_spec()).ok


def test_rules_shape_and_profiles():
    assert [r.id for r in RULES] == ["c_IM", "c_MP"]
    assert (IM_RULE.apex, IM_RULE.fresh) == ("H_IM", "H_IM_part_c_IM")
    assert (IM_RULE.h_arrow, IM_RULE.c_arrow) == ("h_c_IM", "c_IM")
    assert (MP_RULE.apex, MP_RULE.fresh) == ("H_MP", "H_MP_part_c_MP")
    assert sizes(IM_RULE.hypothesis) == {"For": 2, "H_IM": 4, "C_IM": 2}
    assert sizes(IM_RULE.glue) == {
        "For": 3, "H_IM": 9, "C_IM": 3, "H_IM_part_c_IM": 1}
    assert sizes(IM_RULE.conclusion) == {"For": 1, "H_IM": 1, "C_IM": 1}
    assert sizes(MP_RULE.hypothesis) == {
        "For": 3, "Theo": 2, "H_IM": 9, "C_IM": 3, "C_MP": 2,
        "H_MP": 1, "H_IM_part_c_IM": 1}
    assert sizes(MP_RULE.glue) == {
        "For": 3, "Theo": 3, "H_IM": 9, "C_IM": 3, "C_MP": 3,
        "H_MP": 1, "H_IM_part_c_IM": 1, "H_MP_part_c_MP": 1}
    assert sizes(MP_RULE.conclusion) == {
        "For": 1, "Theo": 1, "H_IM": 1, "C_IM": 1, "C_MP": 1}


def test_rules_of_chases_each_glue_representable_once():
    # both legs of a rule's span land in the one glue it holds
    for rule in RULES:
        assert rule.glue is rule.hyp_to_glue.tgt is rule.concl_to_glue.tgt


def test_rule_inclusions_are_morphisms():
    for rule in RULES:
        assert check_morphism(rule.hyp_to_glue).ok
        assert check_morphism(rule.concl_to_glue).ok
        gen_image = rule.hyp_to_glue.components[rule.apex](rule.generator)
        assert gen_image == rule.glue.action[rule.h_arrow](
            rule.glue.carrier[rule.fresh].elements[0])


def test_match_rule_on_mp_basic():
    basic = mp_basic()
    im = match_rule(IM_RULE, basic)
    assert [m.element for m in im] == list(basic.carrier["H_IM"].elements)
    assert {m.element for m in im if m.satisfied} == {"p_q"}
    mp = match_rule(MP_RULE, basic)
    assert [(m.element, m.satisfied) for m in mp] == [("m0", False)]
    phi = mp[0].morphism
    assert check_morphism(phi).ok
    assert phi.components["H_MP"](MP_RULE.generator) == "m0"
    # the classifying morphism reads the match data off the spec
    assert set(phi.components["Theo"].mapping.values()) == {"tp", "tipq"}


def test_saturate_modus_ponens_to_fixpoint():
    basic = mp_basic()
    start = time.monotonic()
    res = saturate(basic, [MP_RULE])
    elapsed = time.monotonic() - start
    assert res.status == "fixpoint"
    assert res.rounds == 1
    assert elapsed < 1.0
    assert res.result.carrier["For"].elements == FORMS
    assert theorem_formulas(res.result) == {"p", "q", "ipq"}
    assert len(res.result.carrier["Theo"].elements) == 3
    assert is_theory(res.result, [MP_RULE])
    assert not is_theory(basic, [MP_RULE])
    # input names survive saturation untouched
    for ob in SP.objects:
        comp = res.embedding.components[ob]
        assert all(comp(x) == x for x in basic.carrier[ob].elements)


def test_saturate_trace_of_mp_step():
    res = saturate(mp_basic(), [MP_RULE])
    doc = trace_doc(res)
    assert doc["status"] == "fixpoint"
    assert [r["round"] for r in doc["rounds"]] == [0, 1]
    assert doc["rounds"][0]["fired"] == []
    assert doc["rounds"][1]["fired"] == [{"rule": "c_MP", "match": "m0"}]
    added = doc["rounds"][1]["added"]
    assert len(added["Theo"]) == 1 and len(added["C_MP"]) == 1
    assert len(added["H_MP_part_c_MP"]) == 1
    assert doc["rounds"][1]["identified"] == []
    lines = trace_lines(res)
    assert lines[0] == "round 0"
    assert "  fire c_MP m0" in lines
    assert lines[-1] == "status fixpoint rounds 1"


def test_saturate_capped_growth():
    basic = mp_basic()
    res = saturate(basic, RULES, ChaseConfig(max_rounds=3))
    assert res.status == "capped"
    assert res.rounds == 3
    counts = [3]
    for r in res.trace.rounds:
        delta = len(r.added.get("For", ()))
        delta -= sum(1 for ob, _, _ in r.identified if ob == "For")
        counts.append(counts[-1] + delta)
    # round 0 repairs nothing, then each round only grows the formula set
    assert counts == [3, 3, 11, 123, 15131]
    assert len(res.result.carrier["For"].elements) == 15131
    assert len(res.result.carrier["Theo"].elements) == 3
    assert all(b > a for a, b in zip(counts[1:], counts[2:]))


def test_saturate_zero_rounds_only_repairs():
    res = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=0))
    assert (res.status, res.rounds) == ("capped", 0)
    assert [r.round for r in res.trace.rounds] == [0]
    assert len(res.result.carrier["For"].elements) == 3
    assert res.result == mp_basic()


def test_cone_family_budget_stops_the_chase(monkeypatch):
    # Ten formulas make 20 elements (with their C_IM images) before the
    # For x For cone meets 100 families, past a budget of 50.
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 50)
    elems = " ".join(f"elem f{i} : For" for i in range(10))
    [spec] = dsl.parse(f"spec s over mp_sp {{ {elems} }}", {"mp_sp": SP})
    with pytest.raises(ChaseDiverged,
                       match="^cone family enumeration exceeded the chase budget$"):
        saturate(spec.realization, RULES)


def test_saturate_chained_modus_ponens():
    res = saturate(chain_spec(), [MP_RULE])
    assert res.status == "fixpoint"
    assert res.rounds == 2
    assert theorem_formulas(res.result) == {"a", "b", "c", "iab", "ibc"}
    # the second match only exists after the first firing is repaired in
    assert len(res.result.carrier["H_MP"].elements) == 2


def test_saturate_on_theory_is_identity():
    theory = saturate(mp_basic(), [MP_RULE]).result
    res = saturate(theory, [MP_RULE])
    assert res.rounds == 0
    assert res.status == "fixpoint"
    assert res.result == theory


def test_rule_subset_config():
    full = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=2))
    only_mp = saturate(mp_basic(), RULES,
                       ChaseConfig(rule_subset=("c_MP",)))
    direct = saturate(mp_basic(), [MP_RULE])
    assert trace_lines(only_mp) == trace_lines(direct)
    assert full.status == "capped" and only_mp.status == "fixpoint"


def test_rule_subset_rejects_unknown_ids():
    """A misspelt id must not read as a finished theory."""
    with pytest.raises(ValueError, match="MPP, zz"):
        saturate(mp_basic(), RULES,
                 ChaseConfig(rule_subset=("c_MPP", "zz", "c_MP")))
    with pytest.raises(ValueError, match="c_IM"):
        saturate(mp_basic(), [MP_RULE], ChaseConfig(rule_subset=("c_IM",)))


def test_apply_rule_matches_engine_firing():
    basic = mp_basic()
    match = match_rule(MP_RULE, basic)[0]
    frac = apply_rule(basic, MP_RULE, match)
    assert frac.certificate == "by-construction"
    assert frac.src is basic and frac.mid is frac.tgt
    assert sizes(frac.tgt) == {
        "For": 3, "Theo": 3, "H_IM": 9, "C_IM": 3, "H_MP": 1,
        "C_MP": 3, "H_IM_part_c_IM": 1, "H_MP_part_c_MP": 1}
    engine_side = saturate(basic, [MP_RULE]).result
    assert is_isomorphic(frac.tgt, engine_side) is not None
    assert match_rule(MP_RULE, frac.tgt)[0].satisfied
    assert check_morphism(frac.h).ok


def test_apply_rule_invents_the_implication_formula():
    basic = mp_basic()
    match = next(m for m in match_rule(IM_RULE, basic) if m.element == "p_p")
    frac = apply_rule(basic, IM_RULE, match)
    got = sizes(frac.tgt)
    assert got["For"] == 4
    assert got["H_IM"] == 16
    assert got["C_IM"] == 4
    assert got["H_IM_part_c_IM"] == 2
    assert got["Theo"] == 2
    assert check_realization(frac.tgt).ok
    # the new formula is the freshly recorded implication, not a theorem
    assert theorem_formulas(frac.tgt) == {"p", "ipq"}


def test_apply_rule_rejects_redundant_step():
    basic = mp_basic()
    match = next(m for m in match_rule(IM_RULE, basic) if m.satisfied)
    with pytest.raises(ValueError, match="redundant step"):
        apply_rule(basic, IM_RULE, match)


def test_fraction_check_and_identity_compose():
    basic = mp_basic()
    frac = apply_rule(basic, MP_RULE, match_rule(MP_RULE, basic)[0])
    check_fraction(frac, [MP_RULE])
    comp = compose_fractions(frac, identity_fraction(frac.tgt))
    assert comp.certificate == "by-construction"
    assert comp.src is basic
    assert is_isomorphic(comp.mid, frac.tgt) is not None


def test_two_step_proof_composes():
    spec = chain_spec()
    step1 = apply_rule(spec, MP_RULE, match_rule(MP_RULE, spec)[0])
    second = next(m for m in match_rule(MP_RULE, step1.tgt) if not m.satisfied)
    step2 = apply_rule(step1.tgt, MP_RULE, second)
    proof = compose_fractions(step1, step2)
    assert proof.src is spec and proof.tgt is step2.tgt
    assert theorem_formulas(proof.mid) == {"a", "b", "c", "iab", "ibc"}
    check_fraction(proof, [MP_RULE])


def inclusion(src, tgt, **renames):
    """A hand-built RealMorphism sending each element to itself or to its
    entry in ``renames``."""
    return RealMorphism(src, tgt, {
        ob: FinFunction(src.carrier[ob], tgt.carrier[ob],
                        {x: renames.get(x, x) for x in src.carrier[ob]})
        for ob in src.over.objects})


def test_fraction_check_is_inconclusive_when_capped():
    with pytest.raises(RuntimeError, match="inconclusive"):
        check_fraction(identity_fraction(mp_basic()), RULES,
                       ChaseConfig(max_rounds=1))


def test_fraction_check_rejects_an_underivable_theorem():
    # only p is a theorem at the source; the middle also asserts p=>q
    src = mk(SP, {"For": FORMS, "Theo": ("tp",),
                  "H_IM": tuple(f"{a}_{b}" for a in FORMS for b in FORMS),
                  "C_IM": ("c_p", "c_q", "c_ipq"),
                  "H_IM_part_c_IM": ("w0",), "C_MP": ("d_tp",)}, {
        "inc": {"tp": "p"},
        "p1": {f"{a}_{b}": a for a in FORMS for b in FORMS},
        "p2": {f"{a}_{b}": b for a in FORMS for b in FORMS},
        "c_IM": {"w0": "c_ipq"},
        "e_IM": {"c_p": "p", "c_q": "q", "c_ipq": "ipq"},
        "h_c_IM": {"w0": "p_q"},
        "e_MP": {"d_tp": "tp"},
    })
    assert check_realization(src).ok
    mid = mp_basic()
    frac = Fraction(src, mid, mid, inclusion(src, mid),
                    identity_morphism(mid), "checked")
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        check_fraction(frac, [MP_RULE])


def test_fraction_check_rejects_a_leg_that_is_not_natural():
    basic = mp_basic()
    swap = inclusion(basic, basic, p="q", q="p")
    frac = Fraction(basic, basic, basic, swap, identity_morphism(basic),
                    "checked")
    with pytest.raises(RuntimeError, match="no induced map"):
        check_fraction(frac, [MP_RULE])


def test_compose_rejects_mismatched_ends():
    basic = mp_basic()
    frac = apply_rule(basic, MP_RULE, match_rule(MP_RULE, basic)[0])
    with pytest.raises(ValueError, match="do not meet"):
        compose_fractions(frac, identity_fraction(basic))


def test_saturation_is_deterministic():
    a = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=2))
    b = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=2))
    assert trace_lines(a) == trace_lines(b)
    assert trace_doc(a) == trace_doc(b)
    assert a.result == b.result


def test_rule_order_changes_trace_not_result():
    a = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=2))
    c = saturate(mp_basic(), list(reversed(RULES)),
                 ChaseConfig(max_rounds=2))
    assert trace_lines(a) != trace_lines(c)
    assert induced_isomorphism(a, c) is not None
    assert induced_isomorphism(c, a) is not None


def renamed(spec, names):
    """``spec`` with the elements named in ``names`` renamed, order kept."""
    r = lambda x: names.get(x, x)  # noqa: E731
    return mk(spec.over,
              {ob: tuple(map(r, spec.carrier[ob])) for ob in spec.over.objects},
              {aid: {r(x): r(y) for x, y in fn.mapping.items()}
               for aid, fn in spec.action.items()})


def test_apply_rule_fresh_names_skip_clashes():
    # the step names H_MP_part_c_MP#0, then tries C_MP#1 and Theo#3, which
    # the spec already holds, and takes the next free counter values
    spec = renamed(mp_basic(), {"tp": "Theo#1", "tipq": "Theo#3",
                                "p": "For#3", "q": "For#12",
                                "d_tp": "C_MP#1"})
    frac = apply_rule(spec, MP_RULE, match_rule(MP_RULE, spec)[0])
    assert {ob: frac.tgt.carrier[ob].elements for ob in SP.objects} == {
        "For": ("For#3", "For#12", "ipq"),
        "Theo": ("Theo#1", "Theo#3", "Theo#4"),
        "H_IM": tuple(f"{a}_{b}" for a in FORMS for b in FORMS),
        "C_IM": ("c_p", "c_q", "c_ipq"),
        "H_MP": ("m0",),
        "C_MP": ("C_MP#1", "d_tipq", "C_MP#2"),
        "H_IM_part_c_IM": ("w0",),
        "H_MP_part_c_MP": ("H_MP_part_c_MP#0",),
    }
    assert all(frac.h(ob, x) == x
               for ob in SP.objects for x in spec.carrier[ob])
    assert check_realization(frac.tgt).ok


def test_corpus_proof_composite_carriers():
    # the proof script "step MP m0", "step IM p_p" on the corpus mp_basic
    corpus = resources.files("limsketch") / "corpus" / "mp.sk"
    decls = {d.name: d for d in dsl.parse_path(corpus)}
    spec = decls["mp_basic"].realization
    rules = {r.id: r for r in rules_of(as_localiser(decls["mp_sigma"].morphism))}
    fracs = []
    current = spec
    for rid, elem in (("c_MP", "m0"), ("c_IM", "p_p")):
        match = next(m for m in match_rule(rules[rid], current)
                     if m.element == elem)
        fracs.append(apply_rule(current, rules[rid], match))
        current = fracs[-1].tgt
    proof = compose_fractions(*fracs)
    forms = ("p", "q", "ipq")
    assert {ob: proof.mid.carrier[ob].elements for ob in spec.over.objects} == {
        "C_IM": ("c_p", "c_q", "c_ipq", "C_IM#1"),
        "C_MP": ("d_tp", "d_tipq", "C_MP#1"),
        "For": ("p", "q", "ipq", "For#2"),
        "H_IM": tuple(f"{a}_{b}" for a in forms for b in forms) + tuple(
            f"H_IM#{i}" for i in range(3, 10)),
        "H_IM_part_c_IM": ("w0", "H_IM_part_c_IM#0"),
        "H_MP": ("m0",),
        "H_MP_part_c_MP": ("H_MP_part_c_MP#0",),
        "Theo": ("tp", "tipq", "Theo#2"),
    }
    assert proof.mid == current


def test_apply_rule_adds_what_saturate_adds_in_round_one():
    corpus = resources.files("limsketch") / "corpus" / "mp.sk"
    decls = {d.name: d for d in dsl.parse_path(corpus)}
    spec = decls["mp_basic"].realization
    rule = next(r for r in rules_of(as_localiser(decls["mp_sigma"].morphism))
                if r.id == "c_MP")
    frac = apply_rule(spec, rule, next(m for m in match_rule(rule, spec)
                                       if m.element == "m0"))
    added = {ob: tuple(x for x in frac.tgt.carrier[ob]
                       if x not in spec.carrier[ob])
             for ob in spec.over.objects}
    res = saturate(spec, [rule], ChaseConfig(max_rounds=1))
    assert res.trace.rounds[1].fired == (("c_MP", "m0"),)
    assert {ob: xs for ob, xs in added.items() if xs} == \
        res.trace.rounds[1].added == {"C_MP": ("C_MP#1",),
                                      "H_MP_part_c_MP": ("H_MP_part_c_MP#0",),
                                      "Theo": ("Theo#2",)}


def test_compose_primes_a_name_freed_by_a_non_injective_leg():
    # h sends a and b to q, so S's b is glued into a; Q's own b stays apart
    # and is primed, because the chase keeps the name b registered
    s = mk(GRAPH, {"V": ("a", "b")}, {})
    q = mk(GRAPH, {"V": ("q", "b")}, {})
    h = inclusion(s, q, a="q", b="q")
    proof = compose_fractions(
        identity_fraction(s),
        Fraction(s, q, q, h, identity_morphism(q), "by-construction"))
    assert proof.mid.carrier["V"].elements == ("a", "b'")
    assert proof.h.components["V"].mapping == {"a": "a", "b": "a"}
    assert proof.c.components["V"].mapping == {"q": "a", "b": "b'"}


# Names For#0, For#2 and For#3 are taken, so fresh For elements must skip
# them; the counter is shared by every object.
TAKEN = {"For": ("For#0", "p", "For#2", "For#3"), "Theo": ("t",)}
FREE = ["For#1", "For#4", "For#5", "For#6", "For#7", "For#8"]


def seeded(chase_cls):
    """A chase seeded with TAKEN, after one fresh Theo element."""
    st = chase_cls(SP, TAKEN, {})
    assert st.fresh("Theo") == "Theo#0"
    return st


def creation_state(st):
    """What creating elements changes, with every object's union-find: the
    engine builds one at its first read, the oracle seeds them all."""
    uf = st._uf if isinstance(st, engine._Chase) else st.uf.__getitem__
    return (st.fresh_counter, st.created,
            {ob: list(names) for ob, names in st.round_added.items()},
            {ob: dict(uf(ob).birth) for ob in st.sk.objects})


TWINS = pytest.mark.parametrize(
    "twin", [engine._Chase, oracle_chase._Chase], ids=["engine", "oracle"])


@TWINS
@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_fresh_many_is_k_fresh_calls(twin, k):
    st, one_at_a_time = seeded(engine._Chase), seeded(twin)
    got = st.fresh_many("For", k)
    assert got == [one_at_a_time.fresh("For") for _ in range(k)] == FREE[:k]
    assert creation_state(st) == creation_state(one_at_a_time)
    # No seeded name collides with Theo#1 onwards.
    st, one_at_a_time = seeded(engine._Chase), seeded(twin)
    got = st.fresh_many("Theo", k)
    assert got == [one_at_a_time.fresh("Theo") for _ in range(k)] == [
        f"Theo#{i}" for i in range(1, k + 1)]
    assert creation_state(st) == creation_state(one_at_a_time)


def test_fresh_many_of_zero_changes_nothing():
    st = seeded(engine._Chase)
    before = creation_state(st), st.clock, dict(st.ob_stamp)
    assert st.fresh_many("For", 0) == []
    assert (creation_state(st), st.clock, dict(st.ob_stamp)) == before


@TWINS
@pytest.mark.parametrize("room", [0, 1, 4])
def test_fresh_many_stops_at_the_budget_where_fresh_calls_do(
        monkeypatch, twin, room):
    # 5 seeded elements and one Theo element leave ``room`` under the budget
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 6 + room)
    monkeypatch.setattr(oracle_chase, "_MAX_ELEMENTS", 6 + room)
    st, one_at_a_time = seeded(engine._Chase), seeded(twin)
    with pytest.raises(ChaseDiverged, match="element budget"):
        st.fresh_many("For", room + 2)
    with pytest.raises(ChaseDiverged, match="element budget"):
        for _ in range(room + 2):
            one_at_a_time.fresh("For")
    assert st.created == one_at_a_time.created == 6 + room
    assert st.uf["For"].birth == one_at_a_time.uf["For"].birth
    assert list(st.uf["For"].birth)[4:] == FREE[:room]
