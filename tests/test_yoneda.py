"""Representables and the desk-scale embedding checks."""

import random
from importlib import resources

import pytest

from limsketch import dsl, engine
from limsketch.engine import rules_of
from limsketch.finset import FinFunction
from limsketch.localizer import break_cycles
from limsketch.realization import (
    Realization,
    check_morphism,
    check_realization,
    is_isomorphic,
)
from limsketch.sketch import (
    ArrowDecl,
    Cone,
    PathEquation,
    Sketch,
    builtin_sketches,
    validate_sketch,
)
from limsketch.yoneda import (
    density_check,
    faithfulness_check,
    representable,
    yoneda_arrow,
)

from helpers import compose_morphisms
from oracle_surface import finset

MP = builtin_sketches()["mp_theory"]
GRAPH = builtin_sketches()["graph"]
SP, _LOC = break_cycles(MP)


def profile(rep):
    return {ob: len(rep.spec.carrier[ob].elements)
            for ob in rep.spec.over.objects if rep.spec.carrier[ob].elements}


def test_formula_and_theorem_representables():
    y_for = representable(SP, "For")
    assert profile(y_for) == {"For": 1, "H_IM": 1, "C_IM": 1}
    assert len(y_for.spec.carrier["Theo"]) == 0
    y_theo = representable(SP, "Theo")
    assert profile(y_theo) == {
        "For": 1, "Theo": 1, "H_IM": 1, "C_IM": 1, "C_MP": 1}
    # the theorem's single formula is its image under the inclusion
    t = y_theo.generator
    assert y_theo.spec.action["inc"](t) == \
        y_theo.spec.carrier["For"].elements[0]


def test_all_representables_over_broken_sketch():
    expected = {
        "For": {"For": 1, "H_IM": 1, "C_IM": 1},
        "Theo": {"For": 1, "Theo": 1, "H_IM": 1, "C_IM": 1, "C_MP": 1},
        "H_IM": {"For": 2, "H_IM": 4, "C_IM": 2},
        "C_IM": {"For": 1, "H_IM": 1, "C_IM": 1},
        "H_MP": {"For": 3, "Theo": 2, "H_IM": 9, "C_IM": 3, "H_MP": 1,
                 "C_MP": 2, "H_IM_part_c_IM": 1},
        "C_MP": {"For": 1, "Theo": 1, "H_IM": 1, "C_IM": 1, "C_MP": 1},
        "H_IM_part_c_IM": {"For": 3, "H_IM": 9, "C_IM": 3,
                           "H_IM_part_c_IM": 1},
        "H_MP_part_c_MP": {"For": 3, "Theo": 3, "H_IM": 9, "C_IM": 3,
                           "H_MP": 1, "C_MP": 3, "H_IM_part_c_IM": 1,
                           "H_MP_part_c_MP": 1},
    }
    for ob, want in expected.items():
        rep = representable(SP, ob)
        assert profile(rep) == want, ob
        assert rep.at == ob
        assert rep.generator in rep.spec.carrier[ob].elements
        assert check_realization(rep.spec).ok, ob


def test_graph_representables():
    y_v = representable(GRAPH, "V")
    assert profile(y_v) == {"V": 1}
    y_e = representable(GRAPH, "E")
    assert profile(y_e) == {"E": 1, "V": 2}


def test_representable_unknown_object():
    with pytest.raises(ValueError, match="unknown object"):
        representable(GRAPH, "W")


def test_representable_diverges_on_unbroken_sketch():
    # the unbroken rule arrows keep generating new formulas forever
    with pytest.raises(RuntimeError, match="not finitely closed"):
        representable(MP, "Theo")


def test_representable_diverges_within_a_small_budget(monkeypatch):
    # the same divergence, stopped by a budget a hundredth of the default
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 2000)
    with pytest.raises(RuntimeError, match="not finitely closed") as info:
        representable(MP, "Theo")
    assert isinstance(info.value.__cause__, engine.ChaseDiverged)
    assert "budget" in str(info.value.__cause__)


def test_yoneda_arrow_unknown_arrow():
    with pytest.raises(ValueError, match="unknown arrow 'zz' in sketch graph"):
        yoneda_arrow(GRAPH, "zz")


def test_yoneda_arrow_graph_endpoints():
    y_e = representable(GRAPH, "E")
    via_s = yoneda_arrow(GRAPH, "s")
    via_t = yoneda_arrow(GRAPH, "t")
    assert check_morphism(via_s).ok and check_morphism(via_t).ok
    edge = y_e.generator
    assert via_s.components["V"].mapping != via_t.components["V"].mapping
    assert set(via_s.components["V"].mapping.values()) == \
        {y_e.spec.action["s"](edge)}
    assert set(via_t.components["V"].mapping.values()) == \
        {y_e.spec.action["t"](edge)}


def test_yoneda_arrow_inclusion():
    y_theo = representable(SP, "Theo")
    phi = yoneda_arrow(SP, "inc")
    assert phi.src.carrier["For"].elements == \
        representable(SP, "For").spec.carrier["For"].elements
    gen_for = representable(SP, "For").generator
    assert phi.components["For"](gen_for) == \
        y_theo.spec.action["inc"](y_theo.generator)


def test_yoneda_arrow_respects_composition():
    # h: H' -> H_IM then p1: H_IM -> For, contravariantly
    via_p1 = yoneda_arrow(SP, "p1")
    via_h = yoneda_arrow(SP, "h_c_IM")
    composite = compose_morphisms(via_p1, via_h)
    y_part = representable(SP, "H_IM_part_c_IM")
    gen_for = representable(SP, "For").generator
    walked = y_part.spec.action["p1"](
        y_part.spec.action["h_c_IM"](y_part.generator))
    assert composite.components["For"](gen_for) == walked


def test_faithfulness_on_graph():
    report = faithfulness_check(GRAPH)
    assert report.ok
    assert report.violations == ()


def test_faithfulness_reports_expected_collision():
    sk = Sketch(
        name="equated",
        objects=("A", "B"),
        arrows={"f": ArrowDecl("f", "A", "B"), "g": ArrowDecl("g", "A", "B")},
        equations=(PathEquation(("f",), ("g",)),),
    )
    assert validate_sketch(sk).ok
    report = faithfulness_check(sk)
    assert report.ok  # a collision among equated arrows is only a warning
    codes = [v.code for v in report.violations]
    assert codes == ["yoneda-expected-collision"]


def test_faithfulness_flags_silent_collapse():
    sk = Sketch(
        name="collapsed",
        objects=("A", "B"),
        arrows={"f": ArrowDecl("f", "A", "B"), "g": ArrowDecl("g", "A", "B")},
        cones={"pt": Cone(name="pt", apex="B", nodes={})},
    )
    assert validate_sketch(sk).ok
    report = faithfulness_check(sk)
    assert not report.ok
    assert [v.code for v in report.violations] == ["yoneda-not-faithful"]


def test_density_of_corpus_specs():
    from test_engine import chain_spec, mp_basic

    assert density_check(SP, mp_basic()).ok
    assert density_check(SP, chain_spec()).ok


def test_density_of_a_representable():
    rep = representable(SP, "H_IM")
    assert density_check(SP, rep.spec).ok


def without(spec, ob, x):
    """``spec`` with the element ``x`` of ``ob`` removed; nothing may map
    to it."""
    carrier = dict(spec.carrier, **{ob: finset(
        y for y in spec.carrier[ob] if y != x)})
    action = {aid: FinFunction(carrier[d.src], carrier[d.tgt], {
        y: v for y, v in spec.action[aid].mapping.items() if y in
        carrier[d.src]}) for aid, d in spec.over.arrows.items()}
    return Realization(spec.over, carrier, action)


def test_density_fails_on_a_non_model():
    from test_engine import mp_basic

    spec = without(mp_basic(), "H_IM", "q_q")
    assert [v.code for v in check_realization(spec).violations] == [
        "cone-comparison-not-surjective"]
    report = density_check(SP, spec)
    assert [v.code for v in report.violations] == ["density-failed"]


def test_density_past_the_old_search_guard():
    from test_acceptance import tabled_spec

    # |For| = 8 alone gives 8^8 > 10^6 candidate maps to a search
    spec = tabled_spec(random.Random(1105), 8)
    assert check_realization(spec).ok
    with pytest.raises(ValueError, match="search space exceeds"):
        is_isomorphic(spec, spec)
    assert density_check(SP, spec).ok


def test_density_needs_the_specs_own_sketch():
    and_table = next(d for d in dsl.parse_path(
        resources.files("limsketch") / "corpus" / "magma.sk")
        if isinstance(d, dsl.NamedSpec)).realization
    with pytest.raises(ValueError, match="not over sketch graph"):
        density_check(GRAPH, and_table)


def test_every_rule_is_the_yoneda_image_of_its_span():
    rules = 0
    for path in sorted((resources.files("limsketch") / "corpus").iterdir()):
        if not path.name.endswith(".sk"):
            continue
        for d in dsl.parse_path(path):
            if not isinstance(d, Sketch):
                continue
            sp, loc = break_cycles(d)
            for rule in rules_of(loc):
                h = yoneda_arrow(sp, rule.h_arrow)
                c = yoneda_arrow(sp, rule.c_arrow)
                assert rule.hyp_to_glue == h and rule.concl_to_glue == c
                assert (rule.hypothesis, rule.glue, rule.conclusion) == \
                    (h.src, h.tgt, c.src) and c.tgt == h.tgt
                rules += 1
    assert rules == 11
