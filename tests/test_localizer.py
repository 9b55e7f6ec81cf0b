from __future__ import annotations

import random
from importlib import resources

import pytest

from limsketch import dsl, engine
from limsketch.localizer import (
    BrokenRecord,
    as_localiser,
    break_cycles,
    check_sketch_morphism,
    default_plan,
    find_cycles,
    paths_equivalent,
    SketchMorphism,
)
from limsketch.sketch import (
    ArrowDecl,
    Cone,
    ConeEdge,
    PathEquation,
    Sketch,
    builtin_sketches,
    validate_sketch,
)
from limsketch.yoneda import representable
from oracle_surface import identity_morphism


def im_fragment() -> Sketch:
    """Just the implication-forming corner of the modus ponens theory."""
    return Sketch(
        name="im_fragment",
        objects=("For", "H_IM", "C_IM"),
        arrows={
            "p1": ArrowDecl("p1", "H_IM", "For"),
            "p2": ArrowDecl("p2", "H_IM", "For"),
            "c_IM": ArrowDecl("c_IM", "H_IM", "C_IM"),
            "e_IM": ArrowDecl("e_IM", "C_IM", "For"),
        },
        cones={
            "lim_C_IM": Cone("lim_C_IM", "C_IM", {"n0": "For"}, (), {"n0": "e_IM"}),
            "lim_H_IM": Cone(
                "lim_H_IM", "H_IM", {"n1": "For", "n2": "For"}, (), {"n1": "p1", "n2": "p2"}
            ),
        },
    )


# ---------------------------------------------------------------------------
# morphism checking
# ---------------------------------------------------------------------------


def test_identity_morphism_on_mp_theory_checks():
    mp = builtin_sketches()["mp_theory"]
    assert check_sketch_morphism(identity_morphism(mp)).ok


def test_apex_to_non_apex_is_cone_violation():
    magma = builtin_sketches()["magma"]
    m = SketchMorphism(
        src=magma,
        tgt=magma,
        object_map={"M": "M", "M2": "M"},
        arrow_map={"s": (), "t": (), "k": ()},
    )
    codes = {v.code for v in check_sketch_morphism(m).violations}
    assert "cone-transport" in codes


def test_missing_arrow_image_reported():
    g = builtin_sketches()["graph"]
    m = SketchMorphism(src=g, tgt=g, object_map={"E": "E", "V": "V"}, arrow_map={"s": ("s",)})
    codes = {v.code for v in check_sketch_morphism(m).violations}
    assert codes == {"arrow-map-total"}


def test_endpoint_mismatch_reported():
    g = builtin_sketches()["graph"]
    m = SketchMorphism(
        src=g,
        tgt=g,
        object_map={"E": "E", "V": "V"},
        arrow_map={"s": ("s",), "t": ()},
    )
    codes = {v.code for v in check_sketch_morphism(m).violations}
    assert codes == {"arrow-endpoints"}


def test_unconfirmed_equation_is_warning_only():
    src = Sketch(
        name="two_loops",
        objects=("A",),
        arrows={"f": ArrowDecl("f", "A", "A"), "g": ArrowDecl("g", "A", "A")},
        equations=(PathEquation(("f",), ("g",)),),
    )
    tgt = Sketch(
        name="free_loops",
        objects=("A",),
        arrows={"f": ArrowDecl("f", "A", "A"), "g": ArrowDecl("g", "A", "A")},
    )
    m = SketchMorphism(src=src, tgt=tgt, object_map={"A": "A"}, arrow_map={"f": ("f",), "g": ("g",)})
    report = check_sketch_morphism(m)
    assert report.ok  # warnings do not fail the check
    assert [v.severity for v in report.violations] == ["warning"]
    assert report.violations[0].code == "equation-not-confirmed"


def test_paths_equivalent_uses_equations_both_ways():
    sk = Sketch(
        name="retract",
        objects=("A", "B"),
        arrows={"f": ArrowDecl("f", "A", "B"), "g": ArrowDecl("g", "B", "A")},
        equations=(PathEquation(("f", "g"), ()),),
    )
    assert paths_equivalent(sk, ("f", "g", "f"), ("f",))
    assert paths_equivalent(sk, ("f",), ("f", "g", "f"))
    assert not paths_equivalent(sk, ("g", "f"), ())


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def test_graph_sketch_has_no_cycles():
    assert find_cycles(builtin_sketches()["graph"]).cycles == ()


def test_im_fragment_has_two_cycles():
    report = find_cycles(im_fragment())
    assert len(report.cycles) == 2
    for walk in report.cycles:
        assert ("c_IM", "fwd") in walk
        assert ("e_IM", "fwd") in walk
    reversed_projections = {walk[-1] for walk in report.cycles}
    assert reversed_projections == {("p1", "rev"), ("p2", "rev")}


def test_mp_theory_cycles_only_through_rule_arrows():
    report = find_cycles(builtin_sketches()["mp_theory"])
    assert report.cycles
    for walk in report.cycles:
        assert any(a in ("c_IM", "c_MP") for a, _ in walk)
    assert default_plan(builtin_sketches()["mp_theory"]) == ["c_IM", "c_MP"]


def test_self_loop_is_a_cycle():
    sk = Sketch(
        name="loop",
        objects=("A",),
        arrows={"f": ArrowDecl("f", "A", "A")},
    )
    assert find_cycles(sk).cycles == ((("f", "fwd"),),)


def test_pure_projection_walks_not_reported():
    # two projections out of a product apex walk both ways but form no rule loop
    magma = builtin_sketches()["magma"]
    assert all(
        any(a == "k" for a, _ in walk) for walk in find_cycles(magma).cycles
    )


def test_cycle_report_is_deterministic():
    mp = builtin_sketches()["mp_theory"]
    assert find_cycles(mp) == find_cycles(mp)


# ---------------------------------------------------------------------------
# breaking
# ---------------------------------------------------------------------------


def test_break_nothing_is_identity():
    g = builtin_sketches()["graph"]
    broken, loc = break_cycles(g)
    assert broken == g
    assert loc.broken == ()
    assert loc.underlying.object_map == {"E": "E", "V": "V"}


def test_break_im_fragment():
    sp, loc = break_cycles(im_fragment())
    assert loc.broken == (BrokenRecord(h="h_c_IM", c="c_IM", fresh="H_IM_part_c_IM"),)
    assert sp.arrows["c_IM"].src == "H_IM_part_c_IM"
    assert sp.arrows["h_c_IM"] == ArrowDecl("h_c_IM", "H_IM_part_c_IM", "H_IM")
    assert "h_c_IM" in sp.monos
    assert validate_sketch(sp).ok
    assert check_sketch_morphism(loc.underlying).ok


def test_break_mp_theory_default_plan():
    mp = builtin_sketches()["mp_theory"]
    sp, loc = break_cycles(mp)
    assert [r.c for r in loc.broken] == ["c_IM", "c_MP"]
    assert set(sp.objects) - set(mp.objects) == {"H_IM_part_c_IM", "H_MP_part_c_MP"}
    assert sp.monos == frozenset({"inc", "h_c_IM", "h_c_MP"})
    assert validate_sketch(sp).ok
    report = check_sketch_morphism(loc.underlying)
    assert report.ok and not report.violations  # not even warnings
    # the conclusion equation is guarded by the new mono leg
    assert PathEquation(("c_MP", "e_MP", "inc"), ("h_c_MP", "q")) in sp.equations
    # the big cone's hypothesis node now lives at the partial domain
    cone = sp.cones["lim_H_MP"]
    assert cone.nodes["nx"] == "H_IM_part_c_IM"
    paths = {e.path for e in cone.edges}
    assert ("h_c_IM", "p1") in paths and ("h_c_IM", "p2") in paths and ("c_IM",) in paths


def test_break_is_idempotent():
    sp, _ = break_cycles(builtin_sketches()["mp_theory"])
    again, loc = break_cycles(sp)
    assert again == sp
    assert loc.broken == ()


def test_no_cycles_through_replaced_arrows():
    sp, loc = break_cycles(builtin_sketches()["mp_theory"])
    replaced = {r.c for r in loc.broken}
    assert replaced == {"c_IM", "c_MP"}
    assert not (find_cycles(sp).arrows_on_cycles() & replaced)


def test_breaking_projection_rejected():
    with pytest.raises(ValueError, match="projection"):
        break_cycles(builtin_sketches()["magma"], plan=["s"])


def test_midpath_equation_mention_rejected():
    sk = Sketch(
        name="bad",
        objects=("A", "B", "C"),
        arrows={
            "c": ArrowDecl("c", "A", "B"),
            "f": ArrowDecl("f", "B", "C"),
            "g": ArrowDecl("g", "A", "A"),
        },
        equations=(PathEquation(("g", "c", "f"), ("g", "c", "f")),),
    )
    with pytest.raises(ValueError, match="mid-path"):
        break_cycles(sk, plan=["c"])


def test_localiser_reconstructed_from_morphism():
    mp = builtin_sketches()["mp_theory"]
    _, loc = break_cycles(mp)
    rebuilt = as_localiser(loc.underlying)
    assert rebuilt.broken == loc.broken


def corpus_sketches() -> list[Sketch]:
    corpus = resources.files("limsketch") / "corpus"
    return [d for name in ("mp.sk", "graph.sk", "magma.sk", "bank.sk")
            for d in dsl.parse_path(corpus / name) if isinstance(d, Sketch)]


def random_plan(rng: random.Random, sk: Sketch) -> list[str]:
    """0-4 of ``sk``'s arrows, sometimes one twice or an ``h_<arrow>``."""
    names = sorted(sk.arrows)
    plan = rng.sample(names, rng.randint(0, min(4, len(names))))
    if plan and rng.random() < 0.3:
        plan.append(rng.choice(plan))
    if rng.random() < 0.2:
        plan.append("h_" + rng.choice(names))
    return plan


def test_every_accepted_plan_is_read_back_off_its_morphism():
    rng = random.Random(20)
    sketches = corpus_sketches()
    accepted = 0
    for _ in range(400):
        sk = rng.choice(sketches)
        plan = random_plan(rng, sk)
        try:
            sp, loc = break_cycles(sk, plan)
        except ValueError:
            continue
        accepted += 1
        m = loc.underlying
        assert validate_sketch(sp).ok and check_sketch_morphism(m).ok
        assert (m.src, m.tgt) == (sp, sk)
        assert loc == as_localiser(m)
        assert sorted(r.c for r in loc.broken) == sorted(set(plan))
        for rec in loc.broken:
            assert m.arrow_map[rec.h] == ()
            assert m.object_map[rec.fresh] == sk.arrows[rec.c].src
    assert accepted >= 100


def random_cyclic_sketch(rng: random.Random) -> Sketch | None:
    """2-4 objects, 2-6 arrows in any direction, and 0-2 binary product
    cones, each on its own apex over objects that are no apex; None when
    no cycle goes through a plain arrow."""
    objects = tuple("ABCD"[:rng.randint(2, 4)])
    apexes = rng.sample(objects, rng.randint(0, min(2, len(objects) - 1)))
    bases = [ob for ob in objects if ob not in apexes]
    arrows, cones = {}, {}
    for i in range(rng.randint(2, 6)):
        arrows[f"f{i}"] = ArrowDecl(f"f{i}", rng.choice(objects),
                                    rng.choice(objects))
    for k, apex in enumerate(apexes):
        nodes = {n: rng.choice(bases) for n in ("l", "r")}
        for n, ob in nodes.items():
            arrows[f"p{k}{n}"] = ArrowDecl(f"p{k}{n}", apex, ob)
        cones[f"prod{k}"] = Cone(f"prod{k}", apex, nodes,
                                 projections={n: f"p{k}{n}" for n in nodes})
    sk = Sketch("random", objects, arrows, cones=cones)
    assert validate_sketch(sk).ok
    return sk if find_cycles(sk).cycles else None


def test_broken_cycles_leave_every_representable_finite(monkeypatch):
    """The premise of cycle breaking: over random cyclic sketches, the
    default plan gives a valid sketch with no cycle through a plain arrow,
    and the representable at each of its objects closes up within a small
    element budget."""
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 3000)
    rng = random.Random(12)
    checked = 0
    while checked < 400:
        sk = random_cyclic_sketch(rng)
        if sk is None:
            continue
        sp, loc = break_cycles(sk)
        assert validate_sketch(sp).ok and loc.broken, sk
        assert find_cycles(sp).cycles == (), sk
        for ob in sp.objects:
            representable(sp, ob)
        checked += 1
