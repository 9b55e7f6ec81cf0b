"""Refusals of the validators and the cycle breaker, on hand-built inputs.

Each case builds the smallest sketch, morphism or chase result that trips
one check, and pins the code or message the check reports.
"""

import json
from importlib import resources

import pytest

from limsketch import dsl, engine, realization
from limsketch.engine import (
    ChaseConfig,
    ChaseResult,
    ChaseTrace,
    induced_isomorphism,
)
from limsketch.finset import FinFunction
from limsketch.localizer import (
    SketchMorphism,
    break_cycles,
    check_sketch_morphism,
    paths_equivalent,
)
from limsketch.realization import (
    RealMorphism,
    Realization,
    identity_morphism,
    restrict_along,
)
from limsketch.sketch import (
    ArrowDecl,
    Cone,
    ConeEdge,
    PathEquation,
    Sketch,
    Violation,
    builtin_sketches,
    validate_sketch,
)
from oracle_surface import finset

CORPUS = resources.files("limsketch") / "corpus"
GRAPH = builtin_sketches()["graph"]


def arrows(*decls: str) -> dict[str, ArrowDecl]:
    """Arrow declarations from ``"f:A->B"`` strings."""
    out = {}
    for decl in decls:
        aid, ends = decl.split(":")
        src, tgt = ends.split("->")
        out[aid] = ArrowDecl(aid, src, tgt)
    return out


def one_cone(cone: Cone, *decls: str, objects=("A", "B")) -> Sketch:
    return Sketch("s", objects, arrows(*decls), (), {cone.name: cone})


# -- validate_sketch --------------------------------------------------------


@pytest.mark.parametrize("sk, want", [
    (Sketch("s", ("A", "A")),
     [("duplicate-object", "A", "object 'A' declared twice")]),
    (Sketch("s", ("A",), arrows("f:A->A"),
            (PathEquation(("f", "g"), ("f",)),)),
     [("bad-path", "equation#0", "unknown arrow 'g'")]),
    (one_cone(Cone("c", "A", {"x": "Z"}, (ConeEdge("x", "x", ()),))),
     [("unknown-node-object", "cone c", "node x: unknown object 'Z'"),
      ("bad-path", "cone c", "unknown object 'Z'")]),
    (one_cone(Cone("c", "Q", {})),
     [("unknown-apex", "cone c", "unknown apex 'Q'")]),
    (one_cone(Cone("c", "A", {"x": "B"}, (), {"y": "p"}), "p:A->B"),
     [("unknown-proj-node", "cone c", "projection for undeclared node 'y'")]),
    (one_cone(Cone("c", "A", {"x": "B"}, (), {"x": "p"})),
     [("unknown-proj-arrow", "cone c", "projection 'p' is not a declared "
       "arrow")]),
    (one_cone(Cone("c", "A", {"x": "B"}, (ConeEdge("x", "w", ("f",)),)),
              "f:B->B"),
     [("unknown-edge-node", "cone c", "edge x->w uses undeclared nodes")]),
    (one_cone(Cone("c", "A", {"x": "A", "y": "B"},
                   (ConeEdge("x", "y", ("f",)),)), "f:A->A"),
     [("edge-type-mismatch", "cone c", "edge x->y path has endpoints "
       "('A', 'A'), expected ('A', 'B')")]),
], ids=["duplicate-object", "bad-path-arrow", "bad-path-identity",
        "unknown-apex", "unknown-proj-node", "unknown-proj-arrow",
        "unknown-edge-node", "edge-type-mismatch"])
def test_validate_sketch_reports(sk, want):
    assert validate_sketch(sk).violations == tuple(
        Violation(*v) for v in want)


# -- check_sketch_morphism --------------------------------------------------


def graph_to_graph(object_map, arrow_map) -> SketchMorphism:
    return SketchMorphism(GRAPH, GRAPH, object_map, arrow_map)


@pytest.mark.parametrize("m, want", [
    (graph_to_graph({"E": "E"}, {}),
     [("object-map-total", "V", "object 'V' has no image")]),
    (graph_to_graph({"E": "E", "V": "X"}, {}),
     [("object-map-total", "V", "image 'X' not in target")]),
    (graph_to_graph({"E": "E", "V": "V"}, {"s": ("s", "s"), "t": ("t",)}),
     [("arrow-endpoints", "s", "path not composable at position 1: s "
       "starts at E, expected V")]),
], ids=["missing-image", "image-outside-target", "not-composable"])
def test_check_sketch_morphism_reports(m, want):
    assert check_sketch_morphism(m).violations == tuple(
        Violation(*v) for v in want)


def test_a_mono_must_map_to_a_mono():
    src = Sketch("s", ("A", "B"), arrows("m:A->B"), monos=frozenset({"m"}))
    tgt = Sketch("t", ("A", "B"), arrows("m:A->B"))
    m = SketchMorphism(src, tgt, {"A": "A", "B": "B"}, {"m": ("m",)})
    assert [(v.code, v.message) for v in check_sketch_morphism(m).violations
            ] == [("mono-transport",
                   "image ['m'] is neither an identity path nor a mono arrow")]


def test_a_cone_must_map_to_a_cone():
    cone = Cone("c", "A", {"x": "B"}, (), {"x": "p"})
    src = one_cone(cone, "p:A->B")
    tgt = Sketch("t", ("A", "B"), arrows("p:A->B"))
    m = SketchMorphism(src, tgt, {"A": "A", "B": "B"}, {"p": ("p",)})
    assert check_sketch_morphism(m).violations == (Violation(
        "cone-transport", "cone c",
        "no target cone matches the transported base (apex A)"),)


def test_a_cone_must_map_to_a_cone_over_the_same_node_objects():
    src = one_cone(Cone("c", "A", {"x": "B"}, (), {"x": "p"}), "p:A->B")
    tgt = Sketch("t", ("A", "B", "C"), arrows("p:A->B", "q:A->C"), (), {
        "d": Cone("d", "A", {"y": "C"}, (), {"y": "q"})})
    m = SketchMorphism(src, tgt, {"A": "A", "B": "B"}, {"p": ("p",)})
    assert check_sketch_morphism(m).violations == (Violation(
        "cone-transport", "cone c",
        "no target cone matches the transported base (apex A)"),)


def test_a_path_is_equivalent_to_itself():
    assert paths_equivalent(GRAPH, ("s",), ("s",))
    assert paths_equivalent(GRAPH, (), ())


# -- break_cycles ----------------------------------------------------------


@pytest.mark.parametrize("sk, plan, message", [
    (Sketch("s", ("A", "B"), arrows("f:A->B")), ["nope"],
     "cannot break 'nope': not a declared arrow"),
    (Sketch("s", ("A", "B", "A_part_f"), arrows("f:A->B")), ["f"],
     "fresh object name 'A_part_f' already declared"),
    (Sketch("s", ("A", "B"), arrows("f:A->B", "h_f:B->A")), ["f"],
     "fresh mono name 'h_f' already declared"),
    (one_cone(Cone("c", "X", {"x": "X", "y": "B"},
                   (ConeEdge("x", "y", ("g", "f")),)),
              "f:A->B", "g:X->A", objects=("A", "B", "X")), ["f"],
     "cannot break 'f': cone c mentions it mid-path"),
    (one_cone(Cone("c", "X", {"a": "A", "b": "B"},
                   (ConeEdge("a", "b", ("f",)),), {"a": "pa"}),
              "f:A->B", "pa:X->A", objects=("A", "B", "X")), ["f"],
     "cannot break 'f': cone c projects onto node 'a'"),
    (one_cone(Cone("c", "X", {"z": "X", "a": "A", "b": "B"},
                   (ConeEdge("z", "a", ("g",)), ConeEdge("a", "b", ("f",)))),
              "f:A->B", "g:X->A", objects=("A", "B", "X")), ["f"],
     "cannot break 'f': cone c node 'a' has incoming edges"),
    (Sketch("s", ("A", "B"), arrows("f:A->B")), ["f", "h_f"],
     "cannot break 'h_f': not a declared arrow"),
], ids=["undeclared", "fresh-object", "fresh-mono", "mid-path",
        "projected-node", "incoming-edges", "fresh-mono-in-plan"])
def test_break_cycles_refuses(sk, plan, message):
    with pytest.raises(ValueError) as err:
        break_cycles(sk, plan)
    assert str(err.value) == message


def test_a_plan_naming_an_arrow_twice_breaks_it_once():
    sk = Sketch("s", ("A", "B"), arrows("f:A->B"))
    once, twice = break_cycles(sk, ["f"]), break_cycles(sk, ["f", "f"])
    assert twice == once
    assert [r.c for r in twice[1].broken] == ["f"]


# -- configs ---------------------------------------------------------------


def test_a_config_without_max_rounds_takes_the_default():
    from_text, = dsl.parse("config c { rules = c_MP }")
    from_json, = dsl.parse_json(json.dumps(
        {"kind": "config", "name": "c", "rules": ["c_MP"]}))
    want = dsl.NamedConfig("c", ChaseConfig(rule_subset=("c_MP",)))
    assert from_text == from_json == want
    assert from_json.config.max_rounds == ChaseConfig.max_rounds


# -- restriction along a morphism that breaks an equation -------------------

# ``s`` states f = g; ``t`` leaves f and g free, and ``m`` maps each to
# itself, which check_sketch_morphism can only warn about.  ``two`` over t
# separates f and g at ``a``; ``one`` does not.
BROKEN_EQUATION = """\
sketch s {
  object A
  object B
  arrow f : A -> B
  arrow g : A -> B
  eq f = g
}

sketch t {
  object A
  object B
  arrow f : A -> B
  arrow g : A -> B
}

morphism m : s -> t {
  obj A => A
  obj B => B
  arr f => f
  arr g => g
}

spec two over t {
  elem a : A
  elem b0 : B
  elem b1 : B
  act f(a) = b0
  act g(a) = b1
}

spec one over t {
  elem a : A
  elem b : B
  act f(a) = b
  act g(a) = b
}
"""


def test_a_restriction_that_is_not_a_model_is_refused():
    decls = {d.name: d for d in dsl.parse(BROKEN_EQUATION)}
    m = decls["m"].morphism
    assert [v.code for v in check_sketch_morphism(m).violations] == [
        "equation-not-confirmed"]
    with pytest.raises(ValueError) as err:
        restrict_along(m, decls["two"].realization)
    assert str(err.value) == (
        "restriction along the morphism is not a model: equation-violated "
        "at equation#0: sides disagree at 'a': 'b0' != 'b1'")
    one = restrict_along(m, decls["one"].realization)
    assert one.over is m.src and one.action["f"] == one.action["g"]


def test_a_confirmed_morphism_restricts_without_a_check(monkeypatch):
    """``mp_sigma`` maps an equation that the rewriting confirms, so its
    restriction is never checked, even of an empty realization."""
    sigma = next(d.morphism for d in dsl.parse_path(CORPUS / "mp.sk")
                 if d.name == "mp_sigma")
    assert sigma.src.equations and check_sketch_morphism(sigma).violations == ()
    empty = Realization(sigma.tgt, {ob: finset(()) for ob in sigma.tgt.objects},
                        {a: FinFunction(finset(()), finset(()), {})
                         for a in sigma.tgt.arrows})

    def unreachable(R):
        raise AssertionError("every equation image is confirmed")
    monkeypatch.setattr(realization, "check_realization", unreachable)
    assert restrict_along(sigma, empty).over is sigma.src


# -- induced_isomorphism ---------------------------------------------------


def test_no_isomorphism_when_one_result_identifies_what_the_other_keeps(
        monkeypatch):
    sk = Sketch("one", ("A",))
    two = Realization(sk, {"A": finset(("x", "y"))}, {})
    one = Realization(sk, {"A": finset(("z",))}, {})
    glued = ChaseResult(one, "fixpoint", 0, ChaseTrace(()), RealMorphism(
        two, one, {"A": FinFunction(two.carrier["A"], one.carrier["A"],
                                    {"x": "z", "y": "z"})}))
    kept = ChaseResult(two, "fixpoint", 0, ChaseTrace(()),
                       identity_morphism(two))

    def unreachable(*args):
        raise AssertionError("the seed conflicts before any extension")
    monkeypatch.setattr(engine, "extend_morphism", unreachable)
    assert induced_isomorphism(glued, kept) is None
