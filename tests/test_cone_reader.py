"""The one way a cone is read, seen from the chase, the check and forced
extension.

``realization.cone_reader`` fixes the family order (the projected nodes
first, in leg order, then the rest, each part sorted) and the leg order (by
node name); ``apex_tuples`` reads apex elements a column per leg, and
``clashes`` pairs the elements over one defined tuple.  A cone with no
projections reads every apex tuple as empty, and a cone whose projections
are declared out of name order is still read in leg order.
"""

import random

from limsketch.engine import ChaseConfig, saturate
from limsketch.finset import FinFunction
from limsketch.realization import (
    Realization,
    apex_tuples,
    check_realization,
    clashes,
    extend_morphism,
)
from limsketch.sketch import ArrowDecl, Cone, Sketch, validate_sketch
from oracle_surface import finset

from test_chase_oracle import assert_same_chase
from test_morphism_oracle import assert_same_extensions, assert_same_search

# One is the limit of the one-node diagram A, with no projection: a model
# has at most one element of A, and One has one element exactly when A
# has one.  Every apex tuple of the cone is empty.
POINT = Sketch(
    name="point",
    objects=("One", "A", "B"),
    arrows={"a": ArrowDecl("a", "A", "One"), "b": ArrowDecl("b", "B", "A")},
    cones={"t": Cone("t", "One", {"x": "A"})},
)

# P is the product of A and B, with the projections declared out of name
# order: the legs are still read x (onto A) first.
PAIR = Sketch(
    name="pair",
    objects=("P", "A", "B"),
    arrows={"p": ArrowDecl("p", "P", "A"), "q": ArrowDecl("q", "P", "B")},
    cones={"c": Cone("c", "P", {"y": "B", "x": "A"},
                     projections={"y": "q", "x": "p"})},
)


def point(ones, As, Bs, a, b):
    """A realization of POINT from element lists and action tables."""
    One, A, B = finset(ones), finset(As), finset(Bs)
    return Realization(POINT, {"One": One, "A": A, "B": B}, {
        "a": FinFunction(A, One, a), "b": FinFunction(B, A, b)})


def test_sketches_are_valid():
    assert validate_sketch(POINT).ok and validate_sketch(PAIR).ok


def test_apex_tuples_of_no_legs_are_empty():
    assert list(apex_tuples(["u", "v"], [])) == [("u", ()), ("v", ())]
    first, pairs = clashes(apex_tuples(["u", "v", "w"], []))
    assert first == {(): "u"} and pairs == [("u", "v"), ("u", "w")]


def test_clashes_skip_undefined_tuples():
    f = {"u": "1", "v": None, "w": "1", "z": None}.get
    first, pairs = clashes(apex_tuples(["u", "v", "w", "z"], [f]))
    assert first == {("1",): "u"} and pairs == [("u", "w")]


def point_specs():
    return [
        point([], [], [], {}, {}),
        point(["o0", "o1"], [], [], {}, {}),
        point(["o0"], ["a0", "a1"], ["b0"], {"a0": "o0", "a1": "o0"},
              {"b0": "a1"}),
        point(["o0", "o1"], ["a0"], ["b0", "b1"], {"a0": "o1"},
              {"b0": "a0", "b1": "a0"}),
    ]


def test_zero_projection_cone_chases_like_the_oracle():
    for spec in point_specs():
        assert_same_chase(spec, [])
        assert_same_chase(spec, [], ChaseConfig(max_rounds=0))
        res = saturate(spec, [])
        assert check_realization(res.result).ok
        sizes = {ob: len(res.result.carrier[ob]) for ob in POINT.objects}
        assert sizes["One"] == sizes["A"] <= 1


def test_zero_projection_cone_check_reports_empty_tuples():
    two_apexes = point(["o0", "o1"], ["a0"], [], {"a0": "o0"}, {})
    assert [(v.code, v.message) for v in check_realization(two_apexes)
            .violations] == [("cone-comparison-not-injective",
                              "apex elements 'o0' and 'o1' both project to ()")]
    two_families = point(["o0"], ["a0", "a1"], [], {"a0": "o0", "a1": "o0"},
                         {})
    assert [(v.code, v.message) for v in check_realization(two_families)
            .violations] == [("cone-ambiguous-extension",
                              "restriction () extends to 2 distinct base "
                              "families")]
    no_family = point(["o0"], [], [], {}, {})
    assert [v.code for v in check_realization(no_family).violations] == [
        "cone-comparison-unrealized"]


def test_zero_projection_cone_extends_like_the_oracle():
    models = [saturate(spec, []).result for spec in point_specs()]
    models.append(point(["o"], ["a"], ["b0", "b1", "b2"], {"a": "o"},
                        {"b0": "a", "b1": "a", "b2": "a"}))
    assert all(check_realization(R).ok for R in models)
    for R1 in models:
        for R2 in models:
            assert_same_search(R1, R2)
    assert_same_extensions(random.Random(1201), models, 10)
    # One lifts with no leg assigned: its image is the element over ().
    empty, three = models[0], models[-1]
    assert extend_morphism(empty, three, {}) is not None
    two = models[-2]
    phi = extend_morphism(two, three, {"B": {"b0": "b2", "b1": "b0"}})
    assert phi is not None
    assert set(phi.components["One"].mapping.values()) == {"o"}


def test_check_reads_legs_in_node_order():
    A, B, P = finset(["a0"]), finset(["b0"]), finset([])
    R = Realization(PAIR, {"P": P, "A": A, "B": B}, {
        "p": FinFunction(P, A, {}), "q": FinFunction(P, B, {})})
    assert [v.message for v in check_realization(R).violations] == [
        "no apex element projects to the family restriction ('a0', 'b0'), "
        "the first of more restrictions than apex tuples; the enumeration "
        "stopped there"]
    P = finset(["u", "v"])
    R = Realization(PAIR, {"P": P, "A": A, "B": B}, {
        "p": FinFunction(P, A, {"u": "a0", "v": "a0"}),
        "q": FinFunction(P, B, {"u": "b0", "v": "b0"})})
    assert [v.message for v in check_realization(R).violations] == [
        "apex elements 'u' and 'v' both project to ('a0', 'b0')"]


def test_chase_reads_legs_in_node_order():
    A, B, P = finset(["a0", "a1"]), finset(["b0"]), finset([])
    spec = Realization(PAIR, {"P": P, "A": A, "B": B}, {
        "p": FinFunction(P, A, {}), "q": FinFunction(P, B, {})})
    assert_same_chase(spec, [])
    res = saturate(spec, [])
    assert check_realization(res.result).ok
    p, q = (res.result.action[a].mapping for a in ("p", "q"))
    assert [(p[x], q[x]) for x in res.result.carrier["P"]] == [
        ("a0", "b0"), ("a1", "b0")]
