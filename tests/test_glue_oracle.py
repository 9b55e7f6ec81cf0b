"""Property tests: gluing two fractions agrees with the set pushout.

Composing ``C -> C <- A`` with ``A -> B <- B`` glues ``B`` onto ``C`` along
the span ``B <-f- A -g-> C``; on vertex-only graphs (no edges) that glue is
exactly ``finset.pushout(f, g)``, which serves as the oracle.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from limsketch.engine import Fraction, compose_fractions  # noqa: E402
from limsketch.finset import FinFunction, pushout  # noqa: E402
from limsketch.realization import (  # noqa: E402
    RealMorphism,
    Realization,
    check_morphism,
    identity_morphism,
)
from limsketch.sketch import builtin_sketches  # noqa: E402
from oracle_surface import finset  # noqa: E402

GRAPH = builtin_sketches()["graph"]
names = st.text(alphabet="ab'", min_size=1, max_size=2)


def vertices(vs):
    """A graph with vertices ``vs`` and no edges."""
    cs = {"V": finset(vs), "E": finset(())}
    return Realization(GRAPH, cs, {a: FinFunction(cs["E"], cs["V"], {})
                                   for a in GRAPH.arrows})


def vertex_map(src, tgt, mapping):
    return RealMorphism(src, tgt, {
        "V": FinFunction(src.carrier["V"], tgt.carrier["V"], mapping),
        "E": FinFunction(src.carrier["E"], tgt.carrier["E"], {})})


@st.composite
def spans(draw):
    a = draw(st.lists(names, unique=True, max_size=5))
    b = draw(st.lists(names, unique=True, min_size=1, max_size=5))
    c = draw(st.lists(names, unique=True, min_size=1, max_size=5))
    f = {x: draw(st.sampled_from(b)) for x in a}
    g = {x: draw(st.sampled_from(c)) for x in a}
    return a, b, c, f, g


def glue(span):
    a, b, c, f, g = span
    A, B, C = vertices(a), vertices(b), vertices(c)
    f, g = vertex_map(A, B, f), vertex_map(A, C, g)
    first = Fraction(C, A, C, identity_morphism(C), g, "by-construction")
    second = Fraction(A, B, B, f, identity_morphism(B), "by-construction")
    return compose_fractions(first, second), f.components["V"], g.components["V"]


# one vertex of B with two partners in C, which the glue must identify
@example((["x", "y"], ["q", "b"], ["a", "b"], {"x": "q", "y": "q"},
          {"x": "a", "y": "b"}))
@given(spans())
def test_glue_agrees_with_the_pushout(span):
    proof, f, g = glue(span)
    P, inj_b, inj_c = pushout(f, g)
    # the two legs induce the pushout's partition of B + C ...
    glued = {("b", x): proof.c("V", x) for x in f.cod}
    glued.update({("c", y): proof.h("V", y) for y in g.cod})
    oracle = {("b", x): inj_b(x) for x in f.cod}
    oracle.update({("c", y): inj_c(y) for y in g.cod})
    pairs = {(glued[k], oracle[k]) for k in glued}
    assert len({p for p, _ in pairs}) == len(pairs) == len({o for _, o in pairs})
    assert len(proof.mid.carrier["V"]) == len(P)
    assert check_morphism(proof.h).ok and check_morphism(proof.c).ok
    # ... and the first member in C's order names each class C meets
    firsts = {}
    for y in g.cod:
        firsts.setdefault(inj_c(y), y)
    assert all(proof.h("V", y) == y for y in firsts.values())
    assert proof.mid.carrier["V"].elements[:len(firsts)] == tuple(firsts.values())
