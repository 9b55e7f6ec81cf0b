"""Small helpers the tests use and the package does not.

Each builds something the tests compare against or start from: function
composition, a congruence closure, a dict-shaped family join, a set from
any iterable, the identity fraction of a specification and the identity
morphism of a sketch.  No code in ``src/`` calls them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from limsketch import realization
from limsketch.engine import Fraction
from limsketch.finset import (
    FinFunction,
    FinSet,
    UnionFind,
    join,
    plan_join,
)
from limsketch.localizer import SketchMorphism
from limsketch.realization import Realization
from limsketch.sketch import Sketch


def finset(items: Iterable[str]) -> FinSet:
    return FinSet(tuple(items))


def compose(f: FinFunction, g: FinFunction) -> FinFunction:
    """Apply f then g (diagrammatic order)."""
    if f.cod != g.dom:
        raise ValueError("compose requires cod(f) == dom(g)")
    return FinFunction(f.dom, g.cod, {x: g(f(x)) for x in f.dom})


def families(
    nodes: dict[str, Sequence[str]],
    edges: Sequence[tuple[str, str, Callable[[str], str | None]]],
) -> Iterator[dict[str, str]]:
    """Every edge-compatible family of a finite diagram, as node -> value dicts.

    ``nodes`` gives each node its candidate values; an edge ``(src, tgt, f)``
    asks ``f(family[src]) == family[tgt]``, and ``f`` returning None
    (undefined) rules the family out.  The diagram is planned by
    :func:`plan_join` and run by the kernel :func:`join`.  The families come
    out in a fixed order, a function of the candidate orders alone: that of
    a depth-first search over the plan's picks, each trying its candidates
    (or its bucket, a subsequence of them) in their given order.
    """
    names = tuple(nodes)
    plan = plan_join(names, [(s, t) for s, t, _ in edges])
    return (dict(zip(names, fam)) for fam in
            join(plan, [nodes[n] for n in names], [f for _, _, f in edges]))


def congruence_closure(s: FinSet, pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Finest equivalence containing the pairs, as an element -> representative map.

    Representatives are the lexicographically least member of each class.
    Pairs naming elements outside s raise ValueError.
    """
    uf = UnionFind(s.elements)
    for a, b in pairs:
        if a not in s or b not in s:
            raise ValueError(f"congruence pair ({a}, {b}) mentions elements outside the set")
        uf.union(a, b)
    classes: dict[object, list[str]] = {}
    for x in s.elements:
        classes.setdefault(uf.find(x), []).append(x)
    rep = {m: min(members) for members in classes.values() for m in members}
    return {x: rep[x] for x in s.elements}


def identity_fraction(spec: Realization) -> Fraction:
    i = realization.identity_morphism(spec)
    return Fraction(spec, spec, spec, i, i, "by-construction")


def identity_morphism(sk: Sketch) -> SketchMorphism:
    return SketchMorphism(
        src=sk,
        tgt=sk,
        object_map={ob: ob for ob in sk.objects},
        arrow_map={a: (a,) for a in sk.arrows},
    )
