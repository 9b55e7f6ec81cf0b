"""Finite set-valued models of sketches and their natural transformations."""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .finset import (
    FinFunction,
    FinSet,
    compose_partial,
    identity,
    is_bijection,
    join,
    plan_join,
)
from .localizer import SketchMorphism, check_sketch_morphism
from .sketch import Cone, Sketch, ValidationReport, Violation


@dataclass(frozen=True)
class Realization:
    """Carriers for every object and a total function for every arrow."""

    over: Sketch
    carrier: dict[str, FinSet]
    action: dict[str, FinFunction]

    # True on a realization the chase extracted with every repair unit
    # clean, so that a chase starting from it skips each unit until the
    # unit reads a change.  Not a field: equality, hashing, ``repr`` and
    # ``dataclasses.replace`` ignore it, and a replaced copy is unmarked.
    _repaired = False


@dataclass(frozen=True)
class RealMorphism:
    src: Realization
    tgt: Realization
    components: dict[str, FinFunction]

    def __call__(self, ob: str, elem: str) -> str:
        return self.components[ob](elem)


def identity_morphism(R: Realization) -> RealMorphism:
    return RealMorphism(R, R, {ob: identity(s) for ob, s in R.carrier.items()})


# ---------------------------------------------------------------------------
# reading a cone
# ---------------------------------------------------------------------------


def _legs(cone: Cone) -> dict[str, str]:
    """Each projected node's arrow, in leg order: by node name."""
    return dict(sorted(cone.projections.items()))


def cone_reader(cone: Cone, lookup: Callable[[str], Callable]) -> tuple:
    """How the chase, the check and forced extension read ``cone``, with
    ``lookup`` giving each arrow's partial function.

    Returns the join plan over the base nodes in family order (the
    projected nodes in leg order, then the rest sorted, so that a family's
    restriction is its prefix), each node's object, one partial function
    per edge path and one per leg, and a function planning the join seeded
    at the nodes it is given (a tuple), each plan made once.
    """
    legs = _legs(cone)
    nodes = [*legs, *sorted(cone.nodes.keys() - legs.keys())]
    edges = [(e.src, e.tgt) for e in cone.edges]
    plans: dict = {}
    return (plan_join(nodes, edges), [cone.nodes[n] for n in nodes],
            [compose_partial([lookup(a) for a in e.path]) for e in cone.edges],
            [lookup(a) for a in legs.values()],
            lambda at: plans.get(at) or plans.setdefault(
                at, plan_join(nodes, edges, at)))


def apex_tuples(elements: Sequence[str], legs: Sequence[Callable]) -> Iterator:
    """Each element with its images along ``legs``, read a column per leg;
    with no legs every tuple is empty."""
    columns = [map(f, elements) for f in legs]
    return zip(elements, zip(*columns) if columns else [()] * len(elements))


def clashes(tuples: Iterable, first: dict | None = None) -> tuple[
        dict, list[tuple[str, str]]]:
    """The first element over each defined tuple (one without None), and
    each later element over it paired with that first one: the pairs a
    comparison that is injective must identify.  ``first`` holds what
    earlier elements gave, and is extended in place."""
    first = {} if first is None else first
    pairs: list[tuple[str, str]] = []
    for x, t in tuples:
        if None not in t:
            prev = first.setdefault(t, x)
            if prev is not x:
                pairs.append((prev, x))
    return first, pairs


def _check_cone(R: Realization, cone: Cone, out: list[Violation]) -> None:
    """Compare the apex with the base families through the projections.

    Each realized apex tuple is the restriction of some family, so once the
    distinct restrictions outnumber the distinct apex tuples the comparison
    is not surjective.  The enumeration stops there and one violation names
    the first restriction no apex element reaches; an apex tuple not
    enumerated by then is looked up with its projections pinned.
    """
    where = f"cone {cone.name}"
    plan, objects, paths, legs, seeded = cone_reader(
        cone, lambda a: R.action[a].mapping.get)
    k = len(legs)
    candidates = [R.carrier[ob].elements for ob in objects]
    apex = list(apex_tuples(R.carrier[cone.apex].elements, legs))
    limit = len({t for _, t in apex})
    counts: dict[tuple[str, ...], int] = {}
    complete = True
    for fam in join(plan, candidates, paths):
        t = fam[:k]
        counts[t] = counts.get(t, 0) + 1
        if len(counts) > limit:
            complete = False
            break
    # Once counts are partial, an apex tuple not among them is looked up
    # by one plan seeded at the projected nodes, with shared buckets.
    pinned_plan = None if complete else seeded(plan.nodes[:k])
    buckets: dict = {}
    carriers = [R.carrier[ob] for ob in objects[:k]]

    def pinned(t: tuple[str, ...]) -> bool:
        """Whether some family restricts to ``t``."""
        return all(x in c for x, c in zip(t, carriers)) and next(
            join(pinned_plan, candidates, paths, t, buckets), None) is not None

    seen: dict[tuple[str, ...], str] = {}
    for x, t in apex:
        if t in seen:
            out.append(Violation("cone-comparison-not-injective", where,
                                 f"apex elements {seen[t]!r} and {x!r} both project to {t}"))
        elif t in counts or not complete and pinned(t):
            seen[t] = x
        else:
            out.append(Violation("cone-comparison-unrealized", where, f"apex element {x!r} "
                                 f"projects to {t}, which no base family restricts to"))
    if not complete:
        t = next(t for t in counts if t not in seen)
        out.append(Violation(
            "cone-comparison-not-surjective", where,
            f"no apex element projects to the family restriction {t}, the first of "
            f"more restrictions than apex tuples; the enumeration stopped there"))
        return
    for t, n in sorted(counts.items()):
        if t not in seen:
            out.append(Violation("cone-comparison-not-surjective", where,
                                 f"no apex element projects to the family restriction {t}"))
        if n > 1:
            out.append(Violation("cone-ambiguous-extension", where,
                                 f"restriction {t} extends to {n} distinct base families"))


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def check_realization(R: Realization) -> ValidationReport:
    """Typing, equations, mono injectivity, and cone bijectivity."""
    out: list[Violation] = []
    sk = R.over
    for ob in sk.objects:
        if ob not in R.carrier:
            out.append(Violation("missing-carrier", ob, f"no carrier for object {ob!r}"))
    for aid, decl in sk.arrows.items():
        fn = R.action.get(aid)
        if fn is None:
            out.append(Violation("missing-action", aid, f"no action for arrow {aid!r}"))
        elif fn.dom != R.carrier.get(decl.src) or fn.cod != R.carrier.get(decl.tgt):
            out.append(
                Violation("action-type", aid, f"action of {aid!r} does not match its carriers")
            )
    if out:
        return ValidationReport(tuple(out))
    for i, eq in enumerate(sk.equations):
        lhs_of, rhs_of = (compose_partial([R.action[a].mapping.get for a in p])
                          for p in (eq.lhs, eq.rhs))
        for x in R.carrier[sk.arrows[eq.lhs[0]].src]:
            lhs, rhs = lhs_of(x), rhs_of(x)
            if lhs != rhs:
                out.append(
                    Violation(
                        "equation-violated",
                        f"equation#{i}",
                        f"sides disagree at {x!r}: {lhs!r} != {rhs!r}",
                    )
                )
    # A mono is the one-leg cone; its comparison must be injective.
    for m in sorted(sk.monos):
        fn = R.action[m]
        for prev, x in clashes(apex_tuples(fn.dom.elements, [fn.mapping.get]))[1]:
            out.append(Violation("mono-not-injective", m,
                                 f"{prev!r} and {x!r} collide at {fn(x)!r}"))
    for name in sorted(sk.cones):
        _check_cone(R, sk.cones[name], out)
    return ValidationReport(tuple(out))


def check_morphism(phi: RealMorphism) -> ValidationReport:
    if phi.src.over != phi.tgt.over:
        raise ValueError("source and target are over different sketches")
    sk = phi.src.over
    out: list[Violation] = []
    for ob in sk.objects:
        fn = phi.components.get(ob)
        if fn is None:
            out.append(Violation("missing-component", ob, f"no component at {ob!r}"))
        elif fn.dom != phi.src.carrier[ob] or fn.cod != phi.tgt.carrier[ob]:
            out.append(Violation("component-type", ob, f"component at {ob!r} has wrong carriers"))
    if out:
        return ValidationReport(tuple(out))
    for aid, decl in sk.arrows.items():
        fx, fy = phi.components[decl.src].mapping, phi.components[decl.tgt].mapping
        act1, act2 = phi.src.action[aid].mapping, phi.tgt.action[aid].mapping
        for x in phi.src.carrier[decl.src]:
            top, bottom = fy[act1[x]], act2[fx[x]]
            if top != bottom:
                out.append(Violation(
                    "naturality", aid, f"square for {aid!r} fails at {x!r}: {top!r} != {bottom!r}"))
                break
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# transport along sketch morphisms
# ---------------------------------------------------------------------------


def restrict_along(sigma: SketchMorphism, R: Realization) -> Realization:
    """Pull a model of sigma's target back to a model of its source."""
    if R.over != sigma.tgt:
        raise ValueError("realization is not over the morphism's target sketch")
    report = check_sketch_morphism(sigma)
    if not report.ok:
        raise ValueError(f"invalid sketch morphism:\n{report}")
    carrier = {ob: R.carrier[sigma.object_map[ob]] for ob in sigma.src.objects}
    action = {}
    for aid, decl in sigma.src.arrows.items():
        f = compose_partial([R.action[a].mapping.get
                             for a in sigma.arrow_map[aid]])
        action[aid] = FinFunction(carrier[decl.src], carrier[decl.tgt],
                                  {x: f(x) for x in carrier[decl.src]})
    out = Realization(over=sigma.src, carrier=carrier, action=action)
    # An equation image the rewriting could not confirm may fail in ``out``.
    if any(v.code == "equation-not-confirmed" for v in report.violations):
        bad = check_realization(out).violations
        if bad:
            raise ValueError(f"restriction along the morphism is not a model: "
                             f"{bad[0].code} at {bad[0].where}: {bad[0].message}")
    return out


# ---------------------------------------------------------------------------
# morphism enumeration
# ---------------------------------------------------------------------------


# Refuse a morphism search that would try more component assignments.
_SEARCH_GUARD = 10**6


def _free_objects(sk: Sketch, tgt: Realization) -> list[str]:
    """The objects whose components a morphism search into ``tgt`` enumerates.

    One cone per apex (the first by name) pins the apex component once the
    objects it projects to are pinned, provided no two apex elements of
    ``tgt`` share a projection tuple under it.  So the free objects are the
    non-apexes, the apexes whose cone has such a pair in ``tgt``, and the
    apexes whose cones depend on each other in a cycle.
    """
    apex_cone: dict[str, Cone] = {}
    for name in sorted(sk.cones):
        apex_cone.setdefault(sk.cones[name].apex, sk.cones[name])
    free = {ob for ob in sk.objects if ob not in apex_cone or len(
        _cone_index(tgt, ob, _legs(apex_cone[ob]).values())) < len(tgt.carrier[ob])}
    pinned = set(free)
    while True:
        ready = {apex for apex, cone in apex_cone.items() if apex not in pinned
                 and {cone.nodes[n] for n in cone.projections} <= pinned}
        if not ready:
            return sorted(free | (apex_cone.keys() - pinned))
        pinned |= ready


def _iter_morphisms(R1: Realization, R2: Realization) -> Iterator[RealMorphism]:
    if R1.over != R2.over:
        raise ValueError("realizations are over different sketches")
    free = _free_objects(R1.over, R2)
    space = 1
    for ob in free:
        space *= len(R2.carrier[ob]) ** len(R1.carrier[ob])
        if space > _SEARCH_GUARD:
            raise ValueError(f"search space exceeds {_SEARCH_GUARD} candidates")
    pools = []
    for ob in free:
        dom = R1.carrier[ob].elements
        pools.append(
            [dict(zip(dom, values)) for values in itertools.product(R2.carrier[ob].elements, repeat=len(dom))]
        )
    seeds = (dict(zip(free, picks)) for picks in itertools.product(*pools))
    return (phi for phi in _extensions(R1, R2, seeds) if phi is not None)


def enumerate_morphisms(R1: Realization, R2: Realization) -> list[RealMorphism]:
    """All natural transformations R1 -> R2, in a fixed deterministic order.

    Components are enumerated only at the free objects (see
    ``_free_objects``); forced extension pins the rest of each candidate.
    A search of more than ``_SEARCH_GUARD`` candidates raises ValueError.
    """
    return list(_iter_morphisms(R1, R2))


def is_isomorphic(R1: Realization, R2: Realization) -> RealMorphism | None:
    """First componentwise-bijective morphism in enumeration order, if any."""
    if any(len(R1.carrier[ob]) != len(R2.carrier[ob]) for ob in R1.over.objects):
        return None
    for phi in _iter_morphisms(R1, R2):
        if all(is_bijection(fn) for fn in phi.components.values()):
            return phi
    return None


# ---------------------------------------------------------------------------
# forced extension
# ---------------------------------------------------------------------------


def extend_morphism(
    src: Realization, tgt: Realization, seed: dict[str, dict[str, str]]
) -> RealMorphism | None:
    """Grow a partial component assignment into a full natural transformation.

    Propagates along arrow actions, and lifts along monos and cones: an
    element whose projections are all assigned goes to the target element
    with the same images.  Forced means unique: where several target
    elements share those images the element is left unforced.  Returns
    None when the seed forces a conflict or a lift with no target element,
    or fails to determine every component.
    """
    return next(_extensions(src, tgt, [seed]))


def _cone_index(R: Realization, apex: str, legs: Iterable[str]
                ) -> dict[tuple[str, ...], str | None]:
    """The apex element over each tuple of images along the arrows ``legs``,
    None where several share the tuple: a lift is forced only when unique.
    Kept on the apex carrier while the legs are the same (weakly held)
    functions."""
    carrier, legs = R.carrier[apex], tuple(legs)
    maps = [R.action[a] for a in legs]
    cache = carrier.__dict__.setdefault("_cone_indexes", {})
    hit = cache.get(legs)
    if hit is not None and all(r() is f for r, f in zip(hit[0], maps)):
        return hit[1]
    index: dict[tuple[str, ...], str | None] = {}
    for y, t in apex_tuples(carrier.elements, [f.mapping.get for f in maps]):
        index[t] = None if t in index else y
    cache[legs] = [weakref.ref(f) for f in maps], index
    return index


def _extensions(
    src: Realization, tgt: Realization, seeds: Iterable[dict[str, dict[str, str]]]
) -> Iterator[RealMorphism | None]:
    """``extend_morphism`` of each seed in turn, over links built once.

    ``arrows[ob]`` holds each arrow out of ``ob`` as its target object and
    its two actions.  ``over[ob]`` holds, for each leg into ``ob`` of a
    mono (a cone with one projection) or a cone, the apex, each leg's
    object and source action, the target's ``_cone_index`` and the source
    apex elements over each value of this leg.  Cones without projections
    sit under ``None``, every apex element over the value ``None``.
    """
    sk = src.over
    if sk != tgt.over:
        raise ValueError("realizations are over different sketches")
    arrows: dict[str | None, list] = {ob: [] for ob in (None, *sk.objects)}
    over: dict[str | None, list] = {ob: [] for ob in (None, *sk.objects)}
    for aid, decl in sk.arrows.items():
        arrows[decl.src].append((decl.tgt, src.action[aid].mapping, tgt.action[aid].mapping))
    lifts = [(sk.arrows[m].src, (m,)) for m in sorted(sk.monos)]
    lifts += [(sk.cones[name].apex, tuple(_legs(sk.cones[name]).values()))
              for name in sorted(sk.cones)]
    for apex, legs in lifts:
        index = _cone_index(tgt, apex, legs)
        below = [(sk.arrows[a].tgt, src.action[a].mapping) for a in legs]
        if not legs:
            over[None].append((apex, below, index, {None: src.carrier[apex].elements}))
        for ob, f in below:
            above: dict[str, list[str]] = {}
            for x, v in f.items():
                above.setdefault(v, []).append(x)
            over[ob].append((apex, below, index, above))
    for seed in seeds:
        yield _propagate(src, tgt, seed, arrows, over)


def _propagate(
    src: Realization,
    tgt: Realization,
    seed: dict[str, dict[str, str]],
    arrows: dict[str | None, list],
    over: dict[str | None, list],
) -> RealMorphism | None:
    """Extend ``seed`` by a worklist that queues each assignment once.

    Popping ``x -> y`` checks or assigns each arrow's square at ``x``, so
    a complete result is natural, then lifts each unassigned element over
    ``x`` whose projections are now all assigned.  The first pop, of
    ``None``, lifts the apexes of the cones without projections.
    """
    sk = src.over
    comp: dict[str, dict[str, str]] = {ob: {} for ob in sk.objects}
    todo: list[tuple] = []
    for ob, m in seed.items():
        for x, y in m.items():
            if ob not in comp or x not in src.carrier[ob] or y not in tgt.carrier[ob]:
                raise ValueError(f"seed {x!r} -> {y!r} not in the {ob!r} carriers")
            comp[ob][x] = y
            todo.append((ob, x, y))
    todo.append((None, None, None))
    while todo:
        ob, x, y = todo.pop()
        for ob2, f, g in arrows[ob]:
            x2, y2 = f[x], g[y]
            c = comp[ob2]
            old = c.get(x2)
            if old is None:
                c[x2] = y2
                todo.append((ob2, x2, y2))
            elif old != y2:
                return None
        for apex, below, index, above in over[ob]:
            c = comp[apex]
            for a in above.get(x, ()):
                if a in c:
                    continue
                t = []
                for n, f in below:
                    v = comp[n].get(f[a])
                    if v is None:
                        break
                    t.append(v)
                else:
                    t = tuple(t)
                    if t not in index:
                        return None
                    b = index[t]
                    if b is not None:
                        c[a] = b
                        todo.append((apex, a, b))
    if any(len(comp[ob]) != len(src.carrier[ob]) for ob in sk.objects):
        return None
    return RealMorphism(src, tgt, {
        ob: FinFunction(src.carrier[ob], tgt.carrier[ob],
                        {x: comp[ob][x] for x in src.carrier[ob]})
        for ob in sk.objects})
