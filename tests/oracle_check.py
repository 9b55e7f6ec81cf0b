"""A frozen copy of the cone check as it was before it counted restrictions
in bulk.

Test-only reference: one dict entry per enumerated family, a stop at the
family whose restriction first outnumbers the apex tuples, and every
restriction sorted at the end.  The differential tests require
``limsketch.realization.check_realization`` to report exactly the
violations that :func:`check_realization` here reports, in order.  Do not
optimise it.
"""
from __future__ import annotations

from unittest import mock

from limsketch import realization
from limsketch.finset import join
from limsketch.realization import Realization, apex_tuples, cone_reader
from limsketch.sketch import Cone, ValidationReport, Violation


def check_cone(R: Realization, cone: Cone, out: list[Violation]) -> None:
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
    pinned_plan = None if complete else seeded(plan.nodes[:k])
    buckets: dict = {}
    carriers = [R.carrier[ob] for ob in objects[:k]]

    def pinned(t: tuple[str, ...]) -> bool:
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


def check_realization(R: Realization) -> ValidationReport:
    """The library's check, with this module's cone check in its place."""
    with mock.patch.object(realization, "_check_cone", check_cone):
        return realization.check_realization(R)
