"""Frozen copies of morphism enumeration as it was before it ran forced
extension, and of forced extension as it was before it ran a worklist.

Test-only reference: components are enumerated at the objects that are not
cone apexes (and at apexes whose cones depend on each other in a cycle),
every other apex component is derived through one cone's comparison index,
in dependency order, and each candidate is kept when it is natural.  The
differential tests require ``enumerate_morphisms`` and ``is_isomorphic`` to
return exactly what this module returns, in the same order, on model
targets.

``extend_morphism`` sweeps every arrow, mono and cone until nothing changes
and then checks every naturality square; a mono or cone lift takes the last
preimage or the first apex element.  On model targets every lift is unique,
and the differential tests require the library to return the same
extension.  Do not optimise either.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from limsketch.finset import FinFunction, is_bijection
from limsketch.realization import RealMorphism, Realization
from limsketch.sketch import Cone, Sketch

GUARD = 10**6


def _derivation_plan(sk: Sketch) -> tuple[list[str], list[tuple[str, Cone]]]:
    # one cone per apex is enough to pin the component; naturality checks the rest
    apex_cone: dict[str, Cone] = {}
    for name in sorted(sk.cones):
        apex_cone.setdefault(sk.cones[name].apex, sk.cones[name])
    free = [ob for ob in sk.objects if ob not in apex_cone]
    assigned = set(free)
    order: list[tuple[str, Cone]] = []
    pending = dict(apex_cone)
    while pending:
        ready = [
            apex
            for apex in sorted(pending)
            if {pending[apex].nodes[n] for n in pending[apex].projections} <= assigned
        ]
        if not ready:
            free.extend(sorted(pending))  # cyclically dependent apexes: brute force
            break
        for apex in ready:
            order.append((apex, pending.pop(apex)))
            assigned.add(apex)
    return sorted(free), order


def _cone_index(R: Realization, cone: Cone) -> dict[tuple[str, ...], str]:
    maps = [R.action[cone.projections[n]].mapping for n in sorted(cone.projections)]
    index: dict[tuple[str, ...], str] = {}
    for y in R.carrier[cone.apex]:
        index.setdefault(tuple(m[y] for m in maps), y)
    return index


def _natural(phi: RealMorphism) -> bool:
    for aid, decl in phi.src.over.arrows.items():
        fx, fy = phi.components[decl.src].mapping, phi.components[decl.tgt].mapping
        act1, act2 = phi.src.action[aid].mapping, phi.tgt.action[aid].mapping
        for x in phi.src.carrier[decl.src]:
            if fy[act1[x]] != act2[fx[x]]:
                return False
    return True


def _iter_morphisms(R1: Realization, R2: Realization, guard: int) -> Iterator[RealMorphism]:
    if R1.over != R2.over:
        raise ValueError("realizations are over different sketches")
    sk = R1.over
    free, order = _derivation_plan(sk)
    space = 1
    for ob in free:
        space *= len(R2.carrier[ob]) ** len(R1.carrier[ob])
        if space > guard:
            raise ValueError(f"search space exceeds {guard} candidates")
    if space == 0:
        return
    indexes = {apex: _cone_index(R2, cone) for apex, cone in order}
    pools = []
    for ob in free:
        dom = R1.carrier[ob].elements
        pools.append(
            [dict(zip(dom, values)) for values in itertools.product(R2.carrier[ob].elements, repeat=len(dom))]
        )
    for picks in itertools.product(*pools):
        mapping = {ob: dict(m) for ob, m in zip(free, picks)}
        if not _derive_apexes(R1, mapping, order, indexes):
            continue
        components = {
            ob: FinFunction(R1.carrier[ob], R2.carrier[ob], mapping[ob]) for ob in sk.objects
        }
        candidate = RealMorphism(R1, R2, components)
        if _natural(candidate):
            yield candidate


def _derive_apexes(
    R1: Realization,
    mapping: dict[str, dict[str, str]],
    order: list[tuple[str, Cone]],
    indexes: dict[str, dict[tuple[str, ...], str]],
) -> bool:
    for apex, cone in order:
        keys = sorted(cone.projections)
        comp: dict[str, str] = {}
        for x in R1.carrier[apex]:
            t = tuple(
                mapping[cone.nodes[n]][R1.action[cone.projections[n]](x)] for n in keys
            )
            y = indexes[apex].get(t)
            if y is None:
                return False
            comp[x] = y
        mapping[apex] = comp
    return True


def search_space(R1: Realization, R2: Realization) -> int:
    """The function-space product the enumeration walks."""
    space = 1
    for ob in _derivation_plan(R1.over)[0]:
        space *= len(R2.carrier[ob]) ** len(R1.carrier[ob])
    return space


def enumerate_morphisms(R1: Realization, R2: Realization) -> list[RealMorphism]:
    return list(_iter_morphisms(R1, R2, GUARD))


def is_isomorphic(R1: Realization, R2: Realization) -> RealMorphism | None:
    if any(len(R1.carrier[ob]) != len(R2.carrier[ob]) for ob in R1.over.objects):
        return None
    for phi in _iter_morphisms(R1, R2, GUARD):
        if all(is_bijection(fn) for fn in phi.components.values()):
            return phi
    return None


def extend_morphism(
    src: Realization, tgt: Realization, seed: dict[str, dict[str, str]]
) -> RealMorphism | None:
    return next(_extensions(src, tgt, [seed]))


def _extensions(
    src: Realization, tgt: Realization, seeds: Iterable[dict[str, dict[str, str]]]
) -> Iterator[RealMorphism | None]:
    sk = src.over
    if sk != tgt.over:
        raise ValueError("realizations are over different sketches")
    mono_inverse = {}
    for m in sk.monos:
        fn = tgt.action[m]
        mono_inverse[m] = {fn(x): x for x in fn.dom}
    indexes = {name: _cone_index(tgt, cone) for name, cone in sk.cones.items()}
    for seed in seeds:
        yield _propagate(src, tgt, seed, mono_inverse, indexes)


def _propagate(
    src: Realization,
    tgt: Realization,
    seed: dict[str, dict[str, str]],
    mono_inverse: dict[str, dict[str, str]],
    indexes: dict[str, dict[tuple[str, ...], str]],
) -> RealMorphism | None:
    sk = src.over
    comp: dict[str, dict[str, str]] = {ob: {} for ob in sk.objects}
    for ob, m in seed.items():
        for x, y in m.items():
            if x not in src.carrier[ob] or y not in tgt.carrier[ob]:
                raise ValueError(f"seed {x!r} -> {y!r} not in the {ob!r} carriers")
            comp[ob][x] = y

    conflict = False

    def assign(ob: str, x: str, y: str) -> bool:
        nonlocal conflict
        cur = comp[ob].get(x)
        if cur is None:
            comp[ob][x] = y
            return True
        if cur != y:
            conflict = True
        return False

    changed = True
    while changed and not conflict:
        changed = False
        for aid, decl in sk.arrows.items():
            act1, act2 = src.action[aid], tgt.action[aid]
            for x, y in list(comp[decl.src].items()):
                if assign(decl.tgt, act1(x), act2(y)):
                    changed = True
        for m in sorted(sk.monos):
            decl = sk.arrows[m]
            act1 = src.action[m]
            for x in src.carrier[decl.src]:
                if x in comp[decl.src]:
                    continue
                hx = act1(x)
                if hx not in comp[decl.tgt]:
                    continue
                pre = mono_inverse[m].get(comp[decl.tgt][hx])
                if pre is None:
                    return None
                if assign(decl.src, x, pre):
                    changed = True
        for name in sorted(sk.cones):
            cone = sk.cones[name]
            keys = sorted(cone.projections)
            for x in src.carrier[cone.apex]:
                if x in comp[cone.apex]:
                    continue
                t = []
                for n in keys:
                    img = comp[cone.nodes[n]].get(src.action[cone.projections[n]](x))
                    if img is None:
                        break
                    t.append(img)
                else:
                    y = indexes[name].get(tuple(t))
                    if y is None:
                        return None
                    if assign(cone.apex, x, y):
                        changed = True
    if conflict:
        return None
    if any(len(comp[ob]) != len(src.carrier[ob]) for ob in sk.objects):
        return None
    phi = RealMorphism(
        src, tgt, {ob: FinFunction(src.carrier[ob], tgt.carrier[ob], comp[ob]) for ob in sk.objects}
    )
    return phi if _natural(phi) else None
