"""Representable specifications and desk-scale embedding checks.

The representable at an object X is the free specification on a single
generator at X: one element is planted and the cone repair of the chase
closes it up.  Over a broken sketch this closure is finite, which is what
makes rules-as-representables computable at all.
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import ChaseDiverged, _Chase, saturate
from .finset import is_bijection
from .localizer import paths_equivalent
from .realization import RealMorphism, Realization, extend_morphism
from .sketch import Sketch, ValidationReport, Violation


@dataclass(frozen=True)
class Representable:
    at: str
    spec: Realization
    generator: str


def generator_of(ob: str) -> str:
    """The name of the one generator of the representable at ``ob``."""
    return f"{ob}#0"


def representable(sk: Sketch, ob: str) -> Representable:
    """Compute the representable specification at ``ob``.

    Runs the chase with no rules on the one-generator presentation.  Over
    a sketch that still has productive cycles the closure is infinite; the
    chase budget turns that into an error here.
    """
    if ob not in sk.objects:
        raise ValueError(f"unknown object {ob!r} in sketch {sk.name}")
    generator = generator_of(ob)
    st = _Chase(sk, {ob: (generator,)}, {})
    try:
        st.repair(full=True)
    except ChaseDiverged as exc:
        raise RuntimeError(
            f"representable at {ob} not finitely closed") from exc
    return Representable(ob, st.realization(), generator)


def yoneda_arrow(sk: Sketch, arrow: str, rep=None) -> RealMorphism:
    """The contravariant action on an arrow f: X -> Z, as Y(Z) -> Y(X).

    Sends Z's generator to the image of X's generator under the recorded
    action of f, then extends uniquely.  ``rep(ob)``, if given, supplies
    the representable at ``ob`` in place of a new chase.
    """
    decl = sk.arrows.get(arrow)
    if decl is None:
        raise ValueError(f"unknown arrow {arrow!r} in sketch {sk.name}")
    rep = rep or (lambda ob: representable(sk, ob))
    y_src, y_tgt = rep(decl.src), rep(decl.tgt)
    target_image = y_src.spec.action[arrow](y_src.generator)
    phi = extend_morphism(y_tgt.spec, y_src.spec,
                          {decl.tgt: {y_tgt.generator: target_image}})
    if phi is None:
        raise RuntimeError(
            f"the contravariant action of {arrow} did not extend to a "
            "morphism of representables")
    return phi


def faithfulness_check(sk: Sketch) -> ValidationReport:
    """Check that distinct parallel arrows give distinct morphisms.

    Arrows equated by the sketch's path equations are allowed to collide;
    those show up as warnings, anything else as an error.
    """
    by_endpoints: dict[tuple[str, str], list[str]] = {}
    for aid in sorted(sk.arrows):
        decl = sk.arrows[aid]
        by_endpoints.setdefault((decl.src, decl.tgt), []).append(aid)
    violations: list[Violation] = []
    for (src, tgt), group in sorted(by_endpoints.items()):
        if len(group) < 2:
            continue
        images = {aid: yoneda_arrow(sk, aid) for aid in group}
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if images[a] != images[b]:
                    continue
                if paths_equivalent(sk, (a,), (b,)):
                    violations.append(Violation(
                        "yoneda-expected-collision", f"{a}/{b}",
                        f"arrows {a} and {b} are equated by the sketch and "
                        "give the same morphism", severity="warning"))
                else:
                    violations.append(Violation(
                        "yoneda-not-faithful", f"{a}/{b}",
                        f"distinct arrows {a} and {b}: {src} -> {tgt} give "
                        "the same morphism of representables"))
    return ValidationReport(tuple(violations))


def density_check(sk: Sketch, spec: Realization) -> ValidationReport:
    """Compare ``spec`` with the colimit of its own elements.

    Every element of the specification is taken as a generator and every
    recorded action as a relation; the chase with no rules closes that
    presentation, and its embedding is the canonical comparison map from
    the specification to the colimit.  Density asks for that map to be an
    isomorphism, which holds exactly when every component is a bijection.
    """
    if spec.over != sk:
        raise ValueError(f"specification is over sketch {spec.over.name}, "
                         f"not over sketch {sk.name}")
    run = saturate(spec, [])
    if all(is_bijection(fn) for fn in run.embedding.components.values()):
        return ValidationReport(())
    return ValidationReport((Violation(
        "density-failed", sk.name,
        "the comparison map from the specification to the colimit of its "
        "element presentation is not an isomorphism"),))
