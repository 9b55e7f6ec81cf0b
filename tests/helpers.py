"""Realization helpers only the tests use."""

from limsketch.finset import FinFunction, FinSet
from limsketch.realization import RealMorphism, Realization
from limsketch.sketch import Sketch
from oracle_surface import compose


def empty_realization(sk: Sketch) -> Realization:
    empty = FinSet(())
    return Realization(
        over=sk,
        carrier={ob: empty for ob in sk.objects},
        action={a: FinFunction(empty, empty, {}) for a in sk.arrows},
    )


def compose_morphisms(f: RealMorphism, g: RealMorphism) -> RealMorphism:
    if f.tgt.carrier != g.src.carrier:
        raise ValueError("morphisms do not meet end to end")
    return RealMorphism(
        f.src, g.tgt, {ob: compose(f.components[ob], g.components[ob]) for ob in f.components}
    )
