"""A frozen copy of the rule step as a glue, before a step became a firing.

Test-only reference: ``apply_rule`` extends the rule's hypothesis at the
generator to its classifying morphism into the spec, and pushes the rule's
glue representable out along that morphism and the rule's ``h`` leg, on the
frozen full-scan chase of ``oracle_chase``.  The differential tests require
every fired step to be isomorphic to this one.  Do not optimise it.
"""
from __future__ import annotations

import oracle_chase
from limsketch.engine import Rule
from limsketch.finset import FinFunction
from limsketch.realization import RealMorphism, Realization, extend_morphism
from limsketch.yoneda import generator_of


def glue_state(left: Realization, right: Realization,
               left_leg: dict[str, FinFunction],
               right_leg: dict[str, FinFunction]) -> tuple[
                   oracle_chase._Chase, dict[str, dict[str, str]]]:
    """Push ``left`` out along the span ``left_leg``, ``right_leg`` onto
    ``right`` and repair; returns the state and the names of ``left``'s
    elements in it.  Left elements outside the image of ``left_leg`` keep
    their names, primed until free."""
    st = oracle_chase._state_of(right)
    names: dict[str, dict[str, str]] = {}
    for ob in st.sk.objects:
        names[ob] = own = {}
        for a, x in left_leg[ob].mapping.items():
            y = right_leg[ob](a)
            if own.setdefault(x, y) != y:
                st.enqueue(ob, own[x], y)
        for x in left.carrier[ob].elements:
            if x not in own:
                name = x
                while name in st.uf[ob].parent:
                    name += "'"
                st._register(ob, name)
                own[x] = name
    for aid, decl in st.sk.arrows.items():
        for x, y in left.action[aid].mapping.items():
            st.put(aid, names[decl.src][x], names[decl.tgt][y])
    st.drain()
    st.repair(full=True)
    return st, names


def apply_rule(spec: Realization, rule: Rule, element: str) -> tuple[
        Realization, RealMorphism, str]:
    """Glue ``rule`` at the match ``element`` of ``spec``; returns the
    result, the embedding of ``spec`` into it and the image of the glue's
    generator, the new witness at ``rule.fresh``."""
    phi = extend_morphism(rule.hypothesis, spec,
                          {rule.apex: {rule.generator: element}})
    if phi is None:
        raise RuntimeError(f"match {element} of rule {rule.id} has no "
                           "classifying morphism")
    st, names = glue_state(rule.glue, spec, rule.hyp_to_glue.components,
                           phi.components)
    result = st.realization()
    witness = names[rule.fresh][generator_of(rule.fresh)]
    return result, st.leg(spec, result), st.uf[rule.fresh].find(witness)
