"""Differential tests: a fired proof step against the frozen glue step.

``apply_rule`` fires a rule at one match, as a round of ``saturate`` does:
one fresh witness over the match's element, then repair.  ``oracle_glue``
keeps the step as it was before, the rule's glue representable pushed out
along the match's classifying morphism.  By the Yoneda lemma the two are
the same step up to the names of what they add: at every step below, the
map seeded from both ``h`` legs and from the new witness extends to a
morphism from the fired result onto the glued one, bijective in every
component.

Steps: every step of ``workloads.prove_chain`` for n = 3..15; every
unsatisfied match of both rules on the corpus ``mp_basic``, and a run of
steps alternating the rules; and rule steps on the random models of
``random_state``, the generator behind the random glues of
``test_sharing.py``, extended by a witness object for the rule.
"""

import random

import oracle_glue
from limsketch import dsl, engine
from limsketch.engine import (
    ChaseDiverged,
    Rule,
    apply_rule,
    match_rule,
    rules_of,
)
from limsketch.finset import is_bijection
from limsketch.localizer import as_localiser
from limsketch.realization import extend_morphism
from limsketch.sketch import ArrowDecl, Sketch
from limsketch.yoneda import generator_of, yoneda_arrow

from test_chase_oracle import random_state
from test_engine import MP_RULE
from test_repaired_mark import CORPUS, ENV, workloads


def fire_and_glue(spec, rule, element):
    """Fire ``rule`` at ``element`` and glue it there; require the results
    isomorphic under both ``h`` legs and the new witness.  Returns the
    fired step's result."""
    step = apply_rule(spec, rule, next(m for m in match_rule(rule, spec)
                                       if m.element == element))
    glued, glued_h, witness = oracle_glue.apply_rule(spec, rule, element)
    fired, new = step.tgt, [w for w in step.tgt.carrier[rule.fresh]
                            if w not in spec.carrier[rule.fresh]]
    assert len(new) == 1
    seed = {ob: {} for ob in spec.over.objects}
    for ob, d in spec.carrier.items():
        for x in d:
            assert seed[ob].setdefault(step.h(ob, x), glued_h(ob, x)) == \
                glued_h(ob, x)
    seed[rule.fresh][new[0]] = witness
    phi = extend_morphism(fired, glued, seed)
    assert phi is not None, f"{rule.id} at {element}: no map onto the glue"
    assert all(map(is_bijection, phi.components.values())), \
        f"{rule.id} at {element}: the map onto the glue is not a bijection"
    return fired


def first_unsatisfied(rule, spec):
    return next((m.element for m in match_rule(rule, spec)
                 if not m.satisfied), None)


def test_prove_chain_steps_fire_as_they_glue():
    steps = 0
    for n in range(3, 16):
        spec = workloads.chain(ENV, n, 11 + n)
        while (x := first_unsatisfied(MP_RULE, spec)) is not None:
            spec = fire_and_glue(spec, MP_RULE, x)
            steps += 1
    assert steps == sum(range(3, 16))


def test_mp_basic_steps_of_both_rules_fire_as_they_glue():
    corpus = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    rules = rules_of(as_localiser(corpus["mp_sigma"].morphism))
    basic = corpus["mp_basic"].realization
    fired = 0
    for rule in rules:
        for m in match_rule(rule, basic):
            if not m.satisfied:
                fire_and_glue(basic, rule, m.element)
                fired += 1
    assert fired == 9
    spec, steps = basic, 0
    for k in range(8):
        rule = rules[k % len(rules)]
        x = first_unsatisfied(rule, spec)
        if x is not None:
            spec, steps = fire_and_glue(spec, rule, x), steps + 1
    assert steps == 5


def random_rule_model(seed):
    """A random model and a rule over its sketch, extended by a witness
    object ``W`` with a mono ``h_w`` into a random apex and an arrow
    ``c_w`` to a random conclusion object; None when a chase diverges."""
    rng = random.Random(seed)
    sk, carriers, actions = random_state(rng)
    apex, concl = rng.choice(sk.objects), rng.choice(sk.objects)
    sk = Sketch(sk.name, (*sk.objects, "W"), {
        **sk.arrows, "h_w": ArrowDecl("h_w", "W", apex),
        "c_w": ArrowDecl("c_w", "W", concl)}, sk.equations, sk.cones,
        sk.monos | {"h_w"})
    st = engine._Chase(sk, carriers, actions)
    try:
        st.repair(full=True)
        h, c = yoneda_arrow(sk, "h_w"), yoneda_arrow(sk, "c_w")
    except (ChaseDiverged, RuntimeError):
        return None
    return st.realization(), Rule("r_w", h.src, c.src, h.tgt, h, c, apex,
                                  "W", "h_w", "c_w", generator_of(apex))


def test_random_rule_steps_fire_as_they_glue(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    monkeypatch.setattr(oracle_glue.oracle_chase, "_MAX_ELEMENTS", 300)
    steps = 0
    for seed in range(150):
        made = random_rule_model(seed)
        if made is None:
            continue
        spec, rule = made
        for _ in range(3):
            x = first_unsatisfied(rule, spec)
            if x is None:
                break
            try:
                spec = fire_and_glue(spec, rule, x)
            except ChaseDiverged:
                break
            steps += 1
    assert steps >= 300
