"""Composing along an identity leg: the pushout of an identity ``f1.c``
and a name-keeping ``f2.h`` into a repaired ``f2.mid`` is ``f2.mid``
itself, so ``compose_fractions`` returns ``(f2.h . f1.h, f2.c)`` with no
chase.

Differential: at every step of ``workloads.prove_chain`` (n = 3..15) and
of the ``mp_basic`` ``apply_rule`` steps, the shortcut's composite equals
the glued one.  Fallback: each guard, when it fails, sends the call to the
glue, which still gives the glued answer.
"""

import dataclasses

import pytest

from limsketch import dsl, engine
from limsketch.engine import (
    Fraction,
    apply_rule,
    compose_fractions,
    match_rule,
    rules_of,
    saturate,
)
from limsketch.localizer import as_localiser
from limsketch.realization import identity_morphism
from oracle_surface import identity_fraction

from test_engine import GRAPH, MP_RULE, inclusion, mk
from test_repaired_mark import CORPUS, ENV, workloads
from test_sharing import moved


@pytest.fixture
def glues(monkeypatch):
    """The number of ``_glue_state`` calls so far, as a one-item list."""
    calls = [0]
    real = engine._glue_state

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(engine, "_glue_state", counted)
    return calls


def glued(monkeypatch, f1, f2, **kw):
    """``compose_fractions(f1, f2)`` with the shortcut switched off."""
    with monkeypatch.context() as m:
        m.setattr(engine, "_glues_nothing", lambda f1, f2: False)
        return compose_fractions(f1, f2, **kw)


def compose_both_ways(monkeypatch, frac, step):
    """Compose ``step`` onto ``frac`` (or start with it), requiring the
    shortcut to be taken and to equal the glued composite."""
    if frac is None:
        return step
    got = compose_fractions(frac, step)
    assert got.mid is step.mid and got.c is step.c
    assert got == glued(monkeypatch, frac, step)
    return got


def test_prove_chain_steps_equal_the_glued_composites(monkeypatch):
    for n in range(3, 16):
        spec = workloads.chain(ENV, n, 11 + n)
        frac = None
        while True:
            current = spec if frac is None else frac.tgt
            match = next((m for m in match_rule(MP_RULE, current)
                          if not m.satisfied), None)
            if match is None:
                break
            frac = compose_both_ways(monkeypatch, frac,
                                     apply_rule(current, MP_RULE, match))
        assert len(frac.tgt.carrier["Theo"]) == 2 * n + 1


def test_mp_basic_steps_equal_the_glued_composites(monkeypatch):
    corpus = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    rules = rules_of(as_localiser(corpus["mp_sigma"].morphism))
    frac, spec, steps = None, corpus["mp_basic"].realization, 0
    for k in range(6):
        rule = rules[k % len(rules)]
        match = next((m for m in match_rule(rule, spec) if not m.satisfied),
                     None)
        if match is None:
            continue
        frac = compose_both_ways(monkeypatch, frac,
                                 apply_rule(spec, rule, match))
        spec = frac.tgt
        steps += 1
    assert steps >= 4


def two_steps():
    """Two MP steps on chain(3): the first, and the second as a fraction."""
    spec = workloads.chain(ENV, 3, 14)
    first = apply_rule(spec, MP_RULE, next(
        m for m in match_rule(MP_RULE, spec) if not m.satisfied))
    second = apply_rule(first.tgt, MP_RULE, next(
        m for m in match_rule(MP_RULE, first.tgt) if not m.satisfied))
    return first, second


def test_an_unrepaired_middle_takes_the_glue(glues):
    first, second = two_steps()
    mid = dataclasses.replace(second.mid)
    assert not mid._repaired
    step = Fraction(second.src, mid, mid, moved(second.h, second.src, mid),
                    identity_morphism(mid), second.certificate)
    before = glues[0]
    got = compose_fractions(first, step)
    assert glues[0] == before + 1
    assert got == compose_fractions(first, second)


def test_a_checked_certificate_takes_the_glue(glues):
    first, second = two_steps()
    step = dataclasses.replace(second, certificate="checked")
    before = glues[0]
    got = compose_fractions(first, step, rules=[MP_RULE])
    assert glues[0] == before + 1
    assert got.certificate == "checked"
    assert got == dataclasses.replace(compose_fractions(first, second),
                                      certificate="checked")


def test_a_first_leg_that_is_no_identity_takes_the_glue(glues):
    first, second = two_steps()
    # an equal copy of the identity, but not the carriers' own identity
    prior = dataclasses.replace(first, c=moved(first.c, first.tgt, first.mid))
    before = glues[0]
    got = compose_fractions(prior, second)
    assert glues[0] == before + 1
    assert got == compose_fractions(first, second)


def repaired(sk, carrier):
    """A repaired realization with these carriers and no actions."""
    out = saturate(mk(sk, carrier, {}), []).result
    assert out._repaired
    return out


def test_a_renaming_leg_into_a_repaired_middle_takes_the_glue(glues):
    # as test_compose_primes_a_name_freed_by_a_non_injective_leg, with the
    # middle object repaired so that only the name guard refuses
    s = mk(GRAPH, {"V": ("a", "b")}, {})
    q = repaired(GRAPH, {"V": ("q", "b")})
    h = inclusion(s, q, a="q", b="q")
    before = glues[0]
    proof = compose_fractions(
        identity_fraction(s),
        Fraction(s, q, q, h, identity_morphism(q), "by-construction"))
    assert glues[0] == before + 1
    assert proof.mid.carrier["V"].elements == ("a", "b'")
    assert proof.h.components["V"].mapping == {"a": "a", "b": "a"}
    assert proof.c.components["V"].mapping == {"q": "a", "b": "b'"}


def test_old_elements_out_of_order_take_the_glue(monkeypatch, glues):
    # the leg keeps every name, but the middle object lists b before a
    s = mk(GRAPH, {"V": ("a", "b")}, {})
    q = repaired(GRAPH, {"V": ("b", "c", "a")})
    f2 = Fraction(s, q, q, inclusion(s, q), identity_morphism(q),
                  "by-construction")
    before = glues[0]
    proof = compose_fractions(identity_fraction(s), f2)
    assert glues[0] == before + 1
    assert proof.mid.carrier["V"].elements == ("a", "b", "c")
    assert proof == glued(monkeypatch, identity_fraction(s), f2)


def test_old_elements_first_take_the_shortcut(monkeypatch, glues):
    s = mk(GRAPH, {"V": ("a", "b")}, {})
    q = repaired(GRAPH, {"V": ("a", "b", "c")})
    f2 = Fraction(s, q, q, inclusion(s, q), identity_morphism(q),
                  "by-construction")
    before = glues[0]
    proof = compose_fractions(identity_fraction(s), f2)
    assert glues[0] == before
    assert proof.mid is q
    assert proof == glued(monkeypatch, identity_fraction(s), f2)
