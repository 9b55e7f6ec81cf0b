"""Fractions certified by saturating: checked composites and a rule as C/H.

The paper reads a logical rule as the fraction C/H of its conclusion over
its hypothesis, glued along the representable at the witness object; a
composite of proof steps that are not all by construction is re-certified
by saturating both ends under a rule set.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

import limsketch
from limsketch.engine import (
    ChaseConfig,
    Fraction,
    apply_rule,
    check_fraction,
    compose_fractions,
    match_rule,
)

from test_engine import IM_RULE, MP_RULE, RULES, SP, mp_basic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

ENV = workloads.Env(limsketch, {}, SP, RULES, MP_RULE, Path("."))


def step(spec, rule):
    """The proof step at the first unsatisfied match of ``rule``."""
    match = next(m for m in match_rule(rule, spec) if not m.satisfied)
    return apply_rule(spec, rule, match)


def checked(frac):
    return dataclasses.replace(frac, certificate="checked")


def test_composing_a_checked_step_needs_the_rules():
    basic = mp_basic()
    first = checked(step(basic, MP_RULE))
    with pytest.raises(ValueError, match="needs the rule set"):
        compose_fractions(first, step(first.tgt, IM_RULE))


def test_a_checked_step_composes_to_a_checked_composite():
    first = step(workloads.chain(ENV, 3, 3), MP_RULE)
    second = step(first.tgt, MP_RULE)
    proof = compose_fractions(checked(first), second, [MP_RULE])
    assert proof.certificate == "checked"
    assert proof.tgt is second.tgt


def test_a_composite_the_rules_do_not_derive_is_refused():
    # the implication step is not derivable by modus ponens alone
    first = checked(step(mp_basic(), MP_RULE))
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        compose_fractions(first, step(first.tgt, IM_RULE), [MP_RULE])


def test_modus_ponens_is_the_fraction_conclusion_over_hypothesis():
    # c_IM is left out: its hypothesis, a pair of formulas, has an infinite
    # theory under the implication rule, so the check hits the chase budget
    r = MP_RULE
    frac = Fraction(r.hypothesis, r.conclusion, r.glue, r.hyp_to_glue,
                    r.concl_to_glue, "checked")
    check_fraction(frac, [MP_RULE])


def chain_proof(n):
    """The n modus ponens steps of ``workloads.chain``, composed."""
    proof = step(workloads.chain(ENV, n, n), MP_RULE)
    for _ in range(n - 1):
        proof = compose_fractions(proof, step(proof.tgt, MP_RULE))
    return proof


def test_check_fraction_stops_at_the_round_cap_the_caller_passes():
    # under the default ChaseConfig both saturations stop at 32 rounds
    assert ChaseConfig().max_rounds == 32
    check_fraction(chain_proof(31), [MP_RULE])
    proof = chain_proof(32)
    with pytest.raises(RuntimeError,
                       match="fraction check inconclusive: saturation capped"):
        check_fraction(proof, [MP_RULE])
    check_fraction(proof, [MP_RULE], ChaseConfig(max_rounds=33))
