"""Matches are bare elements; their morphisms are built on first read.

``match_rule`` lists one ``Match`` per apex element and runs no extension.
Reading a match's ``morphism`` runs one, equal to the reference extension
at the generator, and keeps it.  ``apply_rule`` extends every match in one
run only on a spec not marked repaired, where it refuses a spec that is not
cone-valid before it refuses a redundant step; on a repaired spec, a model,
it extends nothing.  No match is kept on any realization.
"""

import pytest

from limsketch import dsl, engine
from limsketch.engine import (
    apply_rule,
    compose_fractions,
    match_rule,
    rules_of,
)
from limsketch.localizer import as_localiser

from test_chase_oracle import reference_matches
from test_cli_failures import NOT_CONE_VALID
from test_engine import MP_RULE, RULES
from test_repaired_mark import CORPUS, ENV, workloads


@pytest.fixture
def extensions(monkeypatch):
    """The seeds of each ``engine._extensions`` run, one list per run."""
    runs = []
    real = engine._extensions

    def counted(src, tgt, seeds):
        seeds = list(seeds)
        runs.append(seeds)
        return real(src, tgt, seeds)
    monkeypatch.setattr(engine, "_extensions", counted)
    return runs


def mp_corpus():
    decls = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    return decls, rules_of(as_localiser(decls["mp_sigma"].morphism))


def proof(n, seed):
    """The specs of ``workloads.prove_chain`` on ``chain(n, seed)``: each
    step at the first unsatisfied match, and every fraction made."""
    spec, frac, specs, fracs = workloads.chain(ENV, n, seed), None, [], []
    while True:
        current = spec if frac is None else frac.tgt
        specs.append(current)
        match = next((m for m in match_rule(MP_RULE, current)
                      if not m.satisfied), None)
        if match is None:
            return specs, fracs
        step = apply_rule(current, MP_RULE, match)
        frac = step if frac is None else compose_fractions(frac, step)
        fracs += [step, frac]


def test_listing_matches_runs_no_extension(extensions):
    decls, corpus_rules = mp_corpus()
    cases = [(corpus_rules, decls["mp_basic"].realization)] + [
        (RULES, spec) for spec in proof(6, 17)[0]]
    extensions.clear()
    for rules, spec in cases:
        for rule in rules:
            got = match_rule(rule, spec)
            assert [m.element for m in got] == list(
                spec.carrier[rule.apex].elements)
    assert extensions == []


def test_reading_a_morphism_runs_one_extension_and_keeps_it(extensions):
    decls, corpus_rules = mp_corpus()
    for rules, spec in ((corpus_rules, decls["mp_basic"].realization),
                        (RULES, workloads.chain(ENV, 5, 5))):
        for rule in rules:
            want = reference_matches(rule, spec)
            for i, m in enumerate(match_rule(rule, spec)):
                extensions.clear()
                phi = m.morphism
                assert len(extensions) == 1 and len(extensions[0]) == 1
                assert m.morphism is phi and len(extensions) == 1
                assert phi == want[i].morphism


def test_matches_are_equal_whether_or_not_the_morphism_was_read():
    spec = workloads.chain(ENV, 4, 3)
    read, unread = match_rule(MP_RULE, spec), match_rule(MP_RULE, spec)
    for m in read:
        m.morphism
    assert "morphism" not in unread[0].__dict__
    assert read == unread and unread == read


def test_a_step_on_a_repaired_spec_runs_no_extension(extensions):
    spec = workloads.chain(ENV, 8, 4)
    assert not spec._repaired
    steps = 0
    while (match := next((m for m in match_rule(MP_RULE, spec)
                          if not m.satisfied), None)) is not None:
        extensions.clear()
        result = apply_rule(spec, MP_RULE, match).tgt
        if spec._repaired:
            assert extensions == []
        else:  # the input: every match extends, in one run
            assert len(extensions) == 1
            assert len(extensions[0]) == len(spec.carrier[MP_RULE.apex])
        assert result._repaired
        spec, steps = result, steps + 1
    assert steps == 8


def test_no_realization_keeps_matches():
    specs, fracs = proof(5, 9)
    for m in match_rule(MP_RULE, specs[-1]):
        m.morphism
    seen = specs + [x for f in fracs for x in (f.src, f.mid, f.tgt)]
    assert all("_matches" not in s.__dict__ for s in seen)


def test_a_spec_that_is_not_cone_valid_is_refused_at_a_match_that_extends():
    decls = {d.name: d for d in dsl.parse(NOT_CONE_VALID)}
    rule = next(r for r in rules_of(as_localiser(decls["mp_sigma"].morphism))
                if r.id == "c_IM")
    spec = decls["mp_basic"].realization
    matches = {m.element: m for m in match_rule(rule, spec)}
    assert matches["p_p"].morphism is not None
    with pytest.raises(RuntimeError, match="cone-valid"):
        apply_rule(spec, rule, matches["p_p"])
    # the refusal comes before the redundant-step refusal
    assert matches["p_q"].satisfied
    with pytest.raises(RuntimeError, match="cone-valid"):
        apply_rule(spec, rule, matches["p_q"])
