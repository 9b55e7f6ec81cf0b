"""The chase's repaired mark: a realization extracted with every repair unit
clean lets the next chase from it skip each unit until the unit reads a
change.

Differential: chasing from a marked realization gives byte-equal output to
the same call on an unmarked equal copy (``dataclasses.replace``), and on
random non-models the chase agrees with the frozen full-scan oracle.
Soundness: every realization the engine marks passes ``check_realization``,
and a capped result, a parsed spec and a ``restrict_along`` output are not
marked.
"""

import dataclasses
import random
import sys
from importlib import resources
from pathlib import Path

import limsketch
import oracle_chase
from limsketch import dsl, engine, yoneda
from limsketch.engine import (
    ChaseConfig,
    ChaseDiverged,
    apply_rule,
    check_fraction,
    compose_fractions,
    match_rule,
    rules_of,
    saturate,
    trace_lines,
)
from limsketch.finset import FinFunction, FinSet
from limsketch.localizer import SketchMorphism, as_localiser
from limsketch.realization import check_realization, restrict_along

from test_chase_oracle import broken_corpus_sketches, random_state
from test_engine import MP_RULE, RULES, SP, mp_basic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

CORPUS = resources.files("limsketch") / "corpus"
ENV = workloads.Env(limsketch, {}, SP, RULES, MP_RULE, Path("."))


def unmarked(spec):
    copy = dataclasses.replace(spec)
    assert copy == spec and repr(copy) == repr(spec)
    assert not copy._repaired
    return copy


def spec_text(spec) -> str:
    return dsl.serialize(dsl.NamedSpec("s", spec))


def leg_items(phi) -> dict:
    return {ob: list(fn.mapping.items()) for ob, fn in phi.components.items()}


def frac_text(f) -> tuple:
    return (spec_text(f.src), spec_text(f.mid), spec_text(f.tgt),
            leg_items(f.h), leg_items(f.c), f.certificate)


def run_text(res) -> tuple:
    return (trace_lines(res), spec_text(res.result), leg_items(res.embedding))


def assert_sound(spec) -> None:
    """A marked realization is a model of its sketch."""
    assert spec._repaired
    report = check_realization(spec)
    assert report.ok, str(report)


def prove_both_ways(spec, rule, limit):
    """``workloads.prove_chain``, with each ``apply_rule``,
    ``compose_fractions`` and ``check_fraction`` also run on unmarked
    copies of its inputs and required to give the same output."""
    frac = None
    for _ in range(limit + 1):
        current = spec if frac is None else frac.tgt
        match = next((m for m in match_rule(rule, current)
                      if not m.satisfied), None)
        if match is None:
            break
        step = apply_rule(current, rule, match)
        assert frac_text(step) == frac_text(
            apply_rule(unmarked(current), rule, match))
        assert_sound(step.mid)
        if frac is None:
            frac = step
            continue
        composite = compose_fractions(frac, step)
        assert frac_text(composite) == frac_text(compose_fractions(
            dataclasses.replace(frac, mid=unmarked(frac.mid)), step))
        assert_sound(composite.mid)
        frac = composite
    sat = saturate(frac.mid, [rule])
    assert run_text(sat) == run_text(saturate(unmarked(frac.mid), [rule]))
    check_fraction(frac, [rule])
    check_fraction(dataclasses.replace(frac, mid=unmarked(frac.mid)), [rule])
    return frac


def test_proof_steps_equal_from_unmarked_copies():
    for n in (3, 5, 8):
        frac = prove_both_ways(workloads.chain(ENV, n, 11 + n), MP_RULE, 2 * n)
        assert frac.certificate == "by-construction"
        assert len(frac.tgt.carrier["Theo"]) == 2 * n + 1


def test_apply_rule_steps_on_mp_basic_equal_from_unmarked_copies():
    corpus = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    rules = rules_of(as_localiser(corpus["mp_sigma"].morphism))
    spec = corpus["mp_basic"].realization
    steps = 0
    for k in range(6):
        rule = rules[k % len(rules)]
        match = next((m for m in match_rule(rule, spec)
                      if not m.satisfied), None)
        if match is None:
            continue
        step = apply_rule(spec, rule, match)
        assert frac_text(step) == frac_text(
            apply_rule(unmarked(spec), rule, match))
        assert_sound(step.mid)
        spec = step.tgt
        steps += 1
    assert steps >= 4


def random_non_model(seed):
    """A realization over a random sketch, repaired but for its cones, or
    None when that repair runs out of budget."""
    st = engine._Chase(*random_state(random.Random(seed)))
    try:
        st.repair(full=False)
    except ChaseDiverged:
        return None
    return st.realization()


def glued(left, right, ob, x, y):
    """Glue ``left`` onto ``right`` identifying ``x`` with ``y`` at ``ob``;
    the repaired result, names, round, right leg and mark."""
    def leg(target, value):
        return {o: FinFunction(FinSet((x,) if o == ob else ()),
                               target.carrier[o],
                               {x: value} if o == ob else {})
                for o in target.over.objects}
    try:
        st, names = engine._glue_state(left, right, leg(left, x),
                                       leg(right, y))
    except ChaseDiverged as exc:
        return str(exc)
    out = st.realization()
    return (spec_text(out), names, st.take_round(),
            leg_items(st.leg(right, out)), out)


def test_random_non_models(monkeypatch):
    """Saturating a random non-model agrees with the oracle, its fixpoint
    is marked and sound, and gluing onto that fixpoint gives the same
    output as gluing onto an unmarked copy."""
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    monkeypatch.setattr(oracle_chase, "_MAX_ELEMENTS", 300)
    non_models = glues = 0
    for seed in range(200):
        R = random_non_model(seed)
        if R is None:
            continue
        assert not R._repaired
        non_models += not check_realization(R).ok
        try:
            res = saturate(R, [])
        except ChaseDiverged:
            continue
        assert run_text(res) == run_text(oracle_chase.saturate(R, [])), \
            f"seed {seed}"
        M = res.result
        assert_sound(M)
        ob = next((o for o in M.over.objects
                   if R.carrier[o].elements and M.carrier[o].elements), None)
        if ob is None:
            continue
        x, y = R.carrier[ob].elements[0], M.carrier[ob].elements[-1]
        got = glued(R, M, ob, x, y)
        want = glued(R, unmarked(M), ob, x, y)
        if isinstance(got, str):
            assert got == want, f"seed {seed}"
            continue
        assert got[:4] == want[:4], f"seed {seed}"
        assert_sound(got[4])
        glues += 1
    assert non_models >= 100 and glues >= 100


def test_marked_realizations_are_models():
    for rule in RULES:
        for spec in (rule.hypothesis, rule.glue, rule.conclusion):
            assert_sound(spec)
    reps = 0
    for sk in broken_corpus_sketches():
        for ob in sk.objects:
            assert_sound(yoneda.representable(sk, ob).spec)
            reps += 1
    assert reps >= 20
    for n in (3, 8):
        res = saturate(workloads.chain(ENV, n, n), [MP_RULE])
        assert res.status == "fixpoint"
        assert_sound(res.result)
    res = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=0))
    assert res.status == "capped" and res.rounds == 0
    assert_sound(res.result)


def test_unrepaired_realizations_are_not_marked():
    capped = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=3))
    assert capped.status == "capped"
    assert not capped.result._repaired
    assert not check_realization(capped.result).ok
    for path in sorted(CORPUS.iterdir()):
        if path.name.endswith(".sk"):
            for d in dsl.parse_path(path):
                if isinstance(d, dsl.NamedSpec):
                    assert not d.realization._repaired
    theory = saturate(workloads.chain(ENV, 3, 3), [MP_RULE]).result
    assert theory._repaired
    same = SketchMorphism(SP, SP, {ob: ob for ob in SP.objects},
                          {a: (a,) for a in SP.arrows})
    pulled = restrict_along(same, theory)
    assert pulled == theory and not pulled._repaired
