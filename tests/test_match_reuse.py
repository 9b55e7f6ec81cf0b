"""Matches carried over from the step before.

``match_rule`` keeps its matches on the spec; a step whose chase merged
nothing hands them on to its result, where each old match is moved to the
new carriers and only the new apex elements are extended.

Differential: at every step of ``workloads.prove_chain`` (n = 3..15), of
the ``mp_basic`` ``apply_rule`` steps and of rule glues onto random
models, the carried matches equal those of an unshared copy, which has no
record: same list, order, ``satisfied`` flags and morphisms.  A glue that
merges old elements takes the full path, and a carried record does not
keep the previous realization alive.
"""

import gc
import random
import weakref

import pytest

from limsketch import dsl, engine
from limsketch.engine import (
    ChaseDiverged,
    Rule,
    apply_rule,
    match_rule,
    rules_of,
)
from limsketch.localizer import as_localiser
from limsketch.sketch import ArrowDecl, Sketch
from limsketch.yoneda import generator_of, yoneda_arrow

from test_chase_oracle import random_state
from test_engine import MP_RULE, SP, mk, mp_basic
from test_repaired_mark import CORPUS, ENV, workloads
from test_sharing import unshared


@pytest.fixture
def extended(monkeypatch):
    """The apex elements each ``match_rule`` call extends at, in order."""
    calls = []
    real = engine._extensions

    def counted(src, tgt, seeds):
        seeds = list(seeds)
        calls.append([x for s in seeds for m in s.values()
                      for x in m.values()])
        return real(src, tgt, seeds)
    monkeypatch.setattr(engine, "_extensions", counted)
    return calls


def carried(rule, spec) -> int:
    """How many matches of ``rule`` ``spec`` holds from an earlier call."""
    old, comps = spec.__dict__.get("_matches", {}).get(rule.id, (None, ()))
    return len(comps) if old is rule else 0


def matches_both_ways(rule, spec, extended):
    """``match_rule`` on ``spec``, required equal to that of an unshared
    copy, which holds no matches, and to extend only at the apex elements
    past the carried ones; returns the matches and how many were carried."""
    want = match_rule(rule, unshared(spec))
    old = carried(rule, spec)
    got = match_rule(rule, spec)
    assert extended[-1] == list(spec.carrier[rule.apex].elements[old:])
    assert got == want
    return got, old


def step(rule, spec, extended):
    """Apply ``rule`` at its first unsatisfied match, if there is one;
    returns the result (or None) and how many matches were carried."""
    matches, old = matches_both_ways(rule, spec, extended)
    match = next((m for m in matches if not m.satisfied), None)
    return (None if match is None else apply_rule(spec, rule, match).tgt), old


def test_prove_chain_steps_reuse_the_matches_before(extended):
    reused = 0
    for n in range(3, 16):
        spec, steps = workloads.chain(ENV, n, 11 + n), 0
        while spec is not None:
            spec, old = step(MP_RULE, spec, extended)
            reused += old > 0
            steps += 1
        assert steps == n + 1
    assert reused == sum(range(3, 16))


def test_mp_basic_steps_reuse_the_matches_before(extended):
    corpus = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    rules = rules_of(as_localiser(corpus["mp_sigma"].morphism))
    spec, steps, reused = corpus["mp_basic"].realization, 0, 0
    for k in range(8):
        nxt, old = step(rules[k % len(rules)], spec, extended)
        reused += old > 0
        if nxt is not None:
            spec, steps = nxt, steps + 1
    assert steps >= 4 and reused >= 4


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


def test_random_rule_glues_reuse_the_matches_before(monkeypatch, extended):
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    steps = reused = full = 0
    for seed in range(150):
        made = random_rule_model(seed)
        if made is None:
            continue
        spec, rule = made
        for k in range(3):
            try:
                nxt, old = step(rule, spec, extended)
            except RuntimeError:  # no classifying morphism, or divergence
                break
            reused += old > 0
            full += k > 0 and old == 0
            if nxt is None:
                break
            spec, steps = nxt, steps + 1
    assert steps >= 200 and reused >= 100 and full >= 10


def test_a_glue_that_merges_old_elements_takes_the_full_path(extended):
    # tp2 is a second theorem over p, and the match reads it: the step's
    # mono repair merges tp2 into tp, so no match carries over
    spec = mk(SP, {ob: mp_basic().carrier[ob].elements for ob in SP.objects}
              | {"Theo": ("tp", "tp2", "tipq"),
                 "C_MP": ("d_tp", "d_tp2", "d_tipq")},
              {a: fn.mapping for a, fn in mp_basic().action.items()}
              | {"inc": {"tp": "p", "tp2": "p", "tipq": "ipq"},
                 "t1": {"m0": "tp2"},
                 "e_MP": {"d_tp": "tp", "d_tp2": "tp2", "d_tipq": "tipq"}})
    result, old = step(MP_RULE, spec, extended)
    assert old == 0
    assert result.carrier["Theo"].elements[:2] == ("tp", "tipq")
    _, old = matches_both_ways(MP_RULE, result, extended)
    assert old == 0


def test_a_carried_record_does_not_keep_the_step_before_alive():
    spec = workloads.chain(ENV, 4, 15)
    result = apply_rule(spec, MP_RULE, next(
        m for m in match_rule(MP_RULE, spec) if not m.satisfied)).tgt
    assert carried(MP_RULE, result) == len(spec.carrier["H_MP"])
    gone = weakref.ref(spec)
    del spec
    gc.collect()
    assert gone() is None
    assert match_rule(MP_RULE, result) == match_rule(MP_RULE, unshared(result))
