"""Structure sharing between chase states.

A proof step shares with its input every carrier, action, identity leg and
cone index it did not touch, and every shortcut tests object identity.

Differential: each step run on an unshared copy of its inputs (every
``FinSet`` and ``FinFunction`` rebuilt, so no identity test can hit) gives
the same text, glue names and legs, domains and codomains included.
Safety: no call writes into a carrier or a mapping of its inputs, which
later states now share.  Reach: after two composed steps on a chain, the
untouched H_IM carrier and its identity leg are still the input's own.
"""

import pickle

from limsketch import dsl, engine
from limsketch.engine import (
    ChaseDiverged,
    Fraction,
    Match,
    _glue_state,
    apply_rule,
    compose_fractions,
    match_rule,
    rules_of,
    saturate,
    trace_lines,
)
from limsketch.finset import FinFunction, FinSet, identity
from limsketch.localizer import as_localiser
from limsketch.realization import (
    RealMorphism,
    Realization,
    enumerate_morphisms,
    identity_morphism,
)
from limsketch.sketch import builtin_sketches
from oracle_surface import finset

from test_engine import MP_RULE
from test_repaired_mark import (
    CORPUS,
    ENV,
    random_non_model,
    spec_text,
    workloads,
)


def unshared(spec: Realization) -> Realization:
    """An equal copy of ``spec`` that shares no carrier, action or mapping
    with it, and keeps its repaired mark."""
    carrier = {ob: FinSet(s.elements) for ob, s in spec.carrier.items()}
    copy = Realization(spec.over, carrier, {
        a: FinFunction(carrier[d.src], carrier[d.tgt],
                       dict(spec.action[a].mapping))
        for a, d in spec.over.arrows.items()})
    object.__setattr__(copy, "_repaired", spec._repaired)
    assert copy == spec
    return copy


def moved(phi: RealMorphism, src: Realization,
          tgt: Realization) -> RealMorphism:
    """``phi`` rebuilt between equal copies of its ends."""
    return RealMorphism(src, tgt, {
        ob: FinFunction(src.carrier[ob], tgt.carrier[ob], dict(fn.mapping))
        for ob, fn in phi.components.items()})


def unshared_fraction(f: Fraction) -> Fraction:
    src, mid = unshared(f.src), unshared(f.mid)
    tgt = mid if f.tgt is f.mid else unshared(f.tgt)
    return Fraction(src, tgt, mid, moved(f.h, src, mid), moved(f.c, tgt, mid),
                    f.certificate)


def leg_text(phi: RealMorphism) -> dict:
    return {ob: (fn.dom.elements, fn.cod.elements, list(fn.mapping.items()))
            for ob, fn in phi.components.items()}


def frac_text(f: Fraction) -> tuple:
    return (spec_text(f.src), spec_text(f.mid), spec_text(f.tgt),
            leg_text(f.h), leg_text(f.c), f.certificate)


def match_text(matches) -> list:
    return [(m.rule_id, m.element, m.satisfied, leg_text(m.morphism))
            for m in matches]


def next_match(rule, spec):
    """The first unsatisfied match in ``spec`` and in an unshared copy."""
    copy = unshared(spec)
    got, want = match_rule(rule, spec), match_rule(rule, copy)
    assert match_text(got) == match_text(want)
    pick = next((i for i, m in enumerate(got) if not m.satisfied), None)
    if pick is None:
        return None, copy, None
    return got[pick], copy, want[pick]


def step_both_ways(frac, spec, rule):
    """One ``workloads.prove_chain`` step, also run on unshared copies and
    required to give the same output; None when no match is left."""
    current = spec if frac is None else frac.tgt
    match, copy, copy_match = next_match(rule, current)
    if match is None:
        return None
    step = apply_rule(current, rule, match)
    assert frac_text(step) == frac_text(apply_rule(copy, rule, copy_match))
    if frac is None:
        return step
    composite = compose_fractions(frac, step)
    assert frac_text(composite) == frac_text(compose_fractions(
        unshared_fraction(frac), unshared_fraction(step)))
    return composite


def test_proof_steps_equal_from_unshared_copies():
    for n in (3, 5, 8):
        spec = workloads.chain(ENV, n, 11 + n)
        frac = None
        for _ in range(2 * n + 1):
            nxt = step_both_ways(frac, spec, MP_RULE)
            if nxt is None:
                break
            frac = nxt
        assert len(frac.tgt.carrier["Theo"]) == 2 * n + 1
        res, copy = saturate(frac.mid, [MP_RULE]), saturate(
            unshared(frac.mid), [MP_RULE])
        assert trace_lines(res) == trace_lines(copy)
        assert spec_text(res.result) == spec_text(copy.result)
        assert leg_text(res.embedding) == leg_text(copy.embedding)


def test_apply_rule_steps_on_mp_basic_equal_from_unshared_copies():
    corpus = {d.name: d for d in dsl.parse_path(CORPUS / "mp.sk")}
    rules = rules_of(as_localiser(corpus["mp_sigma"].morphism))
    spec = corpus["mp_basic"].realization
    steps = 0
    for k in range(6):
        rule = rules[k % len(rules)]
        match, copy, copy_match = next_match(rule, spec)
        if match is None:
            continue
        step = apply_rule(spec, rule, match)
        assert frac_text(step) == frac_text(apply_rule(copy, rule, copy_match))
        spec = step.tgt
        steps += 1
    assert steps >= 4


def glue_text(left, right, left_leg, right_leg):
    """Text, names, round and right leg of a glue, or the divergence."""
    try:
        st, names = _glue_state(left, right, left_leg, right_leg)
    except ChaseDiverged as exc:
        return str(exc)
    out = st.realization()
    return (spec_text(out), names, st.take_round(),
            leg_text(st.leg(right, out)))


def point_legs(left, right, ob, x, y):
    """Legs from the one-element span at ``ob`` onto ``x`` and ``y``."""
    def leg(target, value):
        return {o: FinFunction(FinSet((x,) if o == ob else ()),
                               target.carrier[o],
                               {x: value} if o == ob else {})
                for o in target.over.objects}
    return leg(left, x), leg(right, y)


def test_random_glues_equal_from_unshared_copies(monkeypatch):
    """The glues of the repaired-mark suite, onto a saturation that shares
    its untouched carriers with its input, against unshared copies."""
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)
    glues = shared = 0
    for seed in range(200):
        R = random_non_model(seed)
        if R is None:
            continue
        try:
            M = saturate(R, []).result
        except ChaseDiverged:
            continue
        ob = next((o for o in M.over.objects
                   if R.carrier[o].elements and M.carrier[o].elements), None)
        if ob is None:
            continue
        shared += any(M.carrier[o] is R.carrier[o] for o in M.over.objects)
        x, y = R.carrier[ob].elements[0], M.carrier[ob].elements[-1]
        R2, M2 = unshared(R), unshared(M)
        assert glue_text(R, M, *point_legs(R, M, ob, x, y)) == glue_text(
            R2, M2, *point_legs(R2, M2, ob, x, y)), f"seed {seed}"
        glues += 1
    assert glues >= 100 and shared >= 50


def test_glue_along_a_non_identity_leg_of_a_shared_carrier():
    """Gluing a spec onto itself, identity on the left and a swap of two
    formulas on the right: the shared For carrier must still be glued."""
    spec = saturate(workloads.chain(ENV, 3, 5), []).result
    ids = identity_morphism(spec).components
    a, b = spec.carrier["For"].elements[:2]
    swap = dict(ids, For=FinFunction(
        spec.carrier["For"], spec.carrier["For"],
        {x: {a: b, b: a}.get(x, x) for x in spec.carrier["For"]}))
    got = glue_text(spec, spec, ids, swap)
    copy = unshared(spec)
    want = glue_text(copy, copy,
                     moved(identity_morphism(spec), copy, copy).components,
                     moved(RealMorphism(spec, spec, swap), copy, copy).components)
    assert got == want
    assert got[2][1], "the swap identifies elements"


def test_a_shared_object_with_identity_legs_glues_nothing():
    """A repaired saturation glued onto itself along identities at every
    object: the one glue loop adds and writes nothing, so the state is
    still at clock 0 and hands back the input's own carriers and actions,
    marked repaired, with every element named after itself."""
    spec = saturate(workloads.chain(ENV, 4, 9), [MP_RULE]).result
    assert spec._repaired
    ids = identity_morphism(spec).components
    st, names = _glue_state(spec, spec, ids, ids)
    assert st.clock == 0
    out = st.realization()
    assert all(out.carrier[ob] is spec.carrier[ob] for ob in spec.carrier)
    assert all(out.action[a] is spec.action[a] for a in spec.action)
    assert out._repaired
    assert names == {ob: identity(spec.carrier[ob]).mapping
                     for ob in spec.over.objects}


def test_cone_index_follows_the_projections():
    """Two magmas share the apex carrier M2 and swap s and t: the prod
    index kept on M2 for the first must not serve the second."""
    M, M2 = finset(["a", "b"]), finset(["aa", "ab", "ba", "bb"])
    first, second = ({x: x[0] for x in M2}, {x: x[1] for x in M2})
    k = FinFunction(M2, M, {"aa": "a", "ab": "b", "ba": "b", "bb": "b"})
    magmas = [Realization(builtin_sketches()["magma"], {"M": M, "M2": M2}, {
        "k": k, "s": FinFunction(M2, M, s), "t": FinFunction(M2, M, t)})
        for s, t in ((first, second), (second, first))]
    for R in magmas:
        found = enumerate_morphisms(magmas[0], R)
        assert found == enumerate_morphisms(unshared(magmas[0]), unshared(R))
        assert any(len(set(phi.components["M"].mapping.values())) == 2
                   for phi in found)


def snapshot(t) -> list:
    """Every carrier tuple and mapping reachable from a realization,
    morphism, fraction, match, rule or list of them, copied."""
    if isinstance(t, Realization):
        return [{ob: s.elements for ob, s in t.carrier.items()},
                {a: list(fn.mapping.items()) for a, fn in t.action.items()}]
    if isinstance(t, RealMorphism):
        return [snapshot(t.src), snapshot(t.tgt),
                {ob: list(fn.mapping.items())
                 for ob, fn in t.components.items()}]
    if isinstance(t, Fraction):
        return [snapshot(x) for x in (t.src, t.mid, t.tgt, t.h, t.c)]
    if isinstance(t, Match):
        return snapshot(t.morphism)
    if isinstance(t, list):
        return [snapshot(x) for x in t]
    return [snapshot(x) for x in (t.hypothesis, t.glue, t.conclusion,
                                  t.hyp_to_glue, t.concl_to_glue)]


def unchanged(call, *inputs):
    """``call(*inputs)``, required to leave its inputs as they were."""
    before = snapshot(list(inputs))
    out = call(*inputs)
    assert snapshot(list(inputs)) == before
    return out


def test_no_call_writes_into_its_inputs():
    spec = workloads.chain(ENV, 4, 21)
    unchanged(saturate, spec, [MP_RULE])
    frac = None
    for _ in range(4):
        current = spec if frac is None else frac.tgt
        match = next(m for m in unchanged(match_rule, MP_RULE, current)
                     if not m.satisfied)
        step = unchanged(apply_rule, current, MP_RULE, match)
        frac = step if frac is None else unchanged(compose_fractions,
                                                   frac, step)
    res = unchanged(saturate, frac.mid, [MP_RULE])
    unchanged(saturate, res.result, [MP_RULE])


def test_untouched_carriers_and_legs_are_shared():
    spec = workloads.chain(ENV, 10, 3)
    frac = None
    for _ in range(2):
        current = spec if frac is None else frac.tgt
        match = next(m for m in match_rule(MP_RULE, current)
                     if not m.satisfied)
        step = apply_rule(current, MP_RULE, match)
        frac = step if frac is None else compose_fractions(frac, step)
    h_im = spec.carrier["H_IM"]
    assert frac.mid.carrier["H_IM"] is h_im
    assert frac.h.components["H_IM"] is identity(h_im)
    assert frac.c.components["H_IM"] is identity(h_im)
    assert frac.mid.action["p1"] is spec.action["p1"]
    assert frac.mid.carrier["Theo"] is not spec.carrier["Theo"]


def test_a_realization_with_caches_pickles():
    """What a carrier keeps beside its elements does not travel."""
    spec = workloads.chain(ENV, 3, 2)
    assert match_rule(MP_RULE, spec) and identity(spec.carrier["For"])
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert all(x in copy.carrier[ob] for ob, s in spec.carrier.items()
               for x in s)
