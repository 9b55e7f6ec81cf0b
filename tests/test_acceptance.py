"""End-to-end acceptance suite, one printed verdict line per criterion.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line; run ``pytest tests/test_acceptance.py -s`` to see the verdicts as
they happen.  The random criteria use fixed seeds so reruns are stable.
"""

import dataclasses
import itertools
import random
import time
from contextlib import contextmanager
from importlib import resources

from limsketch import dsl
from limsketch.engine import (
    ChaseConfig,
    ChaseResult,
    ChaseTrace,
    apply_rule,
    induced_isomorphism,
    match_rule,
    saturate,
    trace_lines,
    transport_spec,
)
from limsketch.finset import FinFunction, pushout
from limsketch.localizer import check_sketch_morphism, find_cycles
from limsketch.realization import (
    Realization,
    check_realization,
    enumerate_morphisms,
    extend_morphism,
)
from limsketch.sketch import builtin_sketches
from limsketch.yoneda import density_check, faithfulness_check, representable

from helpers import compose_morphisms
from test_engine import (
    IM_RULE,
    LOC,
    MP,
    MP_RULE,
    RULES,
    SP,
    mk,
    mp_basic,
    theorem_formulas,
)
from test_finset import all_functions, diagram, fn, limit_tuples, oracle_limit

CORPUS = resources.files("limsketch") / "corpus"


@contextmanager
def verdict(num, label):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        word = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d} {word}  {label}")


# ---------------------------------------------------------------------------
# shared generators for the randomised criteria
# ---------------------------------------------------------------------------


def tabled_spec(rng, n, complete=True):
    """A valid random specification over the broken modus ponens sketch.

    With ``complete=True`` every formula pair has a recorded implication,
    which is exactly the shape whose full-rule saturation terminates: the
    implication-forming rule is already satisfied everywhere, so only the
    modus ponens rule can fire, and it stays inside the given formula
    carrier.  With ``complete=False`` the table is a random partial one;
    such inputs terminate under the modus ponens rule alone.  Theorems
    are a random subset, deliberately not closed.
    """
    forms = tuple(f"f{i}" for i in range(n))
    pairs = [(a, b) for a in forms for b in forms]
    recorded = [p for p in pairs if complete or rng.random() < 0.6]
    imp = {p: rng.choice(forms) for p in recorded}
    theo = tuple(f for f in forms if rng.random() < 0.6)
    thm = {f: f"t_{f}" for f in theo}
    fams = [(a, b) for (a, b) in recorded
            if a in thm and imp[(a, b)] in thm]
    part = [(a, b) for (a, b) in fams if b in thm and rng.random() < 0.5]
    return mk(SP, {
        "For": forms,
        "Theo": tuple(thm[f] for f in theo),
        "H_IM": tuple(f"{a}_{b}" for a, b in pairs),
        "C_IM": tuple(f"c_{f}" for f in forms),
        "H_IM_part_c_IM": tuple(f"w_{a}_{b}" for a, b in recorded),
        "H_MP": tuple(f"m_{a}_{b}" for a, b in fams),
        "H_MP_part_c_MP": tuple(f"u_{a}_{b}" for a, b in part),
        "C_MP": tuple(f"d_{f}" for f in theo),
    }, {
        "inc": {thm[f]: f for f in theo},
        "p1": {f"{a}_{b}": a for a, b in pairs},
        "p2": {f"{a}_{b}": b for a, b in pairs},
        "c_IM": {f"w_{a}_{b}": f"c_{imp[(a, b)]}" for a, b in recorded},
        "e_IM": {f"c_{f}": f for f in forms},
        "h_c_IM": {f"w_{a}_{b}": f"{a}_{b}" for a, b in recorded},
        "t1": {f"m_{a}_{b}": thm[a] for a, b in fams},
        "q": {f"m_{a}_{b}": b for a, b in fams},
        "t2": {f"m_{a}_{b}": thm[imp[(a, b)]] for a, b in fams},
        "h_c_MP": {f"u_{a}_{b}": f"m_{a}_{b}" for a, b in part},
        "c_MP": {f"u_{a}_{b}": f"d_{b}" for a, b in part},
        "e_MP": {f"d_{f}": thm[f] for f in theo},
    })


def as_closed_table(t_sp):
    """Collapse a saturated fixpoint over the broken sketch to the full one.

    At a fixpoint both partiality legs are bijections, so the rule arrows
    become total by composing with the inverse leg.
    """
    carr = {ob: t_sp.carrier[ob] for ob in MP.objects}
    act = {}
    for aid, decl in MP.arrows.items():
        if aid in ("c_IM", "c_MP"):
            leg = t_sp.action["h_" + aid]
            act[aid] = FinFunction(
                carr[decl.src], carr[decl.tgt],
                {leg(w): t_sp.action[aid](w) for w in leg.dom})
        else:
            act[aid] = t_sp.action[aid]
    return Realization(MP, carr, act)


def hom_by_extension(src, tgt):
    """All morphisms src -> tgt, found by seeding the formula component.

    Over the broken modus ponens sketch every other component is forced:
    theorems through the inclusion mono, the table objects through their
    cones, the partial domains through their mono legs.  extend_morphism
    verifies naturality in full, so this enumerates the hom-set exactly.
    """
    forms = src.carrier["For"].elements
    targets = tgt.carrier["For"].elements
    out = []
    for values in itertools.product(targets, repeat=len(forms)):
        phi = extend_morphism(src, tgt, {"For": dict(zip(forms, values))})
        if phi is not None:
            out.append(phi)
    return out


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_criterion_01_modus_ponens_reproduction():
    with verdict(1, "modus ponens closes {p, p=>q} to {p, p=>q, q} inside a second"):
        basic = mp_basic()
        start = time.monotonic()
        res = saturate(basic, [MP_RULE])
        elapsed = time.monotonic() - start
        assert res.status == "fixpoint"
        assert res.rounds <= 2
        assert theorem_formulas(res.result) == {"p", "q", "ipq"}
        assert len(res.result.carrier["Theo"].elements) == 3
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_divergence_is_reported_capped():
    with verdict(2, "unbounded implication growth surfaces as status capped"):
        res = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=3))
        assert res.status == "capped"
        counts = [3]
        for r in res.trace.rounds:
            delta = len(r.added.get("For", ()))
            delta -= sum(1 for ob, _, _ in r.identified if ob == "For")
            counts.append(counts[-1] + delta)
        # round 0 is cone repair only; every firing round then grows strictly
        assert counts[1] == 3
        assert all(b > a for a, b in zip(counts[1:], counts[2:]))
        # 3 formulas leave 3*3 - 1 pairs without a recorded implication
        assert counts[2] - counts[1] == 8


def test_criterion_03_cycle_breaking_golden():
    with verdict(3, "cycle breaking yields the shipped two-span localiser"):
        assert len(LOC.broken) == 2
        for rec in LOC.broken:
            assert rec.h in SP.monos and rec.h not in MP.arrows
            assert SP.arrows[rec.h].src == rec.fresh
            assert SP.arrows[rec.c].src == rec.fresh
        assert check_sketch_morphism(LOC.underlying).ok
        replaced = {rec.c for rec in LOC.broken}
        assert not (find_cycles(SP).arrows_on_cycles() & replaced)
        # the shipped corpus file is byte-stable and regenerates from here
        text = (CORPUS / "mp.sk").read_text()
        decls = dsl.parse(text)
        assert dsl.serialize_file(decls) == text
        named = {d.name: d for d in decls}
        assert named["mp_sp"] == dsl.canonical(
            dataclasses.replace(SP, name="mp_sp"))
        assert named["mp_sigma"].morphism.arrow_map == LOC.underlying.arrow_map


def assert_hom_bijection(case, spec, run, target):
    """Check |Hom(S, T)| = |Hom(F S, T)| via the embedding, return stats."""
    homs_in = hom_by_extension(spec, target)
    homs_out = hom_by_extension(run.result, target)
    assert len(homs_in) == len(homs_out), case

    # the bijection is precomposition with the chase embedding
    composed = [compose_morphisms(run.embedding, psi) for psi in homs_out]
    for i, lhs in enumerate(composed):
        assert all(lhs != rhs for rhs in composed[i + 1:]), \
            f"{case}: precomposition not injective"
    for phi in homs_in:
        assert any(phi == c for c in composed), \
            f"{case}: precomposition not surjective"
    for c in composed:
        assert any(phi == c for phi in homs_in), case

    # brute-force enumeration agrees whenever its space is small
    space = 1
    for ob in ("For", "Theo", "H_IM_part_c_IM", "H_MP_part_c_MP"):
        space *= max(1, len(target.carrier[ob])) \
            ** len(spec.carrier[ob].elements)
    checked = space <= 20000
    if checked:
        assert len(enumerate_morphisms(spec, target)) == len(homs_in), case
    return bool(homs_in), checked


def test_criterion_04_reflection_bijection_at_desk_scale():
    with verdict(4, "hom-sets out of a spec and out of its closure agree"):
        rng = random.Random(7205)
        start = time.monotonic()
        cross_checked = 0
        nonzero = 0
        # complete implication tables, saturated under the full rule set,
        # against theories carried back over the localiser
        for case in range(24):
            spec = tabled_spec(rng, rng.randint(1, 3))
            assert check_realization(spec).ok
            theory_run = saturate(tabled_spec(rng, rng.randint(1, 3)), RULES)
            assert theory_run.status == "fixpoint"
            closed = as_closed_table(theory_run.result)
            assert check_realization(closed).ok
            target = transport_spec(LOC.underlying, closed)
            run = saturate(spec, RULES)
            assert run.status == "fixpoint"
            hit, checked = assert_hom_bijection(f"full/{case}", spec, run,
                                               target)
            nonzero += hit
            cross_checked += checked
        # partial tables under the modus ponens rule alone, against
        # targets already closed for that rule
        for case in range(12):
            spec = tabled_spec(rng, rng.randint(1, 3), complete=False)
            assert check_realization(spec).ok
            target_run = saturate(
                tabled_spec(rng, rng.randint(1, 3), complete=False),
                [MP_RULE])
            assert target_run.status == "fixpoint"
            run = saturate(spec, [MP_RULE])
            assert run.status == "fixpoint"
            hit, checked = assert_hom_bijection(f"mp/{case}", spec, run,
                                               target_run.result)
            nonzero += hit
            cross_checked += checked
        elapsed = time.monotonic() - start
        assert cross_checked >= 15
        assert nonzero >= 15
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_05_limit_against_product_filter_oracle():
    with verdict(5, "limit matches the product-filter oracle on 200 diagrams"):
        rng = random.Random(3317)
        for _ in range(200):
            n_nodes = rng.randint(1, 4)
            nodes = {
                f"n{i}": [f"n{i}e{j}" for j in range(rng.randint(0, 4))]
                for i in range(n_nodes)
            }
            edges = []
            for _ in range(rng.randint(0, 4)):
                s = rng.choice(sorted(nodes))
                t = rng.choice(sorted(nodes))
                if nodes[s] and not nodes[t]:
                    continue
                edges.append((s, t, {x: rng.choice(nodes[t]) for x in nodes[s]}))
            d = diagram(nodes, edges)
            assert limit_tuples(d) == oracle_limit(nodes, edges)


def test_criterion_06_pushout_universal_property():
    with verdict(6, "pushout mediates uniquely on 50 random spans"):
        rng = random.Random(5521)
        for _ in range(50):
            apex = [f"a{i}" for i in range(rng.randint(0, 3))]
            lo = 1 if apex else 0
            left = [f"b{i}" for i in range(rng.randint(lo, 3))]
            right = [f"c{i}" for i in range(rng.randint(lo, 3))]
            f = fn(apex, left, {a: rng.choice(left) for a in apex})
            g = fn(apex, right, {a: rng.choice(right) for a in apex})
            P, ib, ic = pushout(f, g)
            cocone = [f"q{i}" for i in range(rng.randint(1, 3))]
            for u in all_functions(left, cocone):
                for v in all_functions(right, cocone):
                    if any(u[f(a)] != v[g(a)] for a in apex):
                        continue
                    mediating = [
                        m for m in all_functions(list(P), cocone)
                        if all(m[ib(b)] == u[b] for b in left)
                        and all(m[ic(c)] == v[c] for c in right)
                    ]
                    assert len(mediating) == 1


def test_criterion_07_yoneda_suite():
    with verdict(7, "representables are finite; the embedding is faithful and dense"):
        y_for = representable(SP, "For")
        assert len(y_for.spec.carrier["For"].elements) == 1
        assert len(y_for.spec.carrier["Theo"].elements) == 0
        y_theo = representable(SP, "Theo")
        assert len(y_theo.spec.carrier["For"].elements) == 1
        assert len(y_theo.spec.carrier["Theo"].elements) == 1
        assert faithfulness_check(builtin_sketches()["graph"]).ok
        for name in ("graph.sk", "magma.sk", "mp.sk", "bank.sk"):
            for decl in dsl.parse_path(CORPUS / name):
                if isinstance(decl, dsl.NamedSpec):
                    spec = decl.realization
                    assert density_check(spec.over, spec).ok, decl.name


def test_criterion_08_determinism_and_confluence():
    with verdict(8, "traces are reproducible; rule order changes names only"):
        capped = ChaseConfig(max_rounds=2)
        first = saturate(mp_basic(), RULES, capped)
        second = saturate(mp_basic(), RULES, capped)
        assert trace_lines(first) == trace_lines(second)
        assert dsl.serialize_json(first) == dsl.serialize_json(second)

        rng = random.Random(90210)
        fired = 0
        for case in range(20):
            spec = tabled_spec(rng, rng.randint(1, 3))
            one = saturate(spec, [IM_RULE, MP_RULE])
            two = saturate(spec, [MP_RULE, IM_RULE])
            assert one.status == "fixpoint" and two.status == "fixpoint"
            assert induced_isomorphism(one, two) is not None, f"case {case}"
            fired += one.rounds > 0
        assert fired >= 8

        # firing matches one at a time in random order lands on the same
        # theory as batch saturation
        sched_rng = random.Random(4731)
        stepped = 0
        for case in range(20):
            spec = tabled_spec(sched_rng, sched_rng.randint(2, 3))
            batch = saturate(spec, RULES)
            cur, emb = spec, None
            for _ in range(200):
                pending = [(r, m) for r in RULES for m in match_rule(r, cur)
                           if not m.satisfied]
                if not pending:
                    break
                rule, m = pending[sched_rng.randrange(len(pending))]
                frac = apply_rule(cur, rule, m)
                cur = frac.tgt
                emb = frac.h if emb is None else \
                    compose_morphisms(emb, frac.h)
                stepped += 1
            else:
                assert False, f"schedule {case} did not terminate"
            if emb is None:
                assert cur == batch.result
                continue
            scheduled = ChaseResult(result=cur, status="fixpoint",
                                    rounds=0, trace=ChaseTrace(()),
                                    embedding=emb)
            assert induced_isomorphism(scheduled, batch) is not None, \
                f"schedule {case}"
        assert stepped >= 20


def test_criterion_09_interface_transport_boxes():
    with verdict(9, "the decorated account spec transports to both interface boxes"):
        decls = {d.name: d for d in dsl.parse_path(CORPUS / "bank.sk")}
        decorated = decls["acct_decorated"].realization
        apparent = transport_spec(decls["forget_decorations"].morphism, decorated)
        explicit = transport_spec(decls["expand_code"].morphism, decorated)
        assert apparent == decls["acct_apparent"].realization
        assert explicit == decls["acct_explicit"].realization
        assert apparent.over.arrows["balance"].src == "void"
        assert apparent.over.arrows["balance"].tgt == "int"
        assert apparent.over.arrows["deposit"].src == "int"
        assert apparent.over.arrows["deposit"].tgt == "void"
        assert explicit.over.arrows["balance"].src == "state"
        assert explicit.over.arrows["balance"].tgt == "int"
        assert explicit.over.arrows["deposit"].src == "int_x_state"
        assert explicit.over.arrows["deposit"].tgt == "state"


def test_criterion_10_dsl_round_trip():
    with verdict(10, "parse and print invert each other; errors carry positions"):
        env = {}
        parsed = {}
        for name in ("graph.sk", "magma.sk", "mp.sk", "bank.sk"):
            text = (CORPUS / name).read_text()
            decls = dsl.parse(text)
            # print after parse gives the file back byte for byte
            assert dsl.serialize_file(decls) == text
            parsed[name] = decls
            env.update({d.name: d for d in decls
                        if not isinstance(d, (dsl.NamedSpec, dsl.NamedMorphism,
                                              dsl.NamedConfig))})
        # parse after print is the identity on every declaration
        for name, decls in parsed.items():
            for decl in decls:
                back = dsl.parse(dsl.serialize(decl), env)
                assert len(back) == 1
                assert back[0] == decl, (name, decl.name)
        error_cases = [
            ("sketch a {\n  object\n}\n", 3, 1, "object name"),
            ("sketch b {\n  object A\n  arrow f : A => A\n}\n", 3, 15, "'->'"),
            ("spec s over nowhere {\n}\n", 1, 13, "unknown sketch"),
            ("sketch c {\n  object A\n  cone k : A {\n    base ( node x : B )"
             "\n    proj ( x -> f )\n  }\n}\n", 4, 10, "base node"),
        ]
        for text, line, col, fragment in error_cases:
            try:
                dsl.parse(text)
                assert False, f"no error for {text!r}"
            except dsl.ParseError as err:
                issue = err.issues[0]
                assert (issue.line, issue.col) == (line, col), text
                assert fragment in issue.message, text
