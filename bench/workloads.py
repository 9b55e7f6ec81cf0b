"""Seeded inputs, timed jobs and golden gates for the limsketch benchmark.

A workload is a list of jobs. A job times one operation a user of the
library would run, then checks its output against a golden outside the
timed interval. The seed only renames elements and permutes carrier order,
so every golden holds for every seed.
"""
from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Any, Callable

# Result sizes of |For| per round for capped MP growth on mp_basic with both
# rules, as in test_saturate_capped_growth: input, round 0, 1, 2, 3.
CAPPED_GROWTH = [3, 3, 11, 123, 15131]

# One prefix letter per object, so generated names say what they name.
_PREFIX = {
    "For": "f", "Theo": "t", "H_IM": "h", "C_IM": "c", "H_IM_part_c_IM": "w",
    "H_MP": "m", "C_MP": "d", "H_MP_part_c_MP": "v",
}


@dataclasses.dataclass
class Job:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check`` returns the gate's complaints about the output; an empty list
    means the job passed. ``size`` is the job's size for the scaling
    exponent (chain length, or |For| of the capped result).
    """

    label: str
    size: int
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclasses.dataclass
class Env:
    """What set-up leaves behind: the imported package and the MP corpus."""

    ls: Any
    corpus: dict[str, Any]
    sp: Any
    rules: list
    mp_rule: Any
    work: Path


def realize(ls, sk, carriers: dict[str, list], actions: dict[str, dict],
            rng: random.Random):
    """Build a realization of ``sk`` from abstract element keys.

    Every key gets a fresh name of fixed width drawn from ``rng`` and every
    carrier is shuffled, so the seed changes names and order but nothing
    else. Objects missing from ``carriers`` are empty.
    """
    keys = [k for ob in sk.objects for k in carriers.get(ob, ())]
    codes = rng.sample(range(16 ** 6), len(keys))
    name = {}
    i = 0
    for ob in sk.objects:
        for k in carriers.get(ob, ()):
            name[k] = f"{_PREFIX.get(ob, 'x')}{codes[i]:06x}"
            i += 1
    cs = {}
    for ob in sk.objects:
        order = [name[k] for k in carriers.get(ob, ())]
        rng.shuffle(order)
        cs[ob] = ls.FinSet(tuple(order))
    acts = {
        aid: ls.FinFunction(cs[d.src], cs[d.tgt],
                            {name[x]: name[y]
                             for x, y in actions.get(aid, {}).items()})
        for aid, d in sk.arrows.items()
    }
    return ls.Realization(sk, cs, acts)


def chain(env: Env, n: int, seed: int):
    """The implication chain of length ``n`` over the broken MP sketch.

    Atoms a0..an and implications i_k = a_k => a_{k+1} make 2n+1 formulas.
    H_IM holds every pair, C_IM one element per formula, and w_k witnesses
    i_k. The theorems are a0 and every i_k; H_MP holds the single family
    (a0, i_0), whose conclusion is a1.
    """
    atoms = [("a", k) for k in range(n + 1)]
    imps = [("i", k) for k in range(n)]
    forms = atoms + imps
    theo = [atoms[0]] + imps
    pairs = [("h", x, y) for x in forms for y in forms]
    carriers = {
        "For": forms,
        "H_IM": pairs,
        "C_IM": [("c", f) for f in forms],
        "H_IM_part_c_IM": [("w", k) for k in range(n)],
        "Theo": [("t", f) for f in theo],
        "C_MP": [("d", f) for f in theo],
        "H_MP": [("m",)],
    }
    actions = {
        "p1": {p: p[1] for p in pairs},
        "p2": {p: p[2] for p in pairs},
        "e_IM": {("c", f): f for f in forms},
        "c_IM": {("w", k): ("c", imps[k]) for k in range(n)},
        "h_c_IM": {("w", k): ("h", atoms[k], atoms[k + 1]) for k in range(n)},
        "inc": {("t", f): f for f in theo},
        "e_MP": {("d", f): ("t", f) for f in theo},
        "t1": {("m",): ("t", atoms[0])},
        "t2": {("m",): ("t", imps[0])},
        "q": {("m",): atoms[1]},
    }
    return realize(env.ls, env.sp, carriers, actions, random.Random(seed))


def renamed(env: Env, spec, seed: int):
    """``spec`` with every element renamed and every carrier permuted."""
    carriers = {ob: list(spec.carrier[ob].elements) for ob in spec.over.objects}
    actions = {aid: dict(fn.mapping) for aid, fn in spec.action.items()}
    return realize(env.ls, spec.over, carriers, actions, random.Random(seed))


def _size(spec, ob: str) -> int:
    return len(spec.carrier[ob].elements)


def for_growth(res) -> list[int]:
    """|For| after each round, computed from the trace alone."""
    counts = [_size(res.embedding.src, "For")]
    for r in res.trace.rounds:
        delta = len(r.added.get("For", ()))
        delta -= sum(1 for ob, _, _ in r.identified if ob == "For")
        counts.append(counts[-1] + delta)
    return counts


def _expect(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, want {want!r}")


def gate_capped(res, rounds: int) -> list[str]:
    """Golden of capped MP growth on mp_basic after ``rounds`` rounds."""
    out: list[str] = []
    _expect(out, "status", res.status, "capped")
    _expect(out, "rounds", res.rounds, rounds)
    _expect(out, "For growth", for_growth(res), CAPPED_GROWTH[:rounds + 2])
    _expect(out, "|For|", _size(res.result, "For"), CAPPED_GROWTH[rounds + 1])
    _expect(out, "|Theo|", _size(res.result, "Theo"), 3)
    return out


def gate_chain(env: Env, res, n: int) -> list[str]:
    """Golden of the chain-n fixpoint under modus ponens.

    ``check_realization`` runs only once the sizes match, so a capped or
    runaway result never reaches it.
    """
    out: list[str] = []
    _expect(out, "status", res.status, "fixpoint")
    _expect(out, "rounds", res.rounds, n)
    _expect(out, "|Theo|", _size(res.result, "Theo"), 2 * n + 1)
    _expect(out, "|H_IM|", _size(res.result, "H_IM"), (2 * n + 1) ** 2)
    _expect(out, "|H_MP|", _size(res.result, "H_MP"), n)
    if out:
        return out
    report = env.ls.check_realization(res.result)
    if not report.ok:
        out.append(f"check_realization: {report}")
    if not env.ls.is_theory(res.result, [env.mp_rule]):
        out.append("is_theory: an MP match is unsatisfied")
    return out


def _capped_jobs(env: Env, seed: int) -> tuple[list[Job], list]:
    ls = env.ls
    spec = renamed(env, env.corpus["mp_basic"].realization, seed)
    jobs = []
    for rounds in (2, 3):
        cfg = ls.ChaseConfig(max_rounds=rounds)
        jobs.append(Job(
            f"capped-{rounds}", CAPPED_GROWTH[rounds + 1],
            lambda cfg=cfg: ls.saturate(spec, env.rules, cfg),
            lambda res, rounds=rounds: gate_capped(res, rounds)))
    return jobs, [spec]


def _chain_jobs(env: Env, seed: int) -> tuple[list[Job], list]:
    ls = env.ls
    jobs, inputs = [], []
    for n in (10, 20, 30, 40):
        spec = chain(env, n, seed + n)
        # The default ChaseConfig.max_rounds (32) caps chain-40 early.
        cfg = ls.ChaseConfig(max_rounds=n + 1)
        jobs.append(Job(
            f"chain-{n}", n,
            lambda spec=spec, cfg=cfg: ls.saturate(spec, [env.mp_rule], cfg),
            lambda res, n=n: gate_chain(env, res, n)))
        inputs.append(spec)
    return jobs, inputs


def prove_chain(env: Env, spec, limit: int):
    """Prove ``spec`` step by step, as ``limsketch prove`` does.

    Each step applies MP at the first unsatisfied match and composes the
    step onto the proof so far; the composite is checked at the end.
    Returns (steps, fraction, complaint of check_fraction or None).
    """
    ls, rule = env.ls, env.mp_rule
    frac = None
    steps = 0
    while steps <= limit:
        current = spec if frac is None else frac.tgt
        match = next((m for m in ls.match_rule(rule, current)
                      if not m.satisfied), None)
        if match is None:
            break
        step = ls.apply_rule(current, rule, match)
        frac = step if frac is None else ls.compose_fractions(frac, step)
        steps += 1
    if frac is None:
        return steps, frac, "no step applied"
    try:
        ls.check_fraction(frac, [rule])
    except RuntimeError as exc:
        return steps, frac, str(exc)
    return steps, frac, None


def gate_proof(env: Env, out, n: int) -> list[str]:
    steps, frac, complaint = out
    fails: list[str] = []
    _expect(fails, "steps", steps, n)
    if complaint is not None:
        fails.append(f"check_fraction: {complaint}")
        return fails
    _expect(fails, "certificate", frac.certificate, "by-construction")
    _expect(fails, "|Theo|", _size(frac.tgt, "Theo"), 2 * n + 1)
    if not env.ls.is_theory(frac.tgt, [env.mp_rule]):
        fails.append("is_theory: the proved spec has an unsatisfied match")
    return fails


def _proof_jobs(env: Env, seed: int) -> tuple[list[Job], list]:
    jobs, inputs = [], []
    for n in (5, 10, 15):
        spec = chain(env, n, seed + n)
        jobs.append(Job(
            f"prove-{n}", n,
            lambda spec=spec, n=n: prove_chain(env, spec, 2 * n),
            lambda out, n=n: gate_proof(env, out, n)))
        inputs.append(spec)
    return jobs, inputs


def round_trip(env: Env, decl):
    """Save ``decl`` as text and as JSON, load both back, check the load."""
    ls = env.ls
    scope = {env.sp.name: env.sp}
    text_path = env.work / f"{decl.name}.sk"
    json_path = env.work / f"{decl.name}.sk.json"
    text_path.write_text(ls.serialize(decl))
    from_text = ls.parse_path(text_path, scope)
    json_path.write_text(ls.serialize_json(decl))
    from_json = ls.parse_path(json_path, scope)
    report = ls.check_realization(from_text[0].realization)
    return from_text, from_json, report


def gate_round_trip(decl, out) -> list[str]:
    from_text, from_json, report = out
    fails: list[str] = []
    if from_text != [decl]:
        fails.append("text load differs from the saved spec")
    if from_json != [decl]:
        fails.append("JSON load differs from the saved spec")
    if from_text != from_json:
        fails.append("text and JSON loads differ")
    if not report.ok:
        fails.append(f"check_realization: {report}")
    return fails


def _io_jobs(env: Env, seed: int) -> tuple[list[Job], list]:
    jobs, inputs = [], []
    for n in (15, 30, 60):
        spec = chain(env, n, seed + n)
        decl = env.ls.NamedSpec(f"chain{n}", spec)
        jobs.append(Job(
            f"io-{n}", n,
            lambda decl=decl: round_trip(env, decl),
            lambda out, decl=decl: gate_round_trip(decl, out)))
        inputs.append(spec)
    return jobs, inputs


# name -> function making (jobs, inputs); jobs run in order, smallest size first.
WORKLOADS = {
    "capped-growth": _capped_jobs,
    "chain-fixpoint": _chain_jobs,
    "proof-steps": _proof_jobs,
    "spec-io": _io_jobs,
}
