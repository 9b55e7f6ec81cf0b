"""Run one workload of the limsketch benchmark and print its metrics.

    python3 bench/run.py --workload chain-fixpoint --seed 1 --seconds 30 --trace 0

The benchmark imports limsketch from ``src/`` of the checkout it sits in.
One client runs one job after another in this process (a closed loop).
Set-up is timed on its own; then the smallest job runs once to warm up,
and passes over all jobs run until ``--seconds`` have passed. Every job's
output is checked against its golden outside the timed interval.

With ``--trace 0`` the metrics are end to end, and a further set-up is timed
after every pass. Untraced times are calibrated: each is divided by the
time of a fixed unit of reference work (``reference.py``) measured next to
it, so that a change in the shared machine's speed cancels out. With
``--trace 1`` every pass records spans around the calls into each layer;
the metrics are per layer, with the tracing overhead.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every gate passed.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracing import COUNTED, TARGETS, Tracer, span_cost  # noqa: E402
from workloads import WORKLOADS, Env  # noqa: E402

# Set-ups before the first pass. The last one's jobs are the ones timed.
SETUPS = 5

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "scaling_exponent": "exponent"}


def import_fresh():
    """Import limsketch from this checkout's ``src/``, dropping any copy."""
    for key in [k for k in sys.modules
                if k == "limsketch" or k.startswith("limsketch.")]:
        del sys.modules[key]
    ls = importlib.import_module("limsketch")
    if SRC not in Path(ls.__file__).resolve().parents:
        raise ImportError(f"limsketch was imported from {ls.__file__}, "
                          f"not from {SRC}")
    return ls


@dataclasses.dataclass
class Run:
    """Everything one set-up produced."""

    env: Env
    jobs: list
    inputs: list
    broken: object


def set_up(workload: str, seed: int, work: Path, tracer: Tracer | None) -> Run:
    """Import, load the corpus, break cycles, read rules, build inputs."""
    ls = import_fresh()
    if tracer is not None:
        tracer.install()
    corpus = {d.name: d for d in
              ls.parse_path(resources.files(ls) / "corpus" / "mp.sk")}
    broken, _ = ls.break_cycles(corpus["mp_theory"])
    rules = ls.rules_of(ls.as_localiser(corpus["mp_sigma"].morphism))
    mp_rule = next(r for r in rules if r.id == "c_MP")
    env = Env(ls, corpus, corpus["mp_sp"], rules, mp_rule, work)
    jobs, inputs = WORKLOADS[workload](env, seed)
    return Run(env, jobs, inputs, broken)


def setup_failures(run: Run) -> list[str]:
    """Golden of the set-up: the corpus rules and valid inputs."""
    ls = run.env.ls
    out = []
    renamed = dataclasses.replace(run.broken, name=run.env.sp.name)
    if ls.canonical(renamed) != ls.canonical(run.env.sp):
        out.append("break_cycles(mp_theory) differs from the corpus mp_sp")
    if [r.id for r in run.env.rules] != ["c_IM", "c_MP"]:
        out.append(f"rules: {[r.id for r in run.env.rules]}")
    for i, spec in enumerate(run.inputs):
        report = ls.check_realization(spec)
        if not report.ok:
            out.append(f"input {i} is not a valid realization: {report}")
    return out


class Gates:
    """Counts jobs and gate failures; prints each failure as it happens."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, complaints: list[str]) -> None:
        self.attempted += 1
        if complaints:
            self.failed += 1
            for c in complaints:
                print(f"GATE FAILED {label}: {c}", file=sys.stderr)


def timed_set_up(workload: str, seed: int, work: Path,
                 tracer: Tracer | None,
                 times: list[tuple[float, float]]) -> Run:
    """``set_up`` from a collected heap.

    Appends to ``times`` its seconds and the mean seconds of the reference
    units run just before and just after it.
    """
    if tracer is not None:
        tracer.restore()
    gc.collect()
    before = reference.unit()
    t0 = time.perf_counter()
    run = set_up(workload, seed, work, tracer)
    elapsed = time.perf_counter() - t0
    times.append((elapsed, (before + reference.unit()) / 2))
    if tracer is not None:
        tracer.restore()
    return run


def passes(jobs, seconds: float, gates: Gates, tracer: Tracer | None = None,
           between: Callable[[], object] = lambda: None,
           calibrate: bool = False) -> tuple[list[list[float]],
                                             list[list[float]]]:
    """Run passes over ``jobs`` for about ``seconds``, at least one.

    ``between`` runs after every pass, within the ``seconds``. A further
    pass starts only when a pass of average length would end within
    ``seconds``. Only ``job.run`` is timed. Each job starts from a
    collected heap, and its output is gated and dropped before the next
    job; the gate runs in the tracer's "gate" phase, which per-layer
    figures leave out. With ``calibrate``, one reference unit runs just
    before each job and one just after it. Returns the job times of every
    pass and, with ``calibrate``, the mean of each job's two reference
    units (else empty lists).
    """
    out, refs = [], []
    start = time.perf_counter()
    while True:
        times, units = [], []
        for job in jobs:
            gc.collect()
            before = reference.unit() if calibrate else 0.0
            t0 = time.perf_counter()
            result = job.run()
            times.append(time.perf_counter() - t0)
            if calibrate:
                units.append((before + reference.unit()) / 2)
            if tracer is not None:
                tracer.phase = "gate"
            gates.check(job.label, job.check(result))
            if tracer is not None:
                tracer.phase = "pass"
            del result
        out.append(times)
        refs.append(units)
        between()
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out, refs


def end_to_end(jobs, timed: list[list[float]], refs: list[list[float]],
               setup_times: list[tuple[float, float]]):
    """Calibrated times and the other end-to-end metrics.

    A calibrated time is seconds times ``reference.REF_S`` over the mean
    of the reference units run just before and just after it.
    ``norm_wall_s`` is the median over passes of the sum of a pass's
    calibrated job times; ``setup_s`` the median calibrated set-up. Raw
    medians are returned too, under names the JSON line leaves out.
    ``scaling_exponent`` is the least-squares slope of log median calibrated
    job time against log job size, over every job of the workload."""
    medians = [statistics.median(times[i] / units[i]
                                 for times, units in zip(timed, refs))
               for i in range(len(jobs))]
    exponent = statistics.linear_regression(
        [math.log(job.size) for job in jobs],
        [math.log(t) for t in medians]).slope
    return {
        "norm_wall_s": statistics.median(
            sum(t / u for t, u in zip(times, units)) * reference.REF_S
            for times, units in zip(timed, refs)),
        "setup_s": statistics.median(s / ref * reference.REF_S
                                     for s, ref in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "scaling_exponent": exponent,
    }, {
        "raw_wall_s": statistics.median(sum(times) for times in timed),
        "raw_setup_s": statistics.median(s for s, _ in setup_times),
        "ref_unit_s": statistics.median(u for units in refs for u in units),
    }


def per_layer(tracer: Tracer, setups: int, traced: list[list[float]],
              cost: float):
    """Per-layer figures for one set-up plus one pass.

    Each total is split by phase: the set-up part is divided by the number
    of set-ups and the pass part by the number of traced passes. The
    overhead is the spans of one pass times ``cost``, the seconds one span
    adds to a call.
    """
    n_pass = len(traced)

    def per_job(table, key):
        return (table.get((key, "setup"), 0) / setups
                + table.get((key, "pass"), 0) / n_pass)

    selfs, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    metrics = {}
    for name in sorted(set(TARGETS.values())):
        metrics[f"{name}_s"] = (per_job(selfs, name), "s")
    for name in COUNTED:
        metrics[f"{name}_calls"] = (per_job(calls, name), "count")
    for key in ("engine.rounds", "engine.fired", "engine.added",
                "engine.identified"):
        metrics[key] = (per_job(counts, key), "count")
    grown = sum(counts.get((key, phase), 0)
                for key in ("chase.input", "engine.added")
                for phase in ("setup", "pass"))
    final = sum(counts.get(("chase.final", phase), 0)
                for phase in ("setup", "pass"))
    metrics["engine.kept_ratio"] = (final / grown if grown else 0.0, "ratio")
    for key in ("dsl.text_bytes", "dsl.json_bytes"):
        metrics[key] = (per_job(counts, key), "bytes")
    metrics["trace.wall_s"] = (statistics.median(sum(t) for t in traced), "s")
    spans = sum(n for (_, phase), n in calls.items() if phase == "pass")
    metrics["trace.overhead_s"] = (spans / n_pass * cost, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "limsketch" / "__init__.py").is_file():
        print(f"no limsketch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else None
    gates = Gates()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        setup_times: list[tuple[float, float]] = []

        def again() -> Run:
            return timed_set_up(args.workload, args.seed, work, tracer,
                                setup_times)

        for _ in range(SETUPS - 1):
            again()
        run = again()
        gates.check("setup", setup_failures(run))
        jobs = run.jobs
        gates.check(f"warm-up {jobs[0].label}", jobs[0].check(jobs[0].run()))
        if tracer is None:
            timed, refs = passes(jobs, args.seconds, gates, between=again,
                                 calibrate=True)
            calibrated, raw = end_to_end(jobs, timed, refs, setup_times)
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in calibrated.items()}
            for name, value in raw.items():
                print(f"{name} {value:.6g} s")
        else:
            cost = span_cost()
            tracer.phase = "pass"
            tracer.install()
            try:
                traced, _ = passes(jobs, args.seconds, gates, tracer)
            finally:
                tracer.restore()
            metrics = per_layer(tracer, SETUPS, traced, cost)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {gates.failed / gates.attempted:.6g} "
          f"({gates.failed}/{gates.attempted} jobs)")
    correct = gates.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
