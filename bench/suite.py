"""Run every workload over several seeds and summarise the metrics.

    python3 bench/suite.py --seeds 10 [--label NAME]

Each workload runs once per seed 1..N untraced and once traced, every run in a
process of its own, for ``run_seconds`` from BENCHMARK.json. The summary
gives each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median) next to its bound, and the
traced run's per-layer figures. With ``--label`` it is also written to
``bench/BENCH_<label>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--label", help="write bench/BENCH_<label>.json")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    report = {"machine": {"cpus": os.cpu_count(),
                          "python": platform.python_version()},
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        traced = run_once(name, seeds[0], seconds, 1)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}, "per_layer": traced["metrics"]}
        print(f"== {name}: {entry['failed']}/{entry['attempted']} jobs "
              f"failed over {len(runs)} runs")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            row = summarise([r["metrics"][key]["value"] for r in runs])
            row.update(unit=metric["unit"], bound=metric["bound"])
            entry["end_to_end"][key] = row
            steady = row["spread"] < metric["bound"] / 3
            ok = ok and steady
            print(f"{key:18} {row['median']:.6g} {metric['unit']}  "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g}  "
                  f"spread {row['spread']:.2%} (bound {metric['bound']:.0%})"
                  f"{'' if steady else '  UNSTEADY'}")
            print("  " + " ".join(f"{v:.4g}" for v in row["values"]))
        for key, m in traced["metrics"].items():
            print(f"  {key:36} {m['value']:.6g} {m['unit']}")
        report["workloads"][name] = entry
    if args.label:
        out = HERE / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
