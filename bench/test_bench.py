"""Tests of the benchmark itself: inputs, gates, metric names, determinism.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    sys.path.insert(0, str(run.SRC))
    return run.set_up("proof-steps", 1, tmp_path_factory.mktemp("work"),
                      None).env


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=180)


def test_chain_3_goldens(env):
    spec = workloads.chain(env, 3, seed=11)
    assert env.ls.check_realization(spec).ok
    res = env.ls.saturate(spec, [env.mp_rule],
                          env.ls.ChaseConfig(max_rounds=4))
    assert res.rounds == 3
    assert len(res.result.carrier["Theo"].elements) == 7
    assert len(res.result.carrier["H_IM"].elements) == 49
    assert workloads.gate_chain(env, res, 3) == []


def test_seed_fixes_the_inputs(env):
    assert workloads.chain(env, 4, seed=5) == workloads.chain(env, 4, seed=5)
    assert workloads.chain(env, 4, seed=5) != workloads.chain(env, 4, seed=6)


def test_gate_rejects_chain_40_under_the_default_round_cap(env):
    spec = workloads.chain(env, 40, seed=3)
    res = env.ls.saturate(spec, [env.mp_rule])
    assert res.status == "capped"
    assert len(res.result.carrier["Theo"].elements) == 73
    assert workloads.gate_chain(env, res, 40) != []


def test_metric_names():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(pattern.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_calibration_cancels_the_machine_speed():
    jobs = [workloads.Job("small", 1, None, None),
            workloads.Job("large", 2, None, None)]
    # The second pass and set-up ran on a machine half as fast.
    timed = [[1.0, 2.0], [2.0, 4.0]]
    refs = [[0.02, 0.02], [0.04, 0.04]]
    calibrated, raw = run.end_to_end(jobs, timed, refs,
                                     [(0.1, 0.02), (0.2, 0.04)])
    assert calibrated["norm_wall_s"] == pytest.approx(3.0)
    assert calibrated["setup_s"] == pytest.approx(0.1)
    assert calibrated["scaling_exponent"] == pytest.approx(1.0)
    assert raw["raw_wall_s"] == pytest.approx(4.5)


def test_traced_counts_repeat_exactly():
    args = ("--workload", "proof-steps", "--seed", "4", "--seconds", "1",
            "--trace", "1")
    results = []
    for _ in range(2):
        proc = bench(*args)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    layers = {m["name"] for m in SPEC["per_layer"]}
    assert set(results[0]["metrics"]) == layers
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.startswith("engine.") and not k.endswith("_s")}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["engine.rounds"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spec-io", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
