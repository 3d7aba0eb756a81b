"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    DECLARED = json.load(f)


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_printed_metrics_are_declared(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_declarations_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} \
        == {k: v[:2] for k, v in tracing.LAYER_METRICS.items()}


def test_forced_bad_output_counts_as_failure(tmp_path, monkeypatch):
    from flks import pde_solver

    real_run = pde_solver.run

    def corrupted(*args, **kwargs):
        traj = real_run(*args, **kwargs)
        traj.us[-1, 0] = np.nan
        return traj

    monkeypatch.setattr(pde_solver, "run", corrupted)
    wl = workloads.build("trajectory_io", 3, str(tmp_path), "tiny")
    outcomes = wl.run_pass().outcomes
    bad = [o for o in outcomes if not o.ok]
    assert [(o.op, o.exit_code) for o in bad] == [("import_dense", 0)]
    assert "finite" in bad[0].failed_checks
    attempted, failed, correct, ok_frac = workloads.tally(outcomes)
    assert (failed, correct) == (1, False)
    assert ok_frac == (attempted - 1) / attempted


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "pde_march", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
