"""Self-checks of the benchmark; run with ``python3 -m pytest perfbench``.

They start the benchmark in a subprocess from the checkout root, so
they take a few minutes.  They are kept out of the package's own test
suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402


def bench(workload, seed=3, seconds=1, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, \
        proc.stdout.splitlines()[-2]
    return out


def values(out) -> dict:
    return {k: v["value"] for k, v in out["metrics"].items()}


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(COUNT_METRICS) <= set(run.PER_LAYER_UNITS)


def test_end_to_end_run_reports_every_metric():
    out = result(bench("normality_optimal"))
    assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in values(out).values())
    assert values(out)["ok_ratio"] == 1.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_repeat_and_time_lands_in_the_named_layer(workload):
    first, second = (values(result(bench(workload, trace=1))) for _ in range(2))
    assert set(first) == set(run.PER_LAYER_UNITS)
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}

    op = first["trace.op_p50_s"]
    if workload == "simulate_risk":
        assert first["smoother.fit_on_grid.busy_s"] > 0.5 * op
    if workload == "estimate_cv":
        assert first["bandwidth.cv_select.busy_s"] > 0.5 * op
    assert (first["diffseq.optimal_sequence.calls"] > 0) == (workload == "normality_optimal")
    assert first["simlab.replication_failures"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("simulate_risk", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
