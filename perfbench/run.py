"""diffvar benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload simulate_risk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to be
installed.  One process, one thread, closed loop: each op starts when the
previous one has returned.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the run's provenance and details, which are not metrics.
See README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# single-threaded BLAS in this process and in every interpreter it starts
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

SETUP_RUNS = 3          # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3     # -X importtime logs behind the import.* metrics
COUNT_WINDOW = 5        # traced ops whose counts are reported: one cycle of r
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "reps_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.total_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "import.diffvar_s": "s",
    "smoother.fits": "count", "smoother.fits_per_rep": "count",
    "smoother.fit_at.busy_s": "s/op", "smoother.fit_on_grid.busy_s": "s/op",
    "smoother.effective_weights.calls": "count",
    "kernels.evals": "count", "kernels.points": "count",
    "kernels.useful_ratio": "ratio", "kernels.busy_s": "s/op",
    "estimator.estimate_variance.calls": "count",
    "estimator.estimate_variance.busy_s": "s/op",
    "estimator.estimate_variance.self_s": "s/op",
    "estimator.pseudoresiduals.calls": "count",
    "estimator.pseudoresiduals.busy_s": "s/op",
    "bandwidth.cv_select.calls": "count", "bandwidth.cv_select.busy_s": "s/op",
    "bandwidth.cv_select.self_s": "s/op",
    "bandwidth.fits_per_candidate": "count", "bandwidth.disqualified": "count",
    "simlab.replications": "count", "simlab.replication_failures": "count",
    "simlab.generate_sample.calls": "count",
    "simlab.generate_sample.busy_s": "s/op", "simlab.self_s": "s/op",
    "diffseq.optimal_sequence.calls": "count",
    "diffseq.optimal_sequence.busy_s": "s/op",
    "diffseq.solver_iterations": "count",
    "diffseq.restarts_accepted_ratio": "ratio",
    "serialize.dump_json.calls": "count", "serialize.dump_json.busy_s": "s/op",
    "serialize.dump_json.bytes": "count",
    "trace.op_p50_s": "s", "trace.overhead_ratio": "ratio",
}

WORKLOAD_NAMES = ("simulate_risk", "estimate_cv", "normality_optimal")

_SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.perf_counter()
import diffvar.cli
import workloads
workloads.WORKLOADS[sys.argv[3]]().setup()
print(repr(time.perf_counter() - start))
"""

_IMPORT_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import diffvar.cli"


def _run_child(args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, **THREAD_ENV}, cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


def measure_setup(workload: str) -> list[float]:
    """Seconds to import diffvar.cli and build the workload's fixed inputs,
    once per fresh interpreter."""
    return [
        float(_run_child(["-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR),
                          workload]).stdout)
        for _ in range(SETUP_RUNS)
    ]


def importtime_logs() -> list[str]:
    return [_run_child(["-X", "importtime", "-c", _IMPORT_CHILD, str(SRC)]).stderr
            for _ in range(IMPORTTIME_RUNS)]


# --- machine state (provenance only) -----------------------------------------

def steal_seconds() -> float | None:
    """Machine-wide steal time so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def cpu_probe() -> float:
    """Best of three timings of a fixed numpy workload; only shows drift."""
    import numpy as np

    rng = np.random.default_rng(20070422)
    a = rng.standard_normal((256, 256))
    v = rng.standard_normal(200_000)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(10):
            float((a @ a).sum() + np.sort(v)[0])
        best = min(best, time.perf_counter() - start)
    return best


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diffvar").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": {k: os.environ.get(k) for k in THREAD_ENV}},
    }


# --- the measured loop ----------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with at least ten ops
    beyond it; the maximum when a run holds ten ops or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Runner:
    """Runs and checks ops of one workload.

    An op index fails when any run of it raises, fails a check, or gives
    another output digest than an earlier run of the same index.
    """

    def __init__(self, workload, seed: int):
        from workloads import op_seed

        self.workload = workload
        self.seed = seed
        self.op_seed = op_seed
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def run(self, index: int):
        """One timed and checked op: (seconds, outcome or None)."""
        seed = self.op_seed(self.seed, index)
        start = time.perf_counter()
        try:
            out = self.workload.op(index, seed)
            elapsed = time.perf_counter() - start
            problems = self.workload.check(index, out)
        except Exception as exc:  # a failed op is counted, not fatal
            self._fail(index, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        if problems:
            self._fail(index, "; ".join(problems))
            return elapsed, None
        return elapsed, out

    def _fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        if len(self.problems) < 20:
            self.problems.append(f"op {index}: {message}")

    def same_digest(self, index: int, first, second, what: str) -> None:
        if first is not None and second is not None and first.digest != second.digest:
            self._fail(index, f"{what} gave a different output digest")


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict, int]:
    latencies, reps, first = [], 0, None
    start = time.perf_counter()
    index = 0
    while True:
        elapsed, out = runner.run(index)
        latencies.append(elapsed)
        if out is not None:
            reps += out.reps
        if index == 0:
            first = out
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    measured = time.perf_counter() - start
    runner.same_digest(0, first, runner.run(0)[1], "a rerun with the same seed")
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "reps_per_s": reps / sum(latencies),
    }
    detail = {"ops": index, "op_tail_percentile": tail_pct, "measured_s": measured}
    return metrics, detail, index


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> tuple[dict, dict, int]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, window, window_reps = [], [], None, 0
    start = time.perf_counter()
    index = 0
    while True:
        elapsed, out = runner.run(index)
        plain.append(elapsed)
        with tracer.op(index):
            elapsed, traced_out = runner.run(index)
        traced.append(elapsed)
        runner.same_digest(index, out, traced_out, "a traced rerun with the same seed")
        if index < COUNT_WINDOW and traced_out is not None:
            window_reps += traced_out.reps
        index += 1
        if index == COUNT_WINDOW:
            window = tracer.snapshot()
        if index >= COUNT_WINDOW and time.perf_counter() - start >= seconds:
            break
    metrics = layer_metrics(tracer, window, len(traced), window_reps, COUNT_WINDOW)
    metrics["trace.op_p50_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = metrics["trace.op_p50_s"] / statistics.median(plain)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(trace_path, {"workload": runner.workload.name, "seed": runner.seed,
                              "ops": index})
    detail = {"ops": index, "untraced_op_p50_s": statistics.median(plain),
              "spans": len(tracer.spans), "spans_file": str(trace_path.relative_to(ROOT)),
              "measured_s": time.perf_counter() - start}
    return metrics, detail, index


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        logs = importtime_logs()
    else:
        setup = measure_setup(name)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.setup()
    runner = Runner(workload, seed)
    record = {"provenance": provenance(name, seed)}
    steal_start, probe_start = steal_seconds(), cpu_probe()
    if trace:
        from tracing import import_metrics

        metrics, detail, attempted = run_traced(
            runner, seconds, OUT_DIR / f"{name}.spans.jsonl.gz")
        metrics.update(import_metrics(logs))
        units = PER_LAYER_UNITS
    else:
        metrics, detail, attempted = run_untraced(runner, seconds)
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_ratio"] = 1.0 - len(runner.failed) / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["setup_runs_s"] = setup
        units = END_TO_END_UNITS
    probe_end, steal_end = cpu_probe(), steal_seconds()
    record["provenance"]["drift"] = {
        "probe_start_s": probe_start, "probe_end_s": probe_end,
        "steal_delta_s": None if steal_start is None or steal_end is None
        else steal_end - steal_start,
    }
    record["run"] = {**detail, "problems": runner.problems}
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metric set mismatch: {sorted(mismatch)}")
    for key in units:
        print(f"{name:>18}  {key:<36} {metrics[key]:.6g} {units[key]}")
    print(json.dumps(record))
    return {
        "correct": not runner.failed,
        "attempted": attempted,
        "failed": len(runner.failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process; their metrics under ``<workload>.``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "diffvar" / "__init__.py").is_file():
        print(f"error: no diffvar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    sys.exit(main())
