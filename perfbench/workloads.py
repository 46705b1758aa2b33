"""The three benchmark workloads: fixed inputs, one op, and its output checks.

Every op reaches diffvar through module attributes (``simlab.risk_report``,
``bandwidth.cv_select``, ...) at call time, so the tracer's patches on those
attributes see the calls.  An op returns an ``Outcome``: the report objects,
the JSON text the op emitted, a digest of everything the op produced and the
number of simulated datasets it estimated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from diffvar import bandwidth, diffseq, estimator, serialize, simlab
from diffvar.errors import DiffvarError
from diffvar.smoother import SmootherConfig


def op_seed(workload_seed: int, index: int) -> int:
    """Seed of op ``index``, derived from the workload seed alone."""
    ss = np.random.SeedSequence(entropy=workload_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class Outcome:
    result: object
    text: str
    digest: str
    reps: int


def _digest(text: str, *arrays) -> str:
    h = hashlib.sha256(text.encode("utf-8"))
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class SimulateRisk:
    """README ``simulate``: pointwise risk at 0.5 plus the global risk."""

    name = "simulate_risk"
    replications = 8

    def setup(self):
        self.scenario = simlab.smooth_scenario(2000)
        self.estimator = simlab.EstimatorConfig(
            diffseq.standard_sequence("first_difference"), SmootherConfig(0.15, 1)
        )

    def op(self, index: int, seed: int) -> Outcome:
        report = simlab.risk_report(
            self.scenario, self.estimator, replications=self.replications,
            seed=seed, points=(0.5,),
        )
        text = serialize.dump_json(report)
        reps = sum(rv.replications for rv in report.pointwise.values())
        reps += report.global_risk.replications
        return Outcome(report, text, _digest(text), reps)

    def check(self, index: int, out: Outcome) -> list[str]:
        report = out.result
        problems = []
        risks = dict(report.pointwise)
        risks["global"] = report.global_risk
        for where, rv in risks.items():
            if not (math.isfinite(rv.value) and rv.value >= 0.0):
                problems.append(f"risk at {where} is {rv.value}")
            if not math.isfinite(rv.stderr):
                problems.append(f"stderr at {where} is {rv.stderr}")
            if rv.failures != 0:
                problems.append(f"{rv.failures} replication failures at {where}")
            if rv.replications != self.replications:
                problems.append(f"{rv.replications} replications at {where}")
        if json.loads(out.text)["replications"] != self.replications:
            problems.append("JSON report lost the replication count")
        return problems


class EstimateCv:
    """README ``estimate --bandwidth cv`` on one generated dataset of n=1000."""

    name = "estimate_cv"

    def setup(self):
        self.scenario = simlab.smooth_scenario(1000)
        self.sequence = diffseq.standard_sequence("first_difference")
        self.base = SmootherConfig(0.25, 1)
        self.grid = np.linspace(0.05, 0.95, 101)

    def op(self, index: int, seed: int) -> Outcome:
        sample = simlab.generate_sample(self.scenario, seed)
        candidates = bandwidth.default_grid(sample)
        report = bandwidth.cv_select(
            sample, self.sequence, self.base, candidates, folds=5, seed=seed,
        )
        curve = estimator.estimate_variance(
            sample, self.sequence, SmootherConfig(report.selected, 1), self.grid,
        )
        text = serialize.dump_json({
            "grid": curve.grid, "values": curve.values,
            "provenance": curve.provenance, "cv": report,
        })
        return Outcome((candidates, report, curve), text, _digest(text), 1)

    def check(self, index: int, out: Outcome) -> list[str]:
        candidates, report, curve = out.result
        problems = []
        grid = [float(h) for h in candidates.candidates]
        if report.selected not in grid:
            problems.append(f"selected {report.selected} is not a grid candidate")
        if len(report.scores) + len(report.disqualified) != len(grid):
            problems.append("scores and disqualified do not cover the grid")
        if not report.scores:
            problems.append("no candidate scored")
        elif min(report.scores, key=lambda hs: (hs[1], hs[0]))[0] != report.selected:
            problems.append("selected is not the argmin of the reported scores")
        if curve.values.shape != self.grid.shape or not np.all(np.isfinite(curve.values)):
            problems.append("variance curve is not finite on the 101-point grid")
        return problems


class NormalityOptimal:
    """README ``normality --sequence optimal``: BFGS solve, then 500 draws at 0.5."""

    name = "normality_optimal"
    replications = 500
    orders = (2, 3, 4, 5, 6)

    def setup(self):
        n = 2000
        self.scenario = simlab.smooth_scenario(n)
        self.smoother = SmootherConfig(min(4.4 * n ** (-0.3), 0.5), 1)

    def op(self, index: int, seed: int) -> Outcome:
        r = self.orders[index % len(self.orders)]
        seq = diffseq.optimal_sequence(r)
        report = simlab.normality_experiment(
            self.scenario, simlab.EstimatorConfig(seq, self.smoother),
            x0=0.5, replications=self.replications, seed=seed,
        )
        text = serialize.dump_json(report)
        reps = int(report.draws.size) + report.failures
        return Outcome((r, seq, report), text,
                       _digest(text, seq.coeffs, report.draws), reps)

    def check(self, index: int, out: Outcome) -> list[str]:
        r, seq, report = out.result
        problems = []
        try:
            diffseq.validate(seq.coeffs)
        except DiffvarError as exc:
            problems.append(f"optimal sequence r={r} fails validate: {exc}")
        if seq.order != r:
            problems.append(f"asked for order {r}, got {seq.order}")
        gap = abs(diffseq.variance_factor(seq) - (2 * r + 1) / r)
        if not gap <= 1e-8:
            problems.append(f"variance factor misses (2r+1)/r by {gap:.3g} at r={r}")
        if report.draws.size != self.replications - report.failures:
            problems.append(
                f"{report.draws.size} draws with {report.failures} failures "
                f"out of {self.replications}"
            )
        shape = (report.skewness, report.excess_kurtosis, report.kolmogorov_distance)
        if not all(math.isfinite(v) for v in shape):
            problems.append(f"non-finite normality diagnostics {shape}")
        return problems


WORKLOADS = {w.name: w for w in (SimulateRisk, EstimateCv, NormalityOptimal)}
