"""Layer spans around diffvar's public functions, recorded from outside.

Each traced function is replaced, at every module attribute through which
the exercised code reaches it, by a wrapper that records a span
``(id, name, start, end, parent, op)`` in memory.  The patches are
installed only around traced ops and removed afterwards, so untraced ops
run the package unmodified.  Spans are written out once, at the end.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from diffvar import (bandwidth, diffseq, estimator, kernels, serialize, simlab,
                     smoother)

# span name -> (defining module, function, modules whose binding is patched)
FUNCTIONS = {
    "smoother.fit_at": (smoother, "fit_at", (smoother, bandwidth)),
    "smoother.fit_on_grid": (smoother, "fit_on_grid", (smoother, estimator)),
    "smoother.effective_weights": (
        smoother, "effective_weights", (smoother, simlab)),
    "estimator.estimate_variance": (
        estimator, "estimate_variance", (estimator, simlab)),
    "estimator.pseudoresiduals": (
        estimator, "pseudoresiduals", (estimator, bandwidth, simlab)),
    "bandwidth.cv_select": (bandwidth, "cv_select", (bandwidth,)),
    "bandwidth.default_grid": (bandwidth, "default_grid", (bandwidth,)),
    "simlab.risk_report": (simlab, "risk_report", (simlab,)),
    "simlab.pointwise_risk": (simlab, "pointwise_risk", (simlab,)),
    "simlab.global_risk": (simlab, "global_risk", (simlab,)),
    "simlab.normality_experiment": (simlab, "normality_experiment", (simlab,)),
    "simlab.normality_diagnostics": (simlab, "normality_diagnostics", (simlab,)),
    "simlab.generate_sample": (simlab, "generate_sample", (simlab,)),
    "diffseq.optimal_sequence": (diffseq, "optimal_sequence", (diffseq,)),
    "serialize.dump_json": (serialize, "dump_json", (serialize,)),
}

# per_layer metrics that count work; they must repeat exactly for one seed
COUNT_METRICS = (
    "smoother.fits", "smoother.fits_per_rep", "smoother.effective_weights.calls",
    "kernels.evals", "kernels.points", "kernels.useful_ratio",
    "estimator.estimate_variance.calls", "estimator.pseudoresiduals.calls",
    "bandwidth.cv_select.calls", "bandwidth.fits_per_candidate",
    "bandwidth.disqualified",
    "simlab.replications", "simlab.replication_failures",
    "simlab.generate_sample.calls",
    "diffseq.optimal_sequence.calls", "diffseq.solver_iterations",
    "diffseq.restarts_accepted_ratio",
    "serialize.dump_json.calls", "serialize.dump_json.bytes",
)

# diffseq.optimal_sequence keeps a BFGS restart only below this gradient norm
_ACCEPTED_GRADIENT = 1e-10


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside diffseq, with ``minimize`` traced."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans and per-name totals of the ops run inside ``op()``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_index = -1
        self._next_id = 0
        # name -> [calls, busy seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._patches = self._build_patches()

    def _wrap(self, name, fn, observe=None):
        spans, stack, totals = self.spans, self.stack, self.totals
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            children = [0.0]
            stack.append((sid, children))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - start
                if stack:
                    stack[-1][1][0] += busy
                spans.append((sid, name, start, end, parent, self.op_index))
                total = totals[name]
                total[0] += 1
                total[1] += busy
                total[2] += busy - children[0]
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_kernel(self, values):
        self.counts["kernels.points"] += values.size
        self.counts["kernels.positive"] += int(np.count_nonzero(values > 0.0))

    def _observe_minimize(self, res):
        self.counts["diffseq.solver_iterations"] += int(res.nit)
        self.counts["diffseq.restarts"] += 1
        if np.linalg.norm(res.jac) <= _ACCEPTED_GRADIENT:
            self.counts["diffseq.restarts_accepted"] += 1

    def _observe_risk_report(self, report):
        risks = list(report.pointwise.values())
        if report.global_risk is not None:
            risks.append(report.global_risk)
        self.counts["simlab.replications"] += sum(rv.replications for rv in risks)
        self.counts["simlab.replication_failures"] += sum(rv.failures for rv in risks)

    def _observe_normality(self, report):
        self.counts["simlab.replications"] += int(report.draws.size) + report.failures
        self.counts["simlab.replication_failures"] += report.failures

    def _observe_cv(self, report):
        self.counts["bandwidth.candidates"] += len(report.scores) + len(report.disqualified)
        self.counts["bandwidth.disqualified"] += len(report.disqualified)

    def _observe_dump(self, text):
        self.counts["serialize.dump_json.bytes"] += len(text.encode("utf-8"))

    def _build_patches(self):
        observers = {
            "simlab.risk_report": self._observe_risk_report,
            "simlab.normality_experiment": self._observe_normality,
            "bandwidth.cv_select": self._observe_cv,
            "serialize.dump_json": self._observe_dump,
        }
        patches = []
        for name, (home, attr, binders) in FUNCTIONS.items():
            original = getattr(home, attr)
            traced = self._wrap(name, original, observers.get(name))
            patches += [(b, attr, original, traced) for b in binders]
        call = kernels.KernelSpec.__call__
        patches.append((kernels.KernelSpec, "__call__", call,
                        self._wrap("kernels.eval", call, self._observe_kernel)))
        optimize = diffseq.optimize
        minimize = self._wrap("diffseq.minimize", optimize.minimize,
                              self._observe_minimize)
        patches.append((diffseq, "optimize", optimize,
                        _OptimizeProxy(optimize, minimize)))
        return patches

    @contextmanager
    def op(self, index: int):
        """Trace the calls made inside the block as op ``index``."""
        for owner, attr, original, _ in self._patches:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is already patched")
        self.op_index = index
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.op_index = -1

    def snapshot(self):
        """Copy of the per-name totals and counts so far."""
        return ({k: list(v) for k, v in self.totals.items()}, dict(self.counts))

    def fits_inside(self, ancestor: str, below_op: int) -> int:
        """fit_at spans of ops < ``below_op`` that run inside an ``ancestor`` span."""
        info = {sid: (name, parent) for sid, name, _, _, parent, _ in self.spans}
        found = 0
        for sid, name, _, _, parent, op in self.spans:
            if name != "smoother.fit_at" or op >= below_op:
                continue
            while parent != -1:
                pname, parent_next = info[parent]
                if pname == ancestor:
                    found += 1
                    break
                parent = parent_next
        return found

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, window, traced_ops: int,
                  window_reps: int, window_ops: int) -> dict:
    """Per-layer values: counts over the first ``window_ops`` traced ops
    (``window`` is the tracer snapshot taken after them), times in seconds
    per op over all ``traced_ops``."""
    totals, counts = window
    calls = {name: totals.get(name, [0, 0.0, 0.0])[0]
             for name in list(FUNCTIONS) + ["kernels.eval"]}

    def busy(name):
        return tracer.totals[name][1] / traced_ops if name in tracer.totals else 0.0

    def self_time(name):
        return tracer.totals[name][2] / traced_ops if name in tracer.totals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fits = calls["smoother.fit_at"]
    simlab_self = sum(self_time(n) for n in FUNCTIONS if n.startswith("simlab."))
    return {
        "smoother.fits": fits,
        "smoother.fits_per_rep": ratio(fits, window_reps),
        "smoother.fit_at.busy_s": busy("smoother.fit_at"),
        "smoother.fit_on_grid.busy_s": busy("smoother.fit_on_grid"),
        "smoother.effective_weights.calls": calls["smoother.effective_weights"],
        "kernels.evals": calls["kernels.eval"],
        "kernels.points": counts.get("kernels.points", 0),
        "kernels.useful_ratio": ratio(counts.get("kernels.positive", 0),
                                      counts.get("kernels.points", 0)),
        "kernels.busy_s": busy("kernels.eval"),
        "estimator.estimate_variance.calls": calls["estimator.estimate_variance"],
        "estimator.estimate_variance.busy_s": busy("estimator.estimate_variance"),
        "estimator.estimate_variance.self_s": self_time("estimator.estimate_variance"),
        "estimator.pseudoresiduals.calls": calls["estimator.pseudoresiduals"],
        "estimator.pseudoresiduals.busy_s": busy("estimator.pseudoresiduals"),
        "bandwidth.cv_select.calls": calls["bandwidth.cv_select"],
        "bandwidth.cv_select.busy_s": busy("bandwidth.cv_select"),
        "bandwidth.cv_select.self_s": self_time("bandwidth.cv_select"),
        "bandwidth.fits_per_candidate": ratio(
            tracer.fits_inside("bandwidth.cv_select", window_ops),
            counts.get("bandwidth.candidates", 0)),
        "bandwidth.disqualified": counts.get("bandwidth.disqualified", 0),
        "simlab.replications": counts.get("simlab.replications", 0),
        "simlab.replication_failures": counts.get("simlab.replication_failures", 0),
        "simlab.generate_sample.calls": calls["simlab.generate_sample"],
        "simlab.generate_sample.busy_s": busy("simlab.generate_sample"),
        "simlab.self_s": simlab_self,
        "diffseq.optimal_sequence.calls": calls["diffseq.optimal_sequence"],
        "diffseq.optimal_sequence.busy_s": busy("diffseq.optimal_sequence"),
        "diffseq.solver_iterations": counts.get("diffseq.solver_iterations", 0),
        "diffseq.restarts_accepted_ratio": ratio(
            counts.get("diffseq.restarts_accepted", 0),
            counts.get("diffseq.restarts", 0)),
        "serialize.dump_json.calls": calls["serialize.dump_json"],
        "serialize.dump_json.busy_s": busy("serialize.dump_json"),
        "serialize.dump_json.bytes": counts.get("serialize.dump_json.bytes", 0),
    }


def import_metrics(logs) -> dict:
    """Median seconds per import part over several ``-X importtime`` logs.

    ``import.total_s`` is the cumulative time of the top-level
    ``diffvar.cli`` entry; each package part sums the self time of that
    package's modules.
    """
    samples = defaultdict(list)
    for log in logs:
        parts = dict.fromkeys(("import.total_s", "import.scipy_s",
                               "import.numpy_s", "import.diffvar_s"), 0.0)
        for line in log.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue  # the header, or a line that is not importtime's
            self_us, cumulative_us, module = fields
            if module == " diffvar.cli":
                parts["import.total_s"] = int(cumulative_us) * 1e-6
            key = f"import.{module.strip().split('.')[0]}_s"
            if key in parts and key != "import.total_s":
                parts[key] += int(self_us) * 1e-6
        for key, value in parts.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}
