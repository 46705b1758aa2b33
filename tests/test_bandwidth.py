import json
from dataclasses import replace

import numpy as np
import pytest

from diffvar import bandwidth, diffseq, simlab
from diffvar.bandwidth import (
    BandwidthGrid,
    cv_select,
    default_grid,
    rate_optimal_bandwidth,
)
from diffvar.errors import (
    AllCandidatesFailedError,
    BadParameterError,
    NonFiniteDataError,
    SmootherError,
)
from diffvar.estimator import Sample, pseudoresiduals
from diffvar.serialize import dump_json
from diffvar.smoother import SmootherConfig, weight_operator

FD = diffseq.standard_sequence("first_difference")


class TestRateOptimal:
    def test_reference_values(self):
        assert rate_optimal_bandwidth(100_000, 2.0) == pytest.approx(0.1, abs=1e-12)
        assert rate_optimal_bandwidth(1000, 1.0) == pytest.approx(0.1, abs=1e-12)

    def test_doubling_law(self):
        for gamma in (0.5, 1.0, 2.0, 3.5):
            h1 = rate_optimal_bandwidth(4096, gamma, scale=0.3)
            h2 = rate_optimal_bandwidth(8192, gamma, scale=0.3)
            assert h2 / h1 == pytest.approx(2.0 ** (-1.0 / (2 * gamma + 1)), rel=1e-12)

    def test_clamped_to_half(self):
        assert rate_optimal_bandwidth(4, 0.5, scale=10.0) == 0.5

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            rate_optimal_bandwidth(1, 2.0)
        with pytest.raises(BadParameterError):
            rate_optimal_bandwidth(100, 0.0)
        with pytest.raises(BadParameterError):
            rate_optimal_bandwidth(100, 2.0, scale=0.0)
        nan, inf = float("nan"), float("inf")
        for gamma, scale in ((nan, 1.0), (2.0, nan), (inf, 1.0), (2.0, inf)):
            with pytest.raises(BadParameterError):
                rate_optimal_bandwidth(100, gamma, scale)


class TestGrid:
    def test_validation(self):
        with pytest.raises(BadParameterError):
            BandwidthGrid(np.array([]))
        with pytest.raises(BadParameterError):
            BandwidthGrid(np.array([0.2, 0.2]))
        with pytest.raises(BadParameterError):
            BandwidthGrid(np.array([0.0, 0.2]))
        with pytest.raises(BadParameterError):
            BandwidthGrid(np.array([0.2, 0.6]))
        BandwidthGrid(np.array([0.1, 0.2, 0.5]))

    def test_default_grid_geometry(self):
        n = 200
        xs = np.arange(1, n + 1) / (n + 1.0)
        sample = Sample(xs, np.zeros(n))
        grid = default_grid(sample)
        assert grid.candidates.size == 12
        assert grid.candidates[0] == pytest.approx(4.0 / (n + 1.0))
        assert grid.candidates[-1] == pytest.approx(0.4)
        ratios = grid.candidates[1:] / grid.candidates[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_default_grid_sparse_design_fails(self):
        sample = Sample(np.array([0.1, 0.9]), np.zeros(2))
        with pytest.raises(BadParameterError):
            default_grid(sample)


def _toy_sample(n=400, seed=0):
    scenario = simlab.smooth_scenario(n)
    return simlab.generate_sample(scenario, seed)


class TestCvSelect:
    def test_single_candidate(self):
        sample = _toy_sample()
        report = cv_select(
            sample, FD, SmootherConfig(0.25, 1),
            BandwidthGrid(np.array([0.3])), folds=4, seed=1,
        )
        assert report.selected == pytest.approx(0.3)
        assert len(report.scores) == 1

    def test_deterministic_and_serializable(self):
        sample = _toy_sample()
        grid = BandwidthGrid(np.geomspace(0.05, 0.4, 6))
        a = cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=5, seed=7)
        b = cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=5, seed=7)
        assert dump_json(a) == dump_json(b)
        parsed = json.loads(dump_json(a))
        assert parsed["folds"] == 5
        assert parsed["fold_assignment_seed"] == 7
        assert parsed["selected"] == a.selected

    def test_json_is_the_report_fields(self):
        sample = _toy_sample(n=200, seed=2)
        grid = BandwidthGrid(np.array([0.001, 0.1, 0.3]))
        report = cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=4, seed=3)
        assert report.disqualified  # the 0.001 candidate, so both lists are pinned
        # oracle: the report's JSON is exactly its fields
        expected = {
            "scores": [[h, s] for h, s in report.scores],
            "selected": report.selected,
            "folds": report.folds,
            "fold_assignment_seed": report.fold_assignment_seed,
            "disqualified": [[h, r] for h, r in report.disqualified],
        }
        assert dump_json(report) == json.dumps(expected, indent=2, sort_keys=True)

    def test_overflowing_contrasts_raise(self):
        sample = _toy_sample(n=200)
        ys = sample.ys.copy()
        ys[50] = 1e160
        with pytest.raises(NonFiniteDataError):
            cv_select(Sample(sample.xs, ys), FD, SmootherConfig(0.25, 1),
                      BandwidthGrid(np.array([0.1, 0.3])), folds=4, seed=0)

    def test_selected_is_argmin_in_grid(self):
        sample = _toy_sample(seed=3)
        grid = BandwidthGrid(np.geomspace(0.04, 0.4, 8))
        report = cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=5, seed=0)
        hs = [h for h, _ in report.scores]
        scores = [s for _, s in report.scores]
        assert report.selected in hs
        assert report.selected == min(zip(scores, hs))[1]
        assert all(np.isfinite(scores))

    def test_disqualified_candidates_listed(self):
        sample = _toy_sample(n=200)
        grid = BandwidthGrid(np.array([0.001, 0.3]))
        report = cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=4, seed=0)
        assert report.selected == pytest.approx(0.3)
        assert len(report.disqualified) == 1
        assert report.disqualified[0][0] == pytest.approx(0.001)
        assert "InsufficientSupport" in report.disqualified[0][1]

    @pytest.mark.parametrize("degree", [1, 2])
    def test_scores_match_a_per_point_fit_loop(self, degree):
        sample = _toy_sample(n=300, seed=5)
        base = SmootherConfig(0.25, degree)
        grid = BandwidthGrid(np.array([0.004, 0.05, 0.12, 0.3]))
        report = cv_select(sample, FD, base, grid, folds=4, seed=0)

        series = pseudoresiduals(sample, FD)
        xs, z = series.center_xs, series.values**2
        expected, reasons = {}, {}
        for h in grid.candidates:
            config = replace(base, bandwidth=float(h))
            total = 0.0
            try:
                for held_out in bandwidth._fold_indices(z.size, 4, FD.order):
                    train = np.setdiff1d(np.arange(z.size), held_out)
                    for i in held_out:
                        fit = weight_operator(xs[train], config, [xs[i]]).apply(z[train])[0]
                        total += (z[i] - fit) ** 2
            except SmootherError as exc:
                reasons[float(h)] = f"{type(exc).__name__}: {exc}"
                continue
            expected[float(h)] = total

        assert dict(report.disqualified) == reasons
        assert list(reasons) == [0.004]
        scores = dict(report.scores)
        assert list(scores) == list(expected)
        for h, score in expected.items():
            assert scores[h] == pytest.approx(score, rel=1e-12, abs=0)
        assert report.selected == min(expected, key=lambda h: (expected[h], h))

    def test_cv_never_expands(self):
        # 0.001 starves every window; expanding would score it at a wider h
        sample = _toy_sample(n=200)
        grid = BandwidthGrid(np.array([0.001, 0.1, 0.3]))
        base = SmootherConfig(0.25, 1)
        report = cv_select(sample, FD, base, grid, folds=4, seed=0)
        assert [h for h, _ in report.disqualified] == [0.001]
        assert cv_select(sample, FD, replace(base, expand=True), grid,
                         folds=4, seed=0) == report

    def test_all_candidates_failed(self):
        sample = _toy_sample(n=200)
        grid = BandwidthGrid(np.array([0.0005, 0.001]))
        with pytest.raises(AllCandidatesFailedError):
            cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=4, seed=0)

    def test_bad_folds(self):
        sample = _toy_sample(n=100)
        grid = BandwidthGrid(np.array([0.2]))
        with pytest.raises(BadParameterError):
            cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=1, seed=0)

    @pytest.mark.parametrize("folds", [2.5, 4.0, True, "4"])
    def test_folds_that_are_not_an_integer_are_a_bad_parameter(self, folds):
        sample = _toy_sample(n=100)
        grid = BandwidthGrid(np.array([0.2]))
        with pytest.raises(BadParameterError, match="folds must be an integer"):
            cv_select(sample, FD, SmootherConfig(0.25, 1), grid, folds=folds, seed=0)

    def test_numpy_integer_folds_match_int_folds(self):
        sample = _toy_sample(n=200)
        grid = BandwidthGrid(np.array([0.2, 0.3]))
        base = SmootherConfig(0.25, 1)
        assert (cv_select(sample, FD, base, grid, folds=np.int64(4), seed=0)
                == cv_select(sample, FD, base, grid, folds=4, seed=0))

    def test_selected_is_competitive_against_mc_oracle(self):
        """The CV pick's true risk stays within 1.5x of the best candidate's.

        Oracle: the true Monte Carlo global risk of every candidate,
        measured over 200 fresh replications through the fixed-design
        weight representation of the estimator.
        """
        n = 2048
        scenario = simlab.smooth_scenario(n)
        grid = np.geomspace(0.04, 0.4, 8)
        sample = simlab.generate_sample(scenario, 2024)
        report = cv_select(
            sample, FD, SmootherConfig(0.25, 1),
            BandwidthGrid(grid), folds=5, seed=11,
        )

        xs = scenario.xs
        centers = pseudoresiduals(simlab.generate_sample(scenario, 0), FD).center_xs
        eval_grid = np.linspace(0.05, 0.95, 21)
        v_true = 0.5 + 0.25 * np.sin(2 * np.pi * eval_grid)
        weight_mats = {}
        for h in grid:
            mat = np.zeros((eval_grid.size, centers.size))
            op = weight_operator(centers, SmootherConfig(h, 1), eval_grid)
            for row, w in enumerate(op.weights):
                mat[row, w.indices] = w.weights
            weight_mats[h] = mat

        reps = 200
        risks = {h: 0.0 for h in grid}
        seeds = np.random.SeedSequence(555).spawn(reps)
        g = 2.0 + np.sin(2 * np.pi * xs)
        sd = np.sqrt(0.5 + 0.25 * np.sin(2 * np.pi * xs))
        for child in seeds:
            rng = np.random.default_rng(child)
            ys = g + sd * rng.standard_normal(n)
            d = np.diff(ys) / -np.sqrt(2.0)
            z = d * d
            for h in grid:
                err = weight_mats[h] @ z - v_true
                risks[h] += np.trapezoid(err * err, eval_grid)
        for h in grid:
            risks[h] /= reps

        best = min(risks.values())
        assert risks[report.selected] <= 1.5 * best
