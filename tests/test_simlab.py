import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from diffvar import diffseq, simlab, smoother
from diffvar.errors import (
    BadParameterError,
    BadScenarioError,
    DiffvarError,
    InsufficientSupportError,
)
from diffvar.estimator import Sample, estimate_variance, pseudoresiduals
from diffvar.serialize import dump_json
from diffvar.simlab import (
    ErrorLaw,
    EstimatorConfig,
    Scenario,
    bias_variance_experiment,
    constant_scenario,
    function_spec,
    generate_sample,
    global_risk,
    mean_effect_experiment,
    normality_diagnostics,
    normality_experiment,
    pointwise_risk,
    quadratic_variance_scenario,
    rate_experiment,
    rate_schedule,
    risk_report,
    smooth_scenario,
)
from diffvar.smoother import SmootherConfig, weight_operator

FD = diffseq.standard_sequence("first_difference")


def true_v(scenario, grid):
    return np.asarray(scenario.var_fn(np.asarray(grid, dtype=float)))


def exact_estimator(scenario):
    def est(sample, grid):
        return true_v(scenario, grid)
    return est


class TestFunctionSpec:
    def test_values(self):
        f = function_spec("sine", offset=2.0, amplitude=1.0)
        assert f(np.array([0.25]))[0] == pytest.approx(3.0)
        q = function_spec("quadratic", offset=0.6, curvature=8.0, center=0.5)
        assert q(np.array([0.75]))[0] == pytest.approx(0.6 + 8 * 0.0625)
        a = function_spec("abs_power", exponent=0.3)
        assert a(np.array([0.5]))[0] == 0.0

    def test_unknown_name(self):
        with pytest.raises(BadScenarioError):
            function_spec("wiggle")

    def test_bad_params(self):
        with pytest.raises(BadScenarioError):
            function_spec("sine", slope=1.0)


class TestErrorLaw:
    def test_student_t_needs_df(self):
        with pytest.raises(BadScenarioError):
            ErrorLaw("student_t")
        with pytest.raises(BadScenarioError):
            ErrorLaw("student_t", df=8.0)
        for df in (float("nan"), float("inf")):
            with pytest.raises(BadScenarioError, match="finite df > 8"):
                ErrorLaw("student_t", df=df)
        ErrorLaw("student_t", df=9.0)

    def test_unknown(self):
        with pytest.raises(BadScenarioError):
            ErrorLaw("laplace")

    def test_every_listed_law_builds(self):
        assert simlab.ERROR_LAWS == ("gaussian", "scaled_uniform", "student_t")
        for kind in simlab.ERROR_LAWS:
            ErrorLaw(kind, df=9.0 if kind == "student_t" else None)

    @pytest.mark.parametrize("kind", ["gaussian", "scaled_uniform"])
    def test_df_applies_only_to_student_t(self, kind):
        with pytest.raises(BadScenarioError, match="df applies only to student_t"):
            ErrorLaw(kind, df=5.0)

    @pytest.mark.parametrize("law", [
        ErrorLaw("gaussian"),
        ErrorLaw("scaled_uniform"),
        ErrorLaw("student_t", df=9.0),
    ], ids=lambda law: law.kind)
    def test_unit_variance_zero_mean(self, law):
        rng = np.random.default_rng(1)
        draws = law.draw(rng, 400_000)
        assert draws.mean() == pytest.approx(0.0, abs=0.01)
        assert draws.var() == pytest.approx(1.0, abs=0.02)


class TestScenario:
    def test_equispaced_design(self):
        s = smooth_scenario(4)
        assert np.allclose(s.xs, [0.2, 0.4, 0.6, 0.8])

    def test_explicit_design_validation(self):
        fn = function_spec("constant", value=1.0)
        with pytest.raises(BadScenarioError):
            Scenario("bad", fn, fn, n=3, design=np.array([0.1, 0.9]))
        with pytest.raises(BadScenarioError):
            Scenario("bad", fn, fn, n=2, design=np.array([0.5, 0.4]))
        with pytest.raises(BadScenarioError):
            Scenario("bad", fn, fn, n=2, design=np.array([0.0, 0.4]))

    @pytest.mark.parametrize("design", [[0.2, np.nan, 0.8], [0.2, 0.5, np.nan]])
    def test_nan_design_rejected(self, design):
        fn = function_spec("constant", value=1.0)
        with pytest.raises(BadScenarioError):
            Scenario("bad", fn, fn, n=3, design=np.array(design))

    @pytest.mark.parametrize("n", [50.0, 2.5, True, "50"])
    def test_a_size_that_is_not_an_integer_is_a_bad_scenario(self, n):
        with pytest.raises(BadScenarioError, match="n must be an integer"):
            smooth_scenario(n)

    def test_a_numpy_integer_size_draws(self):
        assert generate_sample(smooth_scenario(np.int64(50)), 0).n == 50
        with pytest.raises(BadScenarioError, match=r"need n >= 2, got 1"):
            smooth_scenario(1)

    def test_constant_scenario_label_names_no_error_law(self):
        scen = replace(constant_scenario(500), error_law=ErrorLaw("scaled_uniform"))
        assert scen.label == "constant-n500"
        assert scen.to_dict()["error_law"]["kind"] == "scaled_uniform"

    def test_small_positive_variance_builds_and_draws(self):
        scen = Scenario("small-var", function_spec("constant", value=1.0),
                        function_spec("constant", value=0.1), n=50)
        assert np.array_equal(scen.sd, np.full(50, np.sqrt(0.1)))
        sample = generate_sample(scen, 0)
        assert sample.n == 50 and np.all(np.isfinite(sample.ys))
        with pytest.raises(ValueError, match="read-only"):
            sample.xs[0] = 0.5  # shared with the scenario

    def test_replace_rechecks_the_scenario(self):
        with pytest.raises(BadScenarioError, match="positive on the design"):
            replace(smooth_scenario(50), var_fn=function_spec("constant", value=0.0))


class TestGenerateSample:
    def test_deterministic(self):
        s = smooth_scenario(100)
        a = generate_sample(s, 42)
        b = generate_sample(s, 42)
        assert np.array_equal(a.ys, b.ys)
        assert not np.array_equal(a.ys, generate_sample(s, 43).ys)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "5", True, np.int64(-2)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        scen = smooth_scenario(50)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        for run in (lambda: generate_sample(scen, seed),
                    lambda: pointwise_risk(scen, est, 0.5, 3, seed),
                    lambda: risk_report(scen, est, 3, seed, points=(0.5,))):
            with pytest.raises(BadParameterError, match="seed"):
                run()

    def test_integer_and_seed_sequence_seeds_keep_their_samples(self):
        # sha256 of the responses before seeds were checked
        digest = "9a9894e8253aced26dd8613983e34a5774902d73230ce7b1c2f231a2488e5976"
        scen = smooth_scenario(50)
        for seed in (5, np.int64(5), np.random.SeedSequence(5)):
            ys = generate_sample(scen, seed).ys
            assert hashlib.sha256(ys.tobytes()).hexdigest() == digest

    def test_delta_check(self):
        fn0 = function_spec("constant", value=0.0)
        mean = function_spec("constant", value=3.0)
        with pytest.raises(BadScenarioError):
            Scenario("zero-var", mean, fn0, n=50)

    def test_negative_variance_rejected(self):
        with pytest.raises(BadScenarioError):
            Scenario(
                "neg", function_spec("constant", value=0.0),
                function_spec("sine", offset=0.0, amplitude=1.0), n=50,
            )

    @pytest.mark.parametrize("mean, var, role", [
        (float("nan"), 1.0, "mean"),
        (0.0, float("inf"), "variance"),
        (0.0, float("nan"), "variance"),
    ])
    def test_non_finite_functions_rejected(self, mean, var, role):
        with pytest.raises(BadScenarioError,
                           match=f"{role} function 'constant' is not finite"):
            Scenario("nonfinite", function_spec("constant", value=mean),
                     function_spec("constant", value=var), n=50)

    def test_moments_match_scenario(self):
        scen = smooth_scenario(50)
        xs = scen.xs
        idx = 25
        reps = 20_000
        draws = np.empty(reps)
        seeds = np.random.SeedSequence(9).spawn(reps)
        for k in range(reps):
            draws[k] = generate_sample(scen, seeds[k]).ys[idx]
        g = 2.0 + np.sin(2 * np.pi * xs[idx])
        v = 0.5 + 0.25 * np.sin(2 * np.pi * xs[idx])
        assert abs(draws.mean() - g) < 4.0 * np.sqrt(v / reps)
        assert abs(draws.var(ddof=1) - v) < 4.0 * v * np.sqrt(2.0 / reps)


class TestRisks:
    def test_exact_estimator_has_zero_risk(self):
        scen = smooth_scenario(60)
        rv = pointwise_risk(scen, exact_estimator(scen), 0.5, 20, 0)
        assert rv.value == 0.0
        rv = global_risk(scen, exact_estimator(scen), 20, 0)
        assert rv.value == 0.0

    def test_constant_offset_has_unit_risk(self):
        scen = smooth_scenario(60)
        def plus_one(sample, grid):
            return true_v(scen, grid) + 1.0
        rv = global_risk(scen, plus_one, 10, 0, margin=0.0, grid_size=101)
        assert rv.value == pytest.approx(1.0, rel=1e-12)
        assert rv.stderr == pytest.approx(0.0, abs=1e-15)
        rv = pointwise_risk(scen, plus_one, 0.3, 10, 0)
        assert rv.value == pytest.approx(1.0, rel=1e-12)

    def test_rice_risk_scales_inversely_with_n(self):
        def rice_fn(sample, grid):
            from diffvar.estimator import rice_estimate
            return np.full(len(grid), rice_estimate(sample))
        risks = {}
        for n in (500, 2000):
            scen = constant_scenario(n)
            risks[n] = pointwise_risk(scen, rice_fn, 0.5, 2000, 31)
        ratio = risks[500].value / risks[2000].value
        assert ratio == pytest.approx(4.0, rel=0.3)

    def test_grid_refinement_stable(self):
        scen = smooth_scenario(400)
        est = EstimatorConfig(FD, SmootherConfig(0.2, 1))
        coarse = global_risk(scen, est, 3, 5, grid_size=101)
        fine = global_risk(scen, est, 3, 5, grid_size=1001)
        assert abs(coarse.value - fine.value) / fine.value < 0.01

    def test_stderr_halves_with_quadrupled_replications(self):
        scen = smooth_scenario(200)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        a = global_risk(scen, est, 300, 7, grid_size=31)
        b = global_risk(scen, est, 1200, 7, grid_size=31)
        assert a.stderr / b.stderr == pytest.approx(2.0, rel=0.25)

    def test_replication_failures_recorded(self):
        scen = smooth_scenario(100)
        def flaky(sample, grid):
            if sample.ys[0] > 2.0:  # roughly half the replications
                raise InsufficientSupportError("synthetic failure")
            return true_v(scen, grid)
        rv = pointwise_risk(scen, flaky, 0.5, 40, 3)
        assert 0 < rv.failures < 40
        assert rv.value == 0.0

    def test_needs_two_replications(self):
        scen = smooth_scenario(100)
        with pytest.raises(BadParameterError):
            pointwise_risk(scen, exact_estimator(scen), 0.5, 1, 0)


    def test_global_risk_needs_two_grid_points(self):
        scen = smooth_scenario(100)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        with pytest.raises(BadParameterError):
            global_risk(scen, est, 5, 1, grid_size=1)


def gap_scenario():
    """Sine mean and variance on a design with no points in (0.4, 0.6)."""
    xs = np.linspace(0.01, 0.99, 99)
    xs = xs[(xs < 0.4) | (xs > 0.6)]
    return Scenario(
        label="gap",
        mean_fn=function_spec("sine", offset=2.0, amplitude=1.0),
        var_fn=function_spec("sine", offset=0.5, amplitude=0.25),
        n=xs.size,
        design=xs,
    )


class TestBoundEstimator:
    """An EstimatorConfig reuses its weights only for an unchanged design and grid."""

    @pytest.mark.parametrize("degree", [1, 3])
    def test_matches_fit_path_with_expansion(self, degree):
        scen = gap_scenario()
        grid = np.linspace(0.05, 0.95, 19)
        smoother_config = SmootherConfig(0.08, degree, expand=True)
        est = EstimatorConfig(FD, smoother_config)
        for seed in range(3):
            sample = generate_sample(scen, seed)
            series = pseudoresiduals(sample, FD)
            op = weight_operator(series.center_xs, smoother_config, grid)
            np.testing.assert_allclose(est(sample, grid), op.apply(series.values**2),
                                       rtol=1e-12, atol=0)
        expanded = tuple(w.eval_point for w in op.weights if w.expanded)
        assert 0.5 in np.round(expanded, 12)
        estimate = estimate_variance(sample, FD, smoother_config, grid)
        assert estimate.provenance.expanded_points == expanded

    def test_other_design_or_grid_takes_the_full_path(self):
        config = SmootherConfig(0.2, 1)
        est = EstimatorConfig(FD, config)
        grid = np.linspace(0.1, 0.9, 9)
        sample = generate_sample(smooth_scenario(200), 4)
        est(sample, grid)
        other = generate_sample(smooth_scenario(150), 4)
        assert np.array_equal(est(other, grid),
                              estimate_variance(other, FD, config, grid).values)
        est(sample, grid)
        assert np.array_equal(est(sample, grid[:5]),
                              estimate_variance(sample, FD, config, grid[:5]).values)

    def test_alternating_designs_and_grids_match_a_fresh_instance(self):
        config = SmootherConfig(0.2, 2)
        est = EstimatorConfig(FD, config)
        samples = [generate_sample(smooth_scenario(n), 4) for n in (200, 150)]
        grids = [np.linspace(0.1, 0.9, 9), np.linspace(0.2, 0.8, 4)]
        for s, g in [(0, 0), (1, 0), (0, 1), (0, 1), (0, 0), (1, 1), (0, 0)]:
            fresh = EstimatorConfig(FD, config)(samples[s], grids[g])
            assert np.array_equal(est(samples[s], grids[g]), fresh)

    def test_mutating_the_arrays_in_place_is_not_served_stale(self):
        config = SmootherConfig(0.2, 1)
        est = EstimatorConfig(FD, config)
        xs = np.linspace(0.01, 0.99, 200)
        ys = np.random.default_rng(0).standard_normal(xs.size)
        sample = Sample(xs, ys)
        grid = np.linspace(0.1, 0.9, 9)
        est(sample, grid)
        xs *= xs  # still increasing inside (0, 1)
        assert sample.xs is xs
        assert np.array_equal(est(sample, grid),
                              EstimatorConfig(FD, config)(sample, grid))
        grid[:] = np.linspace(0.3, 0.7, 9)
        assert np.array_equal(est(sample, grid),
                              EstimatorConfig(FD, config)(sample, grid))

    def test_build_failure_fails_every_replication_as_before(self, monkeypatch):
        seen = []
        summarize = simlab._summarize

        def capture(values, failures):
            seen.append(failures)
            return summarize(values, failures)

        monkeypatch.setattr(simlab, "_summarize", capture)
        est = EstimatorConfig(FD, SmootherConfig(0.05, 1))
        with pytest.raises(BadScenarioError, match="every replication failed"):
            global_risk(gap_scenario(), est, 6, 11, margin=0.05, grid_size=19)
        # the message every replication recorded before weights were shared
        message = ("InsufficientSupportError: 0 positively weighted points "
                   "at x=0.44999999999999996 with h=0.05; need 2")
        assert seen == [[(i, message) for i in range(6)]]


class TestFactorizationCounts:
    """Fixed-design experiments factorize each grid point once, not once per
    replication."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        # the points of every factorization, in order
        calls = []
        factorize = smoother._factorize

        def counting(*args, **kwargs):
            calls.extend(args[2])
            return factorize(*args, **kwargs)

        monkeypatch.setattr(smoother, "_factorize", counting)
        return calls

    def test_global_risk(self, factorizations):
        est = EstimatorConfig(FD, SmootherConfig(0.2, 1))
        rv = global_risk(smooth_scenario(300), est, 7, 3, grid_size=13)
        assert rv.replications == 7 and rv.failures == 0
        assert len(factorizations) == 13

    def test_normality_experiment(self, factorizations):
        est = EstimatorConfig(FD, SmootherConfig(0.2, 1))
        report = normality_experiment(smooth_scenario(300), est, 0.5, 500, 4)
        assert report.draws.size == 500
        assert factorizations == [0.5]

    def test_repeated_calls_reuse_the_weights(self, factorizations):
        est = EstimatorConfig(FD, SmootherConfig(0.2, 1))
        sample = generate_sample(smooth_scenario(300), 1)
        grid = np.linspace(0.1, 0.9, 13)
        first = est(sample, grid)
        assert np.array_equal(est(sample, grid.copy()), first)
        assert len(factorizations) == 13

    def test_mean_effect_arms_share_one_build(self, factorizations):
        report = mean_effect_experiment(2.0, 0.3, (128, 256), 3, 4, grid_size=11)
        assert report.ns == (128, 256)
        assert len(factorizations) == 2 * 11


def per_replication_loop(scenarios, replications, seed, rep_fn):
    """The loop the replication engine replaced: generate_sample per child."""
    results, failures = [], []
    for i, child in enumerate(simlab._seed_sequence(seed).spawn(replications)):
        try:
            results.append(rep_fn(*(generate_sample(s, child) for s in scenarios)))
        except DiffvarError as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return results, failures


class TestReplicationEngine:
    EXPERIMENTS = {
        "pointwise_risk": lambda est: pointwise_risk(
            smooth_scenario(200), est, 0.4, 12, 3),
        "global_risk": lambda est: global_risk(
            smooth_scenario(200), est, 12, 3, grid_size=21),
        "normality_experiment": lambda est: normality_experiment(
            smooth_scenario(100), est, 0.5, 500, 4),
        "bias_variance_experiment": lambda est: bias_variance_experiment(
            quadratic_variance_scenario(300), FD, [0.15, 0.3], 0.5, 20, 5),
        "mean_effect_experiment": lambda est: mean_effect_experiment(
            2.0, 0.3, (128, 256), 10, 6, grid_size=21),
    }

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_matches_the_per_replication_loop(self, monkeypatch, name):
        run = self.EXPERIMENTS[name]
        engine = dump_json(run(EstimatorConfig(FD, SmootherConfig(0.25, 1))))
        monkeypatch.setattr(simlab, "_replicate", per_replication_loop)
        reference = dump_json(run(EstimatorConfig(FD, SmootherConfig(0.25, 1))))
        assert engine == reference

    def test_design_is_evaluated_once_per_experiment(self, monkeypatch):
        template = quadratic_variance_scenario(200)  # variance: quadratic
        est = EstimatorConfig(FD, SmootherConfig(0.3, 1))
        calls = []
        quadratic = simlab._FUNCTIONS["quadratic"]

        def counting(*args, **kwargs):
            calls.append(1)
            return quadratic(*args, **kwargs)

        monkeypatch.setitem(simlab._FUNCTIONS, "quadratic", counting)
        scen = replace(template)  # builds, and so evaluates, the scenario anew
        assert len(calls) == 1
        counts = []
        for replications in (500, 1000):
            calls.clear()
            normality_experiment(scen, est, 0.5, replications, 1)
            counts.append(len(calls))
        assert counts == [0, 0]

    COUNTED = {
        "pointwise_risk": lambda est, r: pointwise_risk(
            smooth_scenario(100), est, 0.4, r, 3),
        "global_risk": lambda est, r: global_risk(
            smooth_scenario(100), est, r, 3, grid_size=21),
        "risk_report": lambda est, r: risk_report(
            smooth_scenario(100), est, r, 3, points=(0.5,), grid_size=21),
        "rate_experiment": lambda est, r: rate_experiment(
            [smooth_scenario(n) for n in (64, 128, 256, 512)], lambda n: est,
            r, 3, gamma=2.0, x0=0.5),
        "normality_experiment": lambda est, r: normality_experiment(
            smooth_scenario(100), est, 0.5, 50 * r, 4),
        "bias_variance_experiment": lambda est, r: bias_variance_experiment(
            quadratic_variance_scenario(300), FD, [0.15, 0.3], 0.5, r, 5),
        "mean_effect_experiment": lambda est, r: mean_effect_experiment(
            2.0, 0.3, (64, 128), r, 6, grid_size=21),
    }

    @pytest.mark.parametrize("replications", [10.0, np.float64(10)],
                             ids=["float", "numpy_float"])
    @pytest.mark.parametrize("name", sorted(COUNTED))
    def test_non_integer_replications_raise_up_front(self, name, replications):
        calls = []

        def est(sample, grid):
            calls.append(1)
            return np.ones(len(grid))

        with pytest.raises(BadParameterError, match="replications must be an integer"):
            self.COUNTED[name](est, replications)
        assert calls == []

    def test_design_failure_raises_before_any_replication(self):
        # raised while the scenario is built, so no experiment can replicate it
        with pytest.raises(BadScenarioError, match="positive on the design"):
            Scenario("zero-var", function_spec("constant", value=0.0),
                     function_spec("constant", value=0.0), n=50)


class TestRiskReport:
    def test_roundtrip_and_validation(self):
        scen = smooth_scenario(300)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        report = risk_report(scen, est, 25, 5, points=(0.3, 0.7), grid_size=31)
        text = dump_json(report)

        def entry(rv):
            return {"risk": rv.value, "stderr": rv.stderr,
                    "replications": rv.replications, "failures": rv.failures}

        # oracle: the report's JSON is exactly its fields, points as strings
        expected = {
            "scenario": report.scenario,
            "estimator": report.estimator,
            "replications": report.replications,
            "seed": report.seed,
            "pointwise": {str(x): entry(rv) for x, rv in report.pointwise.items()},
            "global": entry(report.global_risk),
            "grid_margin": report.grid_margin,
            "grid_size": report.grid_size,
        }
        assert text == json.dumps(expected, indent=2, sort_keys=True)
        assert set(json.loads(text)["pointwise"]) == {"0.3", "0.7"}
        with pytest.raises(BadParameterError):
            risk_report(scen, est, 25, 5, points=(), include_global=False)

    def test_scenario_block_is_plain_data(self):
        scen = smooth_scenario(300, error_law=ErrorLaw("student_t", df=10.0))
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        report = risk_report(scen, est, 5, 5, points=(0.5,), include_global=False)
        # the scenario's JSON nests the fields of its functions and error law
        expected = {
            "label": "smooth-n300-student_t",
            "mean_fn": {"name": "sine", "params": {"offset": 2.0, "amplitude": 1.0}},
            "var_fn": {"name": "sine", "params": {"offset": 0.5, "amplitude": 0.25}},
            "n": 300,
            "error_law": {"kind": "student_t", "df": 10.0},
            "design": "equispaced",
        }
        assert report.scenario == expected
        block = json.dumps(json.loads(dump_json(report))["scenario"],
                           indent=2, sort_keys=True)
        assert block == json.dumps(expected, indent=2, sort_keys=True)

    def test_numpy_integer_seed_is_recorded_as_the_int(self):
        scen = smooth_scenario(300)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        reports = [risk_report(scen, est, 5, seed, points=(0.5,), include_global=False)
                   for seed in (5, np.int64(5), np.random.SeedSequence(5))]
        assert dump_json(reports[1]) == dump_json(reports[0])
        assert json.loads(dump_json(reports[1]))["seed"] == 5
        assert reports[2].seed["entropy"] == 5

    def test_a_report_reruns_from_its_recorded_seed(self):
        scen = smooth_scenario(300)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        seed = np.random.SeedSequence(5).spawn(3)[1]
        text = dump_json(risk_report(scen, est, 5, seed, points=(0.5,), grid_size=21))
        rebuilt = np.random.SeedSequence(**json.loads(text)["seed"])
        again = risk_report(scen, est, 5, rebuilt, points=(0.5,), grid_size=21)
        assert dump_json(again) == text

    def test_a_repeated_point_counts_once(self):
        scen = smooth_scenario(200)
        est = EstimatorConfig(FD, SmootherConfig(0.3, 1))
        reports = [dump_json(risk_report(scen, est, 5, 1, points=points, grid_size=21))
                   for points in ((0.5, 0.5), (0.5,))]
        assert reports[0] == reports[1]

    def test_overflowing_contrasts_fail_every_replication(self):
        scen = Scenario("huge-mean", function_spec("sine", offset=0.0, amplitude=1e200),
                        function_spec("constant", value=1.0), n=200)
        est = EstimatorConfig(FD, SmootherConfig(0.2, 1))
        with pytest.raises(BadScenarioError, match="every replication failed"):
            risk_report(scen, est, 5, 1, points=(0.5,))


class TestRateExperiment:
    def test_needs_four_sizes(self):
        scens = [smooth_scenario(n) for n in (128, 256, 512)]
        with pytest.raises(BadParameterError):
            rate_experiment(scens, lambda n: None, 10, 0, gamma=2.0)

    def test_exact_estimator_gives_nan_slope(self):
        scens = [smooth_scenario(n) for n in (128, 256, 512, 1024)]
        def schedule(n):
            scen = [s for s in scens if s.n == n][0]
            return exact_estimator(scen)
        report = rate_experiment(scens, schedule, 5, 0, gamma=2.0)
        assert not report.slope_defined
        assert np.isnan(report.slope)
        assert all(rv.value == 0.0 for rv in report.risks)
        assert report.theoretical_slope == pytest.approx(-0.8)

    def test_risks_decrease_and_slope_negative(self):
        ns = (256, 512, 1024, 2048)
        scens = [smooth_scenario(n) for n in ns]
        schedule = rate_schedule(FD, gamma=2.0, scale=0.8, degree=1)
        report = rate_experiment(scens, schedule, 25, 17, gamma=2.0, grid_size=31)
        values = [rv.value for rv in report.risks]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert report.slope_defined
        assert report.slope < -0.4
        assert report.kind == "global"

    def test_aborts_on_heavy_failures(self):
        ns = (128, 256, 512, 1024)
        scens = [smooth_scenario(n) for n in ns]
        def schedule(n):
            def est(sample, grid):
                raise InsufficientSupportError("synthetic")
            return est
        with pytest.raises(BadScenarioError):
            rate_experiment(scens, schedule, 10, 0, gamma=2.0)

    def test_drops_smallest_on_modest_failures(self):
        ns = (128, 256, 512, 1024, 2048)
        scens = [smooth_scenario(n) for n in ns]
        def schedule(n):
            def est(sample, grid):
                # fail ~3% of replications at the smallest size only
                if n == 128 and sample.ys[0] > 3.4:
                    raise InsufficientSupportError("synthetic")
                return 1.0 / n + 0.0 * np.asarray(grid)
            return est
        report = rate_experiment(scens, schedule, 400, 3, gamma=2.0, x0=0.5)
        assert report.risks[0].failures > 4
        assert report.dropped_smallest
        assert report.slope_defined

    @pytest.mark.parametrize("gamma, scale", [
        (float("inf"), 1.0), (float("nan"), 1.0), (0.0, 1.0), (2.0, float("inf")),
    ])
    def test_schedule_rejects_bad_gamma_and_scale(self, gamma, scale):
        with pytest.raises(BadParameterError, match="finite and positive"):
            rate_schedule(FD, gamma, scale)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.inf, math.nan])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        scens = [smooth_scenario(n) for n in (128, 256, 512, 1024)]
        calls = []

        def schedule(n):
            calls.append(n)
            return lambda sample, grid: 1.0 / n + 0.0 * np.asarray(grid)

        with pytest.raises(BadParameterError, match="gamma must be finite and positive"):
            rate_experiment(scens, schedule, 5, 0, gamma=gamma, x0=0.5)
        assert calls == []

    def test_theoretical_slope_for_huge_gamma(self):
        scens = [smooth_scenario(n) for n in (128, 256, 512, 1024)]
        def schedule(n):
            return lambda sample, grid: 1.0 / n + 0.0 * np.asarray(grid)
        report = rate_experiment(scens, schedule, 5, 0, gamma=1e308, x0=0.5)
        assert report.theoretical_slope == -1.0

    def test_pointwise_kind(self):
        ns = (128, 256, 512, 1024)
        scens = [smooth_scenario(n) for n in ns]
        schedule = rate_schedule(FD, gamma=2.0, scale=0.8, degree=1)
        report = rate_experiment(scens, schedule, 10, 5, gamma=2.0, x0=0.5)
        assert report.kind == "pointwise@0.5"


class TestNormality:
    def test_exact_quantiles_self_test(self):
        draws = stats.norm.ppf((np.arange(2000) + 0.5) / 2000.0)
        report = normality_diagnostics(draws)
        assert report.kolmogorov_distance < 0.01
        assert abs(report.skewness) < 1e-8
        assert report.standardized.mean() == pytest.approx(0.0, abs=1e-12)
        assert report.standardized.std(ddof=0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("draws", [
        np.random.default_rng(1).standard_normal(500),
        np.random.default_rng(2).standard_t(5, 2000),
        np.random.default_rng(3).standard_normal(8),
        np.round(np.random.default_rng(4).standard_normal(300), 1),  # ties
    ], ids=["gaussian500", "student_t2000", "minimum8", "ties"])
    def test_statistics_match_scipy(self, draws):
        report = normality_diagnostics(draws)
        z = report.standardized
        assert report.skewness == pytest.approx(stats.skew(z), abs=1e-12)
        assert report.excess_kurtosis == pytest.approx(stats.kurtosis(z), abs=1e-12)
        assert report.kolmogorov_distance == pytest.approx(
            stats.kstest(z, "norm").statistic, abs=1e-12)

    def test_minimum_draws(self):
        with pytest.raises(BadParameterError):
            normality_diagnostics(np.arange(5.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_draws_raise(self, bad):
        draws = np.random.default_rng(5).standard_normal(10)
        draws[[1, 4, 7]] = bad
        with pytest.raises(BadParameterError, match="draws must be finite"):
            normality_diagnostics(draws)

    def test_nan_estimates_raise_through_the_experiment(self):
        def est(sample, grid):
            return np.full(len(grid), math.nan)

        with pytest.raises(BadParameterError, match="draws must be finite"):
            normality_experiment(smooth_scenario(50), est, 0.5, 500, 1)

    def test_zero_spread_draws_raise(self):
        with pytest.raises(BadParameterError, match="zero spread"):
            normality_diagnostics(np.ones(10))

    def test_minimum_replications(self):
        scen = smooth_scenario(100)
        est = EstimatorConfig(FD, SmootherConfig(0.3, 1))
        with pytest.raises(BadParameterError):
            normality_experiment(scen, est, 0.5, 499, 0)

    def test_experiment_runs(self):
        scen = smooth_scenario(300)
        est = EstimatorConfig(FD, SmootherConfig(0.3, 1))
        report = normality_experiment(scen, est, 0.5, 500, 12)
        assert report.draws.size == 500
        assert report.failures == 0
        assert report.draws.std() > 0
        parsed = json.loads(dump_json(report))
        assert parsed["replications"] == 500


class TestEvaluationPoint:
    @pytest.mark.parametrize("x0", [1.5, -0.1, float("nan"), float("inf")])
    def test_bad_x0_raises_before_any_replication(self, x0):
        scen = smooth_scenario(100)

        def est(sample, grid):
            raise AssertionError("a replication ran")

        with pytest.raises(BadParameterError, match="x0"):
            pointwise_risk(scen, est, x0, 2, 0)
        with pytest.raises(BadParameterError, match="x0"):
            normality_experiment(scen, est, x0, 500, 0)
        with pytest.raises(BadParameterError, match="x0"):
            bias_variance_experiment(scen, FD, [0.2, 0.3], x0, 2, 0)


class TestBiasVariance:
    def test_weight_path_matches_full_estimator(self):
        # dual route: the experiment's precomputed-weight fast path must
        # reproduce the plain per-replication estimator draws
        scen = quadratic_variance_scenario(300)
        hs = [0.15, 0.3]
        reps = 40
        report = bias_variance_experiment(scen, FD, hs, 0.5, reps, 77)
        seeds = np.random.SeedSequence(77).spawn(reps)
        draws = np.empty((reps, len(hs)))
        for k in range(reps):
            sample = generate_sample(scen, seeds[k])
            for j, h in enumerate(hs):
                est = EstimatorConfig(FD, SmootherConfig(h, 1))
                draws[k, j] = est(sample, np.array([0.5]))[0]
        v0 = float(scen.var_fn(np.array([0.5]))[0])
        assert np.allclose((draws.mean(axis=0) - v0) ** 2, report.squared_bias,
                           rtol=1e-9)
        assert np.allclose(draws.var(axis=0, ddof=1), report.variance, rtol=1e-9)

    @pytest.mark.parametrize("hs", [[0.2], [0.2, 0.2]])
    def test_needs_two_distinct_bandwidths(self, hs):
        scen = quadratic_variance_scenario(200)
        with pytest.raises(BadParameterError, match="2 distinct bandwidths"):
            bias_variance_experiment(scen, FD, hs, 0.5, 20, 0)

    def test_json_is_the_report_fields(self):
        scen = quadratic_variance_scenario(300)
        report = bias_variance_experiment(scen, FD, [0.15, 0.3], 0.5, 20, 4)
        # oracle: the report's JSON is exactly its fields
        expected = {
            "bandwidths": [float(h) for h in report.bandwidths],
            "squared_bias": [float(b) for b in report.squared_bias],
            "variance": [float(v) for v in report.variance],
            "bias_slope": report.bias_slope,
            "variance_slope": report.variance_slope,
            "replications": report.replications,
            "x0": report.x0,
        }
        assert dump_json(report) == json.dumps(expected, indent=2, sort_keys=True)

    def test_report_shapes(self):
        scen = quadratic_variance_scenario(400)
        hs = np.geomspace(0.1, 0.4, 4)
        report = bias_variance_experiment(scen, FD, hs, 0.5, 60, 5)
        assert report.squared_bias.shape == (4,)
        assert np.all(report.variance > 0)
        assert np.isfinite(report.bias_slope)
        assert np.isfinite(report.variance_slope)


class TestMeanEffect:
    def test_beta_domain(self):
        for beta in (0.2, 1.0 / 3.0, 0.5, 0.1):
            with pytest.raises(BadParameterError):
                mean_effect_experiment(2.0, beta, (128, 256, 512), 4, 0)

    def test_constant_mean_shift_leaves_risk_unchanged(self):
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        base = Scenario(
            "m0", function_spec("constant", value=0.0),
            function_spec("sine", offset=0.5, amplitude=0.25), n=400,
        )
        shifted = Scenario(
            "m5", function_spec("constant", value=5.0),
            base.var_fn, n=400,
        )
        a = global_risk(base, est, 30, 9, grid_size=31)
        b = global_risk(shifted, est, 30, 9, grid_size=31)
        assert b.value == pytest.approx(a.value, rel=1e-9)

    @pytest.mark.parametrize("ns", [(128.9, 256), (64, 100.5)])
    def test_non_integer_sample_size_raises_up_front(self, monkeypatch, ns):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simlab, "_replicate", no_replication)
        with pytest.raises(BadScenarioError, match="n must be an integer"):
            mean_effect_experiment(2.0, 0.3, ns, 4, 1, grid_size=21)

    def test_nan_gamma_reports_the_gamma_rule(self):
        with pytest.raises(BadParameterError, match="gamma and scale must be finite"):
            mean_effect_experiment(math.nan, 0.3, (64, 128), 4, 1)

    def test_every_replication_failing_raises(self):
        # scale 1e-4 makes every bandwidth too small to fit at n = 64 and 128
        with pytest.raises(BadScenarioError, match="every replication failed"):
            mean_effect_experiment(2.0, 0.3, (64, 128), 5, 1, scale=1e-4)

    def test_small_run_structure(self):
        report = mean_effect_experiment(
            2.0, 0.3, (256, 512, 1024), 20, 4, scale=0.8, grid_size=21
        )
        assert report.ns == (256, 512, 1024)
        assert len(report.ratios) == 3
        assert all(np.isfinite(r) for r in report.ratios)
        parsed = json.loads(dump_json(report))
        assert parsed["beta"] == 0.3


class TestIntegrationGrid:
    """One margin and grid-size rule for every integrated risk."""

    @pytest.mark.parametrize("margin, grid_size",
                             [(0.7, 11), (-0.2, 11), (0.5, 11), (0.05, 1), (0.05, -3)])
    def test_bad_grid_fails_before_any_replication(self, monkeypatch, margin, grid_size):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simlab, "_replicate", no_replication)
        scen = smooth_scenario(100)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        runs = [
            lambda: global_risk(scen, est, 5, 0, margin=margin, grid_size=grid_size),
            lambda: risk_report(scen, est, 5, 0, points=(0.5,),
                                margin=margin, grid_size=grid_size),
        ]
        if margin == 0.05:  # the rough-mean comparison's margin is fixed
            runs.append(lambda: mean_effect_experiment(2.0, 0.3, (64, 128), 5, 1,
                                                       grid_size=grid_size))
        for run in runs:
            with pytest.raises(BadParameterError, match="margin|grid points"):
                run()

    @pytest.mark.parametrize("grid_size", [11.5, 11.0, True, np.float64(11)],
                             ids=["float", "whole_float", "bool", "numpy_float"])
    def test_non_integer_grid_size_raises(self, monkeypatch, grid_size):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simlab, "_replicate", no_replication)
        scen = smooth_scenario(100)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        for run in (
            lambda: global_risk(scen, est, 5, 0, grid_size=grid_size),
            lambda: risk_report(scen, est, 5, 0, points=(0.5,), grid_size=grid_size),
            lambda: mean_effect_experiment(2.0, 0.3, (64, 128), 5, 1,
                                           grid_size=grid_size),
        ):
            message = f"grid_size must be an integer, got {grid_size!r}"
            with pytest.raises(BadParameterError, match=re.escape(message)):
                run()

    def test_risk_report_global_matches_global_risk(self):
        scen = smooth_scenario(300)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        report = risk_report(scen, est, 6, 5, points=(), margin=0.1, grid_size=21)
        child = np.random.SeedSequence(5).spawn(1)[0]
        assert report.global_risk == global_risk(scen, est, 6, child,
                                                 margin=0.1, grid_size=21)


class TestDeterminism:
    def test_reruns_give_identical_results(self):
        scen = smooth_scenario(300)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        first = global_risk(scen, est, 40, 123, grid_size=31)
        again = global_risk(scen, est, 40, 123, grid_size=31)
        assert first.value == again.value
        assert first.stderr == again.stderr

    def test_reports_byte_identical_across_reruns(self):
        ns = (128, 256, 512, 1024)
        scens = [smooth_scenario(n) for n in ns]
        schedule = rate_schedule(FD, gamma=2.0, scale=0.8, degree=1)
        a = rate_experiment(scens, schedule, 12, 99, gamma=2.0, x0=0.5)
        b = rate_experiment(scens, schedule, 12, 99, gamma=2.0, x0=0.5)
        assert dump_json(a) == dump_json(b)

    def test_a_seed_sequence_seed_is_never_advanced(self):
        scen = smooth_scenario(300)
        est = EstimatorConfig(FD, SmootherConfig(0.25, 1))
        scens = [smooth_scenario(n) for n in (128, 256, 512, 1024)]
        schedule = rate_schedule(FD, gamma=2.0, scale=0.8, degree=1)
        runs = {
            "pointwise": lambda seed: pointwise_risk(scen, est, 0.5, 5, seed),
            # the report's seed field records the seed as given
            "report": lambda seed: {**risk_report(scen, est, 5, seed, points=(0.5,),
                                                  grid_size=21).to_dict(), "seed": 0},
            "rates": lambda seed: rate_experiment(scens, schedule, 6, seed,
                                                  gamma=2.0, x0=0.5),
        }
        for name, run in runs.items():
            ss = np.random.SeedSequence(5)
            first, again = dump_json(run(ss)), dump_json(run(ss))
            assert first == again == dump_json(run(5)), name
