import numpy as np
import pytest

from diffvar import diffseq
from diffvar.errors import (
    BadParameterError,
    DiffvarError,
    NonFiniteDataError,
    TooFewObservationsError,
)
from diffvar.estimator import (
    Sample,
    estimate_variance,
    gsjs_estimate,
    hkt_estimate,
    pseudoresiduals,
    rice_estimate,
    variance_operator,
)
from diffvar.smoother import SmootherConfig, weight_operator

FD = diffseq.standard_sequence("first_difference")
GSJS = diffseq.standard_sequence("gsjs")


def make_sample(ys, xs=None):
    ys = np.asarray(ys, dtype=float)
    if xs is None:
        xs = np.arange(1, ys.size + 1) / (ys.size + 1.0)
    return Sample(xs, ys)


def pseudo_oracle(ys, d):
    """Direct transcription of the contrast definition, 1-based indexing."""
    r = len(d) - 1
    n = len(ys)
    half = r // 2
    out = []
    for i in range(half + 1, n + half - r + 1):  # paper-style index i
        out.append(sum(d[j] * ys[j + i - half - 1] for j in range(r + 1)))
    return np.array(out)


class TestSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sample(np.array([0.2, 0.1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Sample(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Sample(np.array([0.5, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(TooFewObservationsError):
            Sample(np.array([0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            Sample(np.array([0.2, 0.4]), np.array([1.0]))

    def test_rejects_non_finite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteDataError):
                Sample(np.array([0.2, 0.4, 0.6]), np.array([1.0, bad, 2.0]))
            with pytest.raises(ValueError):
                Sample(np.array([0.2, bad, 0.6]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("xs, ys, message", [
        ([0.5, 0.4], [1.0, 2.0], "strictly increasing"),
        ([0.0, 0.5], [1.0, 2.0], r"strictly inside \(0, 1\)"),
        ([0.2, 0.4, 0.6], [1.0, 2.0], "equal length"),
    ], ids=["unsorted", "outside", "mismatched"])
    def test_a_bad_design_raises_a_diffvar_error(self, xs, ys, message):
        with pytest.raises(DiffvarError, match=message):
            Sample(xs, ys)

    def test_n(self):
        assert make_sample([1.0, 2.0, 3.0]).n == 3


class TestPseudoresiduals:
    def test_hand_example_order_one(self):
        series = pseudoresiduals(make_sample([1.0, 3.0, 2.0]), FD)
        assert np.allclose(series.values, [-np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
        assert np.array_equal(series.center_xs, [0.25, 0.5])

    def test_constant_gives_zero(self):
        series = pseudoresiduals(make_sample(np.full(20, 7.3)), GSJS)
        assert np.allclose(series.values, 0.0, atol=1e-12)

    def test_gsjs_annihilates_linear(self):
        series = pseudoresiduals(make_sample([1.0, 2.0, 3.0, 4.0]), GSJS)
        assert np.allclose(series.values, [0.0, 0.0], atol=1e-12)
        assert np.array_equal(series.center_xs, [0.4, 0.6])

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_definition_oracle(self, r):
        rng = np.random.default_rng(r)
        ys = rng.standard_normal(30)
        seq = diffseq.optimal_sequence(r)
        series = pseudoresiduals(make_sample(ys), seq)
        assert series.values.size == 30 - r
        assert np.allclose(series.values, pseudo_oracle(ys, seq.coeffs), atol=1e-12)
        # attached design points start floor(r/2) into the window
        sample = make_sample(ys)
        half = r // 2
        assert np.array_equal(series.center_xs, sample.xs[half : half + 30 - r])

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            pseudoresiduals(make_sample([1.0, 2.0]), GSJS)

    @pytest.mark.parametrize("ys", [
        [0.0, 1e160, 0.0, 1.0],     # the contrast is finite, its square is not
        [1.7e308, -1.7e308, 1.0],   # the contrast itself overflows
        [1e153, -1e153] * 100,      # each square is finite, their sum is not
    ])
    def test_overflowing_contrasts_raise(self, ys):
        # without a RuntimeWarning: the suite turns one into an error
        with pytest.raises(NonFiniteDataError, match="overflow"):
            pseudoresiduals(make_sample(ys), FD)

    def test_large_finite_contrasts_pass(self):
        series = pseudoresiduals(make_sample([0.0, 1e150, 0.0]), FD)
        assert np.all(np.isfinite(series.values**2))


class TestClassicalEstimators:
    def test_rice_hand_values(self):
        assert rice_estimate(make_sample([1.0, 3.0, 2.0])) == pytest.approx(1.25)
        assert rice_estimate(make_sample([0.0, 2.0, 0.0, 2.0, 0.0])) == pytest.approx(2.0)
        assert rice_estimate(make_sample(np.full(10, 4.2))) == 0.0

    def test_gsjs_hand_values(self):
        assert gsjs_estimate(make_sample([1.0, 3.0, 1.0, 3.0])) == pytest.approx(8.0 / 3.0)
        assert gsjs_estimate(make_sample(np.linspace(1, 5, 9))) == pytest.approx(0.0, abs=1e-12)

    def test_hkt_hand_values(self):
        assert hkt_estimate(make_sample([1.0, 3.0, 2.0]), FD) == pytest.approx(1.25)
        assert hkt_estimate(make_sample(np.full(8, 2.0)), GSJS) == 0.0

    def test_gsjs_equals_hkt_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ys = rng.standard_normal(rng.integers(4, 60))
            s = make_sample(ys)
            assert abs(gsjs_estimate(s) - hkt_estimate(s, GSJS)) < 1e-12

    def test_rice_equals_hkt_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            ys = rng.standard_normal(rng.integers(3, 60))
            s = make_sample(ys)
            assert abs(rice_estimate(s) - hkt_estimate(s, FD)) < 1e-12

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            gsjs_estimate(make_sample([1.0, 2.0]))


class TestEstimateVariance:
    def test_constant_squared_contrasts(self):
        # alternating responses make every squared contrast exactly c^2/2
        c = 3.0
        ys = np.where(np.arange(60) % 2 == 0, 0.0, c)
        est = estimate_variance(
            make_sample(ys), FD, SmootherConfig(0.3, 1), np.linspace(0.1, 0.9, 9)
        )
        assert np.allclose(est.values, c * c / 2.0, rtol=1e-10)

    def test_constant_y_gives_zero(self):
        ys = np.full(60, 5.0)
        est = estimate_variance(
            make_sample(ys), FD, SmootherConfig(0.3, 1), [0.25, 0.5, 0.75]
        )
        assert np.allclose(est.values, 0.0, atol=1e-20)

    def test_equals_weight_inner_product(self):
        rng = np.random.default_rng(11)
        ys = rng.standard_normal(300)
        sample = make_sample(ys)
        seq = diffseq.optimal_sequence(2)
        config = SmootherConfig(0.2, 1)
        grid = np.array([0.05, 0.4, 0.8, 0.95])
        est = estimate_variance(sample, seq, config, grid)
        series = pseudoresiduals(sample, seq)
        z = series.values**2
        for x, value in zip(grid, est.values):
            w = weight_operator(series.center_xs, config, [x]).weights[0]
            assert value == pytest.approx(w.weights @ z[w.indices], rel=1e-10)

    @pytest.mark.parametrize("seq", [FD, GSJS, diffseq.optimal_sequence(3)],
                             ids=["fd", "gsjs", "optimal3"])
    @pytest.mark.parametrize("config", [SmootherConfig(0.2, 0), SmootherConfig(0.3, 2),
                                        SmootherConfig(0.001, 1, expand=True)],
                             ids=["degree0", "degree2", "expanded"])
    def test_equals_its_variance_operator_exactly(self, seq, config):
        sample = make_sample(np.random.default_rng(14).standard_normal(250))
        grid = np.linspace(0.0, 1.0, 17)
        est = estimate_variance(sample, seq, config, grid)
        op = variance_operator(sample.xs, seq, config, grid)
        assert est.values.tobytes() == op.apply(
            pseudoresiduals(sample, seq).values ** 2).tobytes()
        assert est.provenance.expanded_points == op.expanded_points

    def test_operator_rejects_contrasts_of_another_sequence(self):
        # a GSJS operator on 100 points takes 98 contrasts, not the 99 of FD
        sample = make_sample(np.random.default_rng(3).standard_normal(100))
        op = variance_operator(sample.xs, GSJS, SmootherConfig(0.3, 1), [0.5])
        with pytest.raises(BadParameterError, match="length 98"):
            op.apply(pseudoresiduals(sample, FD).values ** 2)
        assert op.apply(pseudoresiduals(sample, GSJS).values ** 2) == pytest.approx(
            estimate_variance(sample, GSJS, SmootherConfig(0.3, 1), [0.5]).values)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(12)
        ys = rng.standard_normal(200)
        grid = np.linspace(0.1, 0.9, 11)
        config = SmootherConfig(0.25, 1)
        for seq in (FD, GSJS, diffseq.optimal_sequence(3)):
            base = estimate_variance(make_sample(ys), seq, config, grid)
            shifted = estimate_variance(make_sample(ys + 113.5), seq, config, grid)
            assert np.allclose(shifted.values, base.values, rtol=1e-7, atol=1e-9)

    def test_scale_quadratic(self):
        rng = np.random.default_rng(13)
        ys = rng.standard_normal(200)
        grid = np.linspace(0.1, 0.9, 7)
        config = SmootherConfig(0.25, 1)
        base = estimate_variance(make_sample(ys), FD, config, grid)
        scaled = estimate_variance(make_sample(3.0 * ys), FD, config, grid)
        assert np.allclose(scaled.values, 9.0 * base.values, rtol=1e-12)
        assert rice_estimate(make_sample(3.0 * ys)) == pytest.approx(
            9.0 * rice_estimate(make_sample(ys)), rel=1e-12
        )

    def test_negative_values_reported(self):
        n = 80
        xs = np.arange(1, n + 1) / (n + 1.0)
        amp = (1.02 - xs) ** 2
        ys = amp * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        est = estimate_variance(
            Sample(xs, ys), FD, SmootherConfig(0.25, 1), np.linspace(0.05, 1.0, 20)
        )
        assert est.provenance.has_negative_values
        assert np.any(est.values < 0.0)


class TestContrastDistribution:
    """Monte Carlo structure of the contrasts under independent noise."""

    def test_lag_r_plus_one_contrasts_uncorrelated(self):
        rng = np.random.default_rng(21)
        n, reps = 5000, 500
        for seq in (FD, GSJS):
            r = seq.order
            lag = r + 1
            far, near = [], []
            for _ in range(reps):
                ys = rng.standard_normal(n)
                z = pseudo_square(ys, seq)
                far.append(np.corrcoef(z[:-lag], z[lag:])[0, 1])
                near.append(np.corrcoef(z[:-1], z[1:])[0, 1])
            assert abs(np.mean(far)) < 3.0 / np.sqrt(reps)
            # positive control: adjacent squared contrasts do correlate
            assert np.mean(near) > 0.05

    @pytest.mark.parametrize("seq", [FD, GSJS], ids=["fd", "gsjs"])
    def test_contrast_variance_tracks_v_at_one_over_n(self, seq):
        # exact second-moment identity: Var(contrast_i) is the d^2-weighted
        # average of V over the window, so it deviates from V(x_i) by O(1/n)
        devs = {}
        for n in (500, 2000):
            xs = np.arange(1, n + 1) / (n + 1.0)
            v = 0.5 + 0.25 * np.sin(2 * np.pi * xs)
            d = seq.coeffs
            r = seq.order
            half = r // 2
            m = n - r
            exact = sum(d[j] ** 2 * v[j : j + m] for j in range(r + 1))
            devs[n] = np.max(np.abs(exact - v[half : half + m]))
        assert devs[2000] < devs[500]
        # the O(1/n) envelope shrinks by at least 4x (up to 40% slack) when
        # n grows 4x; symmetric d^2 profiles decay even faster
        assert devs[500] / devs[2000] > 4.0 * 0.6
        assert devs[2000] <= 1.1 * devs[500] * (500.0 / 2000.0)

    def test_contrast_variance_matches_monte_carlo(self):
        rng = np.random.default_rng(22)
        n, reps = 400, 6000
        xs = np.arange(1, n + 1) / (n + 1.0)
        v = 0.5 + 0.25 * np.sin(2 * np.pi * xs)
        sd = np.sqrt(v)
        idx = 200
        draws = np.empty(reps)
        for k in range(reps):
            ys = 2.0 + sd * rng.standard_normal(n)
            draws[k] = pseudoresiduals(Sample(xs, ys), FD).values[idx]
        exact = 0.5 * (v[idx] + v[idx + 1])
        mc_var = draws.var(ddof=1)
        se = exact * np.sqrt(2.0 / reps)
        assert abs(mc_var - exact) < 6.0 * se

    def test_contrast_mean_envelope_for_rough_mean(self):
        # exact first-moment identity: E contrast_i inherits the mean's
        # cusp smoothness, max_i |E| <= c * n^(-beta)
        beta = 0.3
        envelope = {}
        for n in (256, 1024, 4096):
            xs = np.arange(1, n + 1) / (n + 1.0)
            g = np.abs(xs - 0.5) ** beta
            d = FD.coeffs
            m = n - 1
            exact = d[0] * g[:m] + d[1] * g[1:]
            envelope[n] = np.max(np.abs(exact))
        c = envelope[256] * 256**beta
        for n in (1024, 4096):
            assert envelope[n] <= 1.1 * c * n ** (-beta)
        assert envelope[256] > envelope[1024] > envelope[4096]


def pseudo_square(ys, seq):
    n = ys.size
    xs = np.arange(1, n + 1) / (n + 1.0)
    return pseudoresiduals(Sample(xs, ys), seq).values ** 2
