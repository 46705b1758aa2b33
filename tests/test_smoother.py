import numpy as np
import pytest

from diffvar.errors import BadParameterError, InsufficientSupportError, RankDeficientError
from diffvar.kernels import KERNEL_KINDS, kernel, kernel_eval
from diffvar.smoother import (
    SmootherConfig,
    clt_diagnostics,
    effective_weights,
    fit_at,
    fit_on_grid,
    weight_operator,
)


def wls_oracle(xs, zs, config, x):
    """Independent solve of the same weighted least squares problem.

    Builds the raw (x - x_i)^q design and solves the normal equations
    directly; also returns the intercept's weight vector over the
    positively weighted points.
    """
    u = (x - xs) / config.bandwidth
    k = kernel_eval(config.kernel, u)
    mask = k > 0
    m = np.vander(x - xs[mask], config.degree + 1, increasing=True)
    a = m.T @ (k[mask, None] * m)
    coefs = np.linalg.solve(a, m.T @ (k[mask] * zs[mask]))
    weights = np.linalg.solve(a, m.T @ np.diag(k[mask]))[0]
    return coefs, np.nonzero(mask)[0], weights


def random_design(rng, n=200):
    return np.sort(rng.uniform(0.005, 0.995, n))


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(42)
    for degree in range(4):
        for kind in KERNEL_KINDS:
            xs = random_design(rng)
            zs = rng.standard_normal(xs.size)
            config = SmootherConfig(0.25, degree, kernel(kind))
            x = rng.uniform(0.0, 1.0)
            fit = fit_at(xs, zs, config, x)
            coefs, idx, weights = wls_oracle(xs, zs, config, x)
            assert np.allclose(fit.coefficients, coefs, rtol=1e-7, atol=1e-9)
            assert np.array_equal(fit.weights.indices, idx)
            assert np.allclose(fit.weights.weights, weights, atol=1e-9)


@pytest.mark.parametrize("degree", range(5))
def test_moment_conditions_random_designs(degree):
    rng = np.random.default_rng(degree)
    for kind in KERNEL_KINDS:
        for trial in range(5):
            xs = random_design(rng, n=150 + 50 * trial)
            config = SmootherConfig(rng.uniform(0.1, 0.4), degree, kernel(kind))
            # interior and both boundaries
            for x in (0.0, rng.uniform(0.2, 0.8), 1.0):
                w = effective_weights(xs, config, x)
                assert abs(w.weights.sum() - 1.0) < 1e-10
                for q in range(1, degree + 1):
                    moment = ((x - xs[w.indices]) ** q) @ w.weights
                    assert abs(moment) < 1e-8 * config.bandwidth**q


@pytest.mark.parametrize("degree", range(5))
def test_polynomial_reproduction(degree):
    rng = np.random.default_rng(10 + degree)
    for trial in range(5):
        xs = random_design(rng, n=250)
        coef = rng.uniform(1.0, 2.0, degree + 1)
        zs = np.polynomial.polynomial.polyval(xs, coef)
        config = SmootherConfig(
            rng.uniform(0.15, 0.4), degree,
            kernel(KERNEL_KINDS[trial % len(KERNEL_KINDS)]),
        )
        for x in (0.0, 0.013, rng.uniform(0.3, 0.7), 0.987, 1.0):
            fit = fit_at(xs, zs, config, x)
            expected = np.polynomial.polynomial.polyval(x, coef)
            assert fit.value == pytest.approx(expected, rel=1e-9)


def test_constant_data_any_degree():
    xs = np.linspace(0.01, 0.99, 120)
    zs = np.full_like(xs, 3.25)
    for degree in range(4):
        fit = fit_at(xs, zs, SmootherConfig(0.2, degree), 0.4)
        assert fit.value == pytest.approx(3.25, rel=1e-12)


def test_intercept_equals_weight_inner_product():
    rng = np.random.default_rng(3)
    xs = random_design(rng)
    zs = rng.standard_normal(xs.size)
    config = SmootherConfig(0.3, 2)
    for x in (0.0, 0.31, 0.74, 1.0):
        fit = fit_at(xs, zs, config, x)
        inner = fit.weights.weights @ zs[fit.weights.indices]
        assert fit.value == pytest.approx(inner, rel=1e-10)


def test_weights_vanish_outside_window():
    rng = np.random.default_rng(4)
    xs = random_design(rng)
    config = SmootherConfig(0.2, 1)
    w = effective_weights(xs, config, 0.5)
    assert np.all(np.abs(xs[w.indices] - 0.5) <= config.bandwidth)
    full = np.zeros(xs.size)
    full[w.indices] = w.weights
    outside = np.abs(xs - 0.5) > config.bandwidth
    assert np.all(full[outside] == 0.0)


def test_equispaced_uniform_degree_zero_weights_are_equal():
    # x_i = i/101 for n = 100; the window |x_i - 0.5| <= 0.2 holds 40
    # points, each carrying exactly 1/40
    n = 100
    xs = np.arange(1, n + 1) / (n + 1)
    zs = np.zeros(n)
    config = SmootherConfig(0.2, 0, kernel("uniform"))
    fit = fit_at(xs, zs, config, 0.5)
    in_window = int(np.sum(np.abs(xs - 0.5) <= 0.2))
    assert in_window == 40
    assert fit.weights.weights.size == in_window
    assert np.allclose(fit.weights.weights, 1.0 / in_window, atol=1e-12)
    diag = clt_diagnostics(fit.weights, n, 0.2)
    assert diag.max_abs_weight == pytest.approx(1.0 / in_window, abs=1e-12)
    assert diag.sum_sq_weights == pytest.approx(1.0 / in_window, abs=1e-12)
    assert diag.max_abs_scaled == pytest.approx(n * 0.2 / in_window, rel=1e-10)


def test_single_point_window_degenerate():
    xs = np.array([0.2, 0.5, 0.8])
    w = effective_weights(xs, SmootherConfig(0.1, 0, kernel("uniform")), 0.5)
    diag = clt_diagnostics(w, 3, 0.1)
    assert diag.max_abs_weight == pytest.approx(1.0)
    assert diag.sum_sq_weights == pytest.approx(1.0)


def test_clt_statistics_scale_inversely_with_n():
    h = 0.15
    config = SmootherConfig(h, 1)
    stats = {}
    for n in (200, 400, 800):
        xs = np.arange(1, n + 1) / (n + 1)
        w = effective_weights(xs, config, 0.5)
        stats[n] = clt_diagnostics(w, n, h)
    for a, b in ((200, 400), (400, 800)):
        for attr in ("max_abs_weight", "sum_sq_weights"):
            ratio = getattr(stats[a], attr) / getattr(stats[b], attr)
            assert 2.0 / 1.2 < ratio < 2.0 * 1.2
        # the nh-scaled versions should be nearly flat
        for attr in ("max_abs_scaled", "sum_sq_scaled"):
            ratio = getattr(stats[a], attr) / getattr(stats[b], attr)
            assert 1 / 1.3 < ratio < 1.3


def test_insufficient_support():
    xs = np.array([0.1, 0.2, 0.8, 0.9])
    with pytest.raises(InsufficientSupportError):
        fit_at(xs, np.zeros(4), SmootherConfig(0.05, 1), 0.5)


def test_ties_count_once():
    xs = np.array([0.4, 0.4, 0.6])
    zs = np.array([1.0, 1.0, 2.0])
    fit = fit_at(xs, zs, SmootherConfig(0.25, 1), 0.5)  # 2 distinct points
    assert np.isfinite(fit.value)
    with pytest.raises(InsufficientSupportError):
        fit_at(xs, zs, SmootherConfig(0.25, 2), 0.5)  # needs 3 distinct


def test_expand_to_minimum():
    xs = np.array([0.1, 0.45, 0.55, 0.9])
    zs = 1.0 + 2.0 * xs
    config = SmootherConfig(0.01, 1)
    with pytest.raises(InsufficientSupportError):
        fit_at(xs, zs, config, 0.5)
    fit = fit_at(xs, zs, config, 0.5, expand_to_minimum=True)
    assert fit.expanded
    assert fit.bandwidth > config.bandwidth
    assert fit.value == pytest.approx(1.0 + 2.0 * 0.5, rel=1e-9)


def test_rank_deficient_near_coincident_design():
    xs = 0.5 + np.array([-1e-13, 0.0, 1e-13, 2e-13])
    zs = np.zeros(4)
    with pytest.raises(RankDeficientError):
        fit_at(xs, zs, SmootherConfig(0.2, 2), 0.5)


def test_fit_on_grid_matches_fit_at():
    rng = np.random.default_rng(9)
    xs = random_design(rng)
    zs = rng.standard_normal(xs.size)
    config = SmootherConfig(0.25, 1)
    grid = np.array([0.2, 0.5, 0.9])
    fits = fit_on_grid(xs, zs, config, grid)
    for x, fit in zip(grid, fits):
        assert fit.value == fit_at(xs, zs, config, x).value


def test_fit_on_grid_single_point_and_validation():
    xs = np.linspace(0.01, 0.99, 50)
    zs = np.ones(50)
    config = SmootherConfig(0.3, 1)
    fits = fit_on_grid(xs, zs, config, [0.5])
    assert len(fits) == 1
    for grid in ([], [[0.5]], [0.9, 0.1], [0.5, 1.2]):
        with pytest.raises(BadParameterError):
            fit_on_grid(xs, zs, config, grid)


def test_fit_on_grid_tags_offending_point():
    xs = np.linspace(0.4, 0.6, 50)
    zs = np.ones(50)
    config = SmootherConfig(0.05, 1)
    with pytest.raises(InsufficientSupportError) as info:
        fit_on_grid(xs, zs, config, [0.5, 0.95])
    assert info.value.grid_point == pytest.approx(0.95)


def test_weight_operator_applies_the_grid_fits():
    rng = np.random.default_rng(10)
    xs = random_design(rng)
    zs = rng.standard_normal(xs.size)
    grid = np.linspace(0.0, 1.0, 11)
    for degree in (0, 1, 3):
        config = SmootherConfig(0.3, degree)
        op = weight_operator(xs, config, grid)
        fitted = [fit.value for fit in fit_on_grid(xs, zs, config, grid)]
        np.testing.assert_allclose(op.apply(zs), fitted, rtol=1e-12, atol=0)
        assert op.expanded_points == ()


def test_weight_operator_records_expansion_and_tags_failures():
    xs = np.concatenate([np.linspace(0.05, 0.3, 30), np.linspace(0.7, 0.95, 30)])
    config = SmootherConfig(0.1, 1)
    op = weight_operator(xs, config, [0.2, 0.5, 0.8], expand_to_minimum=True)
    assert op.expanded_points == (0.5,)
    assert [w.expanded for w in op.weights] == [False, True, False]
    with pytest.raises(InsufficientSupportError) as info:
        weight_operator(xs, config, [0.2, 0.5, 0.8])
    assert info.value.grid_point == pytest.approx(0.5)
    with pytest.raises(BadParameterError):
        weight_operator(xs, config, [0.8, 0.2])


def test_config_validation():
    with pytest.raises(BadParameterError):
        SmootherConfig(0.0, 1)
    with pytest.raises(BadParameterError):
        SmootherConfig(1.5, 1)
    with pytest.raises(BadParameterError):
        SmootherConfig(0.2, -1)

