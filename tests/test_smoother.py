from collections import Counter

import numpy as np
import pytest
from scipy import linalg

from diffvar.errors import BadParameterError, InsufficientSupportError, RankDeficientError
from diffvar.kernels import KERNEL_KINDS, KernelSpec, kernel
from diffvar.smoother import (
    RCOND_MIN,
    SmootherConfig,
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
    k = config.kernel(u)
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
            assert np.array_equal(np.arange(xs.size)[fit.weights.indices], idx)
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
    w = fit.weights.weights
    max_abs = np.max(np.abs(w))
    assert max_abs == pytest.approx(1.0 / in_window, abs=1e-12)
    assert w @ w == pytest.approx(1.0 / in_window, abs=1e-12)
    assert max_abs * n * 0.2 == pytest.approx(n * 0.2 / in_window, rel=1e-10)


def test_single_point_window_degenerate():
    xs = np.array([0.2, 0.5, 0.8])
    w = effective_weights(xs, SmootherConfig(0.1, 0, kernel("uniform")), 0.5)
    assert np.max(np.abs(w.weights)) == pytest.approx(1.0)
    assert w.weights @ w.weights == pytest.approx(1.0)


def test_clt_statistics_scale_inversely_with_n():
    # max |w_i| and sum w_i^2 both concentrate like 1/(n h)
    h = 0.15
    config = SmootherConfig(h, 1)
    stats = {}
    for n in (200, 400, 800):
        xs = np.arange(1, n + 1) / (n + 1)
        w = effective_weights(xs, config, 0.5).weights
        stats[n] = np.array([np.max(np.abs(w)), w @ w])
    for a, b in ((200, 400), (400, 800)):
        ratio = stats[a] / stats[b]
        assert np.all((2.0 / 1.2 < ratio) & (ratio < 2.0 * 1.2))
        # the nh-scaled versions should be nearly flat
        scaled = (stats[a] * a * h) / (stats[b] * b * h)
        assert np.all((1 / 1.3 < scaled) & (scaled < 1.3))


def test_insufficient_support():
    xs = np.array([0.1, 0.2, 0.8, 0.9])
    with pytest.raises(InsufficientSupportError):
        fit_at(xs, np.zeros(4), SmootherConfig(0.05, 1), 0.5)


def test_ties_count_once():
    xs = np.array([0.4, 0.4, 0.6])
    zs = np.array([1.0, 1.0, 2.0])
    fit = fit_at(xs, zs, SmootherConfig(0.25, 1), 0.5)  # 2 distinct points
    assert np.isfinite(fit.value)
    # three weighted points but two distinct abscissae: the degree-2
    # design has rank 2, which the rcond check catches
    with pytest.raises(RankDeficientError):
        fit_at(xs, zs, SmootherConfig(0.25, 2), 0.5)


@pytest.mark.parametrize("degree", range(4))
def test_permuted_design_gives_the_same_fit_and_weights(degree):
    # the window is one slice; on an unsorted design it also holds
    # zero-kernel points, whose zero design rows give them weight 0.0
    rng = np.random.default_rng(300 + degree)
    for kind in KERNEL_KINDS:
        xs = random_design(rng)
        zs = rng.standard_normal(xs.size)
        perm = rng.permutation(xs.size)
        config = SmootherConfig(0.25, degree, kernel(kind))
        for x in (0.0, rng.uniform(0.2, 0.8), 1.0):
            fit = fit_at(xs, zs, config, x)
            shuffled = fit_at(xs[perm], zs[perm], config, x)
            assert shuffled.value == pytest.approx(fit.value, rel=1e-10)
            full, full_shuffled = np.zeros(xs.size), np.zeros(xs.size)
            full[fit.weights.indices] = fit.weights.weights
            full_shuffled[shuffled.weights.indices] = shuffled.weights.weights
            assert (np.max(np.abs(full_shuffled - full[perm]))
                    <= 1e-10 * np.max(np.abs(full)))
            window = shuffled.weights.indices
            outside = config.kernel((x - xs[perm][window]) / config.bandwidth) == 0.0
            assert outside.any()
            assert np.all(shuffled.weights.weights[outside] == 0.0)


def test_unsorted_design_with_underflowing_bandwidth_power():
    # h**4 underflows, so u**4 of the far point 0.9 inside the window
    # overflows; its zero kernel weight must still give it weight 0.0
    config = SmootherConfig(1e-89, 4)
    xs = np.array([0.0, 0.9, 1e-90, 2e-90, 3e-90, 4e-90])
    weights = effective_weights(xs, config, 2e-90)
    assert weights.weights[1] == 0.0
    without = effective_weights(np.delete(xs, 1), config, 2e-90)
    full = np.zeros(xs.size)
    full[weights.indices] = weights.weights
    reference = np.zeros(xs.size - 1)
    reference[without.indices] = without.weights
    assert np.allclose(np.delete(full, 1), reference, rtol=0.0, atol=1e-10)


def test_expand_to_minimum():
    xs = np.array([0.1, 0.45, 0.55, 0.9])
    zs = 1.0 + 2.0 * xs
    config = SmootherConfig(0.01, 1)
    with pytest.raises(InsufficientSupportError):
        fit_at(xs, zs, config, 0.5)
    fit = fit_at(xs, zs, SmootherConfig(0.01, 1, expand=True), 0.5)
    assert fit.weights.expanded
    assert fit.bandwidth > config.bandwidth
    assert fit.value == pytest.approx(1.0 + 2.0 * 0.5, rel=1e-9)


def test_rank_deficient_near_coincident_design():
    xs = 0.5 + np.array([-1e-13, 0.0, 1e-13, 2e-13])
    zs = np.zeros(4)
    with pytest.raises(RankDeficientError):
        fit_at(xs, zs, SmootherConfig(0.2, 2), 0.5)


def scaled_local_design(xs, config, x):
    """sqrt(K)-scaled Vandermonde design of ((x - x_i)/h)^q on the support."""
    u = (x - xs) / config.bandwidth
    k = config.kernel(u)
    mask = k > 0
    return np.vander(u[mask], config.degree + 1, increasing=True) * np.sqrt(k[mask])[:, None]


@pytest.mark.parametrize("degree", range(5))
def test_condition_estimate_is_the_scaled_design_reciprocal_condition(degree):
    rng = np.random.default_rng(200 + degree)
    for kind in KERNEL_KINDS:
        xs = random_design(rng, n=300)
        zs = rng.standard_normal(xs.size)
        config = SmootherConfig(rng.uniform(0.1, 0.4), degree, kernel(kind))
        for x in (0.0, rng.uniform(0.2, 0.8), 1.0):
            want = 1.0 / np.linalg.cond(scaled_local_design(xs, config, x))
            assert fit_at(xs, zs, config, x).condition_estimate == pytest.approx(
                want, rel=1e-9)


@pytest.mark.parametrize("factor, fits", [(1.5, True), (0.5, False)])
def test_rcond_threshold_on_a_near_coincident_pair(factor, fits):
    # two points at 0.5 -+ d get equal weight, so the scaled degree-1
    # design has orthogonal columns and reciprocal condition d/h
    h = 0.2
    d = factor * RCOND_MIN * h
    xs = 0.5 + np.array([-d, d])
    config = SmootherConfig(h, 1)
    want = 1.0 / np.linalg.cond(scaled_local_design(xs, config, 0.5))
    assert want == pytest.approx(factor * RCOND_MIN, rel=1e-3)
    if fits:
        fit = fit_at(xs, np.array([1.0, 3.0]), config, 0.5)
        assert fit.condition_estimate == pytest.approx(want, rel=1e-9)
        assert fit.value == pytest.approx(2.0, rel=1e-9)
    else:
        with pytest.raises(RankDeficientError):
            fit_at(xs, np.zeros(2), config, 0.5)


def test_one_kernel_evaluation_and_one_svd_per_grid_point(monkeypatch):
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in ((np.linalg, "svd"), (np.linalg, "qr"), (np.linalg, "solve"),
                        (np, "unique"), (KernelSpec, "__call__")):
        counting(owner, name)
    xs = random_design(np.random.default_rng(11))
    grid = np.linspace(0.1, 0.9, 5)
    fit_on_grid(xs, np.ones(xs.size), SmootherConfig(0.2, 2), grid)
    weight_operator(xs, SmootherConfig(0.2, 2), grid)
    # no window here needs expanding, so nothing is evaluated twice
    assert Counter(calls) == {"__call__": 10, "svd": 10}


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
    nan = float("nan")
    for grid in ([], [[0.5]], [0.9, 0.1], [0.5, 1.2],
                 [0.2, nan, 0.1], [nan], [0.5, nan]):
        with pytest.raises(BadParameterError):
            fit_on_grid(xs, zs, config, grid)


def test_fit_on_grid_tags_offending_point():
    xs = np.linspace(0.4, 0.6, 50)
    zs = np.ones(50)
    config = SmootherConfig(0.05, 1)
    with pytest.raises(InsufficientSupportError) as info:
        fit_on_grid(xs, zs, config, [0.5, 0.95])
    assert "x=0.95" in str(info.value)


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


def test_weight_operator_rows_slice_exactly_the_weighted_points():
    rng = np.random.default_rng(12)
    xs = random_design(rng)
    grid = np.linspace(0.0, 1.0, 21)
    for kind in KERNEL_KINDS:
        config = SmootherConfig(0.1, 1, kernel(kind))
        for x, w in zip(grid, weight_operator(xs, config, grid).weights):
            assert isinstance(w.indices, slice)
            positive = np.flatnonzero(config.kernel((x - xs) / config.bandwidth) > 0)
            assert np.array_equal(np.arange(xs.size)[w.indices], positive)


def test_weight_operator_records_expansion_and_tags_failures():
    xs = np.concatenate([np.linspace(0.05, 0.3, 30), np.linspace(0.7, 0.95, 30)])
    config = SmootherConfig(0.1, 1)
    op = weight_operator(xs, SmootherConfig(0.1, 1, expand=True), [0.2, 0.5, 0.8])
    assert op.expanded_points == (0.5,)
    assert [w.expanded for w in op.weights] == [False, True, False]
    with pytest.raises(InsufficientSupportError) as info:
        weight_operator(xs, config, [0.2, 0.5, 0.8])
    assert "x=0.5" in str(info.value)
    with pytest.raises(BadParameterError):
        weight_operator(xs, config, [0.8, 0.2])


def test_config_validation():
    with pytest.raises(BadParameterError):
        SmootherConfig(0.0, 1)
    with pytest.raises(BadParameterError):
        SmootherConfig(1.5, 1)
    with pytest.raises(BadParameterError):
        SmootherConfig(0.2, -1)


@pytest.mark.parametrize("degree", range(5))
def test_solves_match_a_triangular_solver_reference(degree):
    # the fit solves through one thin SVD of the scaled local design; a QR
    # factorization with dedicated triangular solves must agree
    rng = np.random.default_rng(100 + degree)
    for kind in KERNEL_KINDS:
        xs = random_design(rng, n=300)
        zs = rng.standard_normal(xs.size)
        config = SmootherConfig(0.3, degree, kernel(kind))
        for x in (0.0, rng.uniform(0.2, 0.8), 1.0):
            fit = fit_at(xs, zs, config, x)
            idx = fit.weights.indices
            t = (x - xs[idx]) / config.bandwidth
            sqrt_w = np.sqrt(config.kernel(t))
            q, r = np.linalg.qr(np.vander(t, degree + 1, increasing=True)
                                * sqrt_w[:, None])
            e0 = np.eye(degree + 1)[0]
            weights = sqrt_w * (q @ linalg.solve_triangular(r, e0, trans="T"))
            coefs = (linalg.solve_triangular(r, q.T @ (sqrt_w * zs[idx]))
                     / config.bandwidth ** np.arange(degree + 1))
            for got, want in ((fit.coefficients, coefs),
                              (fit.weights.weights, weights),
                              (effective_weights(xs, config, x).weights, weights)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
