from collections import Counter

import numpy as np
import pytest
from scipy import linalg

import diffvar
from diffvar.errors import BadParameterError, InsufficientSupportError, RankDeficientError
from diffvar import smoother
from diffvar.kernels import KERNEL_KINDS, KernelSpec, kernel
from diffvar.smoother import RCOND_MIN, SmootherConfig, weight_operator


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
    weights = np.linalg.solve(a, m.T * k[mask])[0]
    return coefs, np.nonzero(mask)[0], weights


def random_design(rng, n=200):
    return np.sort(rng.uniform(0.005, 0.995, n))


def weights_at(xs, config, x):
    """The effective weights of a one-point build at x."""
    return weight_operator(xs, config, [x]).weights[0]


def value_at(xs, zs, config, x):
    """The smoothed value of a one-point build at x."""
    return weight_operator(xs, config, [x]).apply(zs)[0]


def test_the_smoother_exports_one_entry_point():
    assert smoother.__all__ == ["SmootherConfig", "EffectiveWeights", "WeightOperator",
                                "weight_operator"]
    for name in ("LocalFit", "fit_at", "fit_on_grid", "effective_weights"):
        assert name not in diffvar.__all__ and not hasattr(diffvar, name)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(42)
    for degree in range(4):
        for kind in KERNEL_KINDS:
            xs = random_design(rng)
            zs = rng.standard_normal(xs.size)
            config = SmootherConfig(0.25, degree, kernel(kind))
            x = rng.uniform(0.0, 1.0)
            op = weight_operator(xs, config, [x])
            w = op.weights[0]
            coefs, idx, weights = wls_oracle(xs, zs, config, x)
            assert abs(op.apply(zs)[0] - coefs[0]) <= 1e-12 * abs(coefs[0])
            assert np.array_equal(np.arange(xs.size)[w.indices], idx)
            assert np.allclose(w.weights, weights, atol=1e-9)


@pytest.mark.parametrize("degree", range(5))
def test_moment_conditions_random_designs(degree):
    rng = np.random.default_rng(degree)
    for kind in KERNEL_KINDS:
        for trial in range(5):
            xs = random_design(rng, n=150 + 50 * trial)
            config = SmootherConfig(rng.uniform(0.1, 0.4), degree, kernel(kind))
            # interior and both boundaries
            for x in (0.0, rng.uniform(0.2, 0.8), 1.0):
                w = weights_at(xs, config, x)
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
            expected = np.polynomial.polynomial.polyval(x, coef)
            assert value_at(xs, zs, config, x) == pytest.approx(expected, rel=1e-9)


def test_constant_data_any_degree():
    xs = np.linspace(0.01, 0.99, 120)
    zs = np.full_like(xs, 3.25)
    for degree in range(4):
        assert value_at(xs, zs, SmootherConfig(0.2, degree), 0.4) == pytest.approx(
            3.25, rel=1e-12)


def test_intercept_equals_weight_inner_product():
    rng = np.random.default_rng(3)
    xs = random_design(rng)
    zs = rng.standard_normal(xs.size)
    config = SmootherConfig(0.3, 2)
    grid = [0.0, 0.31, 0.74, 1.0]
    op = weight_operator(xs, config, grid)
    inner = [w.weights @ zs[w.indices] for w in op.weights]
    assert op.apply(zs).tolist() == inner


def test_weights_vanish_outside_window():
    rng = np.random.default_rng(4)
    xs = random_design(rng)
    config = SmootherConfig(0.2, 1)
    w = weights_at(xs, config, 0.5)
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
    config = SmootherConfig(0.2, 0, kernel("uniform"))
    w = weights_at(xs, config, 0.5).weights
    in_window = int(np.sum(np.abs(xs - 0.5) <= 0.2))
    assert in_window == 40
    assert w.size == in_window
    assert np.allclose(w, 1.0 / in_window, atol=1e-12)
    max_abs = np.max(np.abs(w))
    assert max_abs == pytest.approx(1.0 / in_window, abs=1e-12)
    assert w @ w == pytest.approx(1.0 / in_window, abs=1e-12)
    assert max_abs * n * 0.2 == pytest.approx(n * 0.2 / in_window, rel=1e-10)


def test_single_point_window_degenerate():
    xs = np.array([0.2, 0.5, 0.8])
    w = weights_at(xs, SmootherConfig(0.1, 0, kernel("uniform")), 0.5)
    assert np.max(np.abs(w.weights)) == pytest.approx(1.0)
    assert w.weights @ w.weights == pytest.approx(1.0)


def test_clt_statistics_scale_inversely_with_n():
    # max |w_i| and sum w_i^2 both concentrate like 1/(n h)
    h = 0.15
    config = SmootherConfig(h, 1)
    stats = {}
    for n in (200, 400, 800):
        xs = np.arange(1, n + 1) / (n + 1)
        w = weights_at(xs, config, 0.5).weights
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
        weight_operator(xs, SmootherConfig(0.05, 1), [0.5])


def test_ties_count_once():
    xs = np.array([0.4, 0.4, 0.6])
    zs = np.array([1.0, 1.0, 2.0])
    assert np.isfinite(value_at(xs, zs, SmootherConfig(0.25, 1), 0.5))  # 2 distinct points
    # three weighted points but two distinct abscissae: the degree-2
    # design has rank 2, which the rcond check catches
    with pytest.raises(RankDeficientError):
        weight_operator(xs, SmootherConfig(0.25, 2), [0.5])


def test_a_design_that_is_not_ascending_and_1d_is_a_bad_parameter():
    xs = np.linspace(0.01, 0.99, 50)
    with_nan = xs.copy()
    with_nan[20] = np.nan
    permuted = np.random.default_rng(5).permutation(xs)
    config = SmootherConfig(0.3, 1)
    for bad in (with_nan, permuted, xs.reshape(5, 10)):
        with pytest.raises(BadParameterError):
            weight_operator(bad, config, [0.2, 0.5])


def first_point_failure(xs, config, grid):
    """The error a point-by-point loop over the grid raises first."""
    for x in grid:
        try:
            weight_operator(xs, config, [x])
        except (InsufficientSupportError, RankDeficientError) as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("ties, want", [(0.2, RankDeficientError),
                                        (0.8, InsufficientSupportError)])
def test_a_grid_build_raises_for_its_first_failing_point(monkeypatch, ties, want):
    # tied abscissae make the degree-1 design rank deficient at x=ties;
    # x=0.5 has no abscissa within h
    others = np.linspace(0.7, 0.9, 30) if ties < 0.5 else np.linspace(0.1, 0.3, 30)
    xs = np.sort(np.concatenate([np.full(5, ties), others]))
    config = SmootherConfig(0.05, 1)
    grid = [0.2, 0.5, 0.8]
    expected = first_point_failure(xs, config, grid)
    assert expected[0] is want
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    with pytest.raises(want) as info:
        weight_operator(xs, config, grid)
    assert (type(info.value), str(info.value)) == expected
    # only x=0.2, before the starved point, is ever factorized
    assert [shape[0] for shape in shapes] == [1]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_rows_across_block_boundaries_match_one_point_builds(kind):
    # a gap wider than 2h starves x=0.5 alone, which expands
    h = 0.1
    xs = np.concatenate([np.linspace(0.0, 0.39, 2048), np.linspace(0.61, 1.0, 2048)])
    grid = np.concatenate([np.linspace(0.0, 0.4, 500), [0.5], np.linspace(0.6, 1.0, 500)])
    config = SmootherConfig(h, 3, kernel(kind), expand=True)
    op = weight_operator(xs, config, grid)
    assert op.expanded_points == (0.5,)
    # the stacked designs fill many blocks
    assert 4 * sum(w.weights.size for w in op.weights) > 10 * smoother._BLOCK
    zs = np.zeros(xs.size)
    for x, w in zip(grid, op.weights):
        one = weights_at(xs, config, x)
        assert w.indices == one.indices and w.expanded == one.expanded
        # a perturbation of the design moves the weights by about eps/rcond
        scale = np.max(np.abs(one.weights)) / one.rcond
        np.testing.assert_allclose(w.weights, one.weights, rtol=0, atol=1e-12 * scale)
        if not w.expanded:
            _, idx, weights = wls_oracle(xs, zs, config, x)
            assert np.array_equal(np.arange(xs.size)[w.indices], idx)
            assert np.max(np.abs(w.weights - weights)) <= 1e-12


def test_expand_to_minimum():
    xs = np.array([0.1, 0.45, 0.55, 0.9])
    zs = 1.0 + 2.0 * xs
    config = SmootherConfig(0.01, 1)
    with pytest.raises(InsufficientSupportError):
        weight_operator(xs, config, [0.5])
    op = weight_operator(xs, SmootherConfig(0.01, 1, expand=True), [0.5])
    w = op.weights[0]
    assert w.expanded
    assert np.max(np.abs(0.5 - xs[w.indices])) > config.bandwidth
    assert op.apply(zs)[0] == pytest.approx(1.0 + 2.0 * 0.5, rel=1e-9)


def test_rank_deficient_near_coincident_design():
    xs = 0.5 + np.array([-1e-13, 0.0, 1e-13, 2e-13])
    with pytest.raises(RankDeficientError):
        weight_operator(xs, SmootherConfig(0.2, 2), [0.5])


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
        config = SmootherConfig(rng.uniform(0.1, 0.4), degree, kernel(kind))
        for x in (0.0, rng.uniform(0.2, 0.8), 1.0):
            want = 1.0 / np.linalg.cond(scaled_local_design(xs, config, x))
            assert weights_at(xs, config, x).rcond == pytest.approx(want, rel=1e-9)


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
        op = weight_operator(xs, config, [0.5])
        assert op.weights[0].rcond == pytest.approx(want, rel=1e-9)
        assert op.apply([1.0, 3.0])[0] == pytest.approx(2.0, rel=1e-9)
    else:
        with pytest.raises(RankDeficientError):
            weight_operator(xs, config, [0.5])


def test_one_kernel_evaluation_and_one_svd_per_grid_point(monkeypatch):
    calls, svd_inputs = [], []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            if name == "svd":
                svd_inputs.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in ((np.linalg, "svd"), (np.linalg, "qr"), (np.linalg, "solve"),
                        (np, "unique"), (KernelSpec, "__call__")):
        counting(owner, name)
    xs = random_design(np.random.default_rng(11))
    grid = np.linspace(0.1, 0.9, 5)
    weight_operator(xs, SmootherConfig(0.2, 2), grid)
    # the build evaluates the kernel once over the searched brackets and
    # once over the stacked windows, and takes one SVD of all 5 designs; no
    # window here needs expanding, so nothing is evaluated a third time
    assert Counter(calls) == {"__call__": 2, "svd": 1}
    assert [shape[0] for shape in svd_inputs] == [5]


def test_fit_on_grid_matches_fit_at():
    rng = np.random.default_rng(9)
    xs = random_design(rng)
    zs = rng.standard_normal(xs.size)
    config = SmootherConfig(0.25, 1)
    grid = np.array([0.2, 0.5, 0.9])
    applied = weight_operator(xs, config, grid).apply(zs)
    assert applied.tolist() == [value_at(xs, zs, config, x) for x in grid]


def test_fit_on_grid_single_point_and_validation():
    xs = np.linspace(0.01, 0.99, 50)
    zs = np.ones(50)
    config = SmootherConfig(0.3, 1)
    assert weight_operator(xs, config, [0.5]).apply(zs).shape == (1,)
    nan = float("nan")
    for grid in ([], [[0.5]], [0.9, 0.1], [0.5, 1.2],
                 [0.2, nan, 0.1], [nan], [0.5, nan]):
        with pytest.raises(BadParameterError):
            weight_operator(xs, config, grid)


def test_fit_on_grid_tags_offending_point():
    xs = np.linspace(0.4, 0.6, 50)
    config = SmootherConfig(0.05, 1)
    with pytest.raises(InsufficientSupportError) as info:
        weight_operator(xs, config, [0.5, 0.95])
    assert "x=0.95" in str(info.value)


def test_weight_operator_applies_the_grid_fits():
    rng = np.random.default_rng(10)
    xs = random_design(rng)
    zs = rng.standard_normal(xs.size)
    grid = np.linspace(0.0, 1.0, 11)
    for degree in (0, 1, 3):
        config = SmootherConfig(0.3, degree)
        op = weight_operator(xs, config, grid)
        fitted = [wls_oracle(xs, zs, config, x)[0][0] for x in grid]
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
    with pytest.raises(BadParameterError, match=r"degree must be >= 0, got -1"):
        SmootherConfig(0.2, -1)


@pytest.mark.parametrize("degree", [1.5, 2.0, True, "1", None, np.float64(3)])
def test_a_degree_that_is_not_an_integer_is_a_bad_parameter(degree):
    with pytest.raises(BadParameterError, match="degree must be an integer"):
        SmootherConfig(0.2, degree)


def test_a_numpy_integer_degree_builds():
    xs = np.linspace(0.01, 0.99, 50)
    config = SmootherConfig(0.3, np.int64(2))
    assert np.allclose(weight_operator(xs, config, [0.5]).apply(xs ** 2), 0.25)


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_fits_equal_the_weight_operator_exactly(degree, kind):
    # a one-point build and a grid build in one block agree bit for bit
    rng = np.random.default_rng(7 + degree)
    xs = random_design(rng, n=300)
    zs = rng.standard_normal(xs.size)
    config = SmootherConfig(0.3, degree, kernel(kind))
    grid = np.linspace(0.0, 1.0, 21)
    op = weight_operator(xs, config, grid)
    for x, w in zip(grid, op.weights):
        one = weights_at(xs, config, x)
        assert (one.eval_point, one.indices, one.rcond, one.expanded) == (
            w.eval_point, w.indices, w.rcond, w.expanded)
        assert np.array_equal(one.weights, w.weights)
    assert [value_at(xs, zs, config, x) for x in grid] == op.apply(zs).tolist()


def test_apply_takes_exactly_one_response_per_design_point():
    xs = np.linspace(0.01, 0.99, 100)
    op = weight_operator(xs, SmootherConfig(0.2, 1), [0.5])
    assert op.apply(np.ones(100)) == pytest.approx([1.0])
    for zs in (np.ones(150), np.ones(99), np.ones((100, 1)), np.ones((2, 100)), 1.0):
        with pytest.raises(BadParameterError, match="length 100"):
            op.apply(zs)


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
            op = weight_operator(xs, config, [x])
            idx = op.weights[0].indices
            t = (x - xs[idx]) / config.bandwidth
            sqrt_w = np.sqrt(config.kernel(t))
            q, r = np.linalg.qr(np.vander(t, degree + 1, increasing=True)
                                * sqrt_w[:, None])
            e0 = np.eye(degree + 1)[0]
            weights = sqrt_w * (q @ linalg.solve_triangular(r, e0, trans="T"))
            intercept = linalg.solve_triangular(r, q.T @ (sqrt_w * zs[idx]))[0]
            assert abs(op.apply(zs)[0] - intercept) <= 1e-12 * abs(intercept)
            got = op.weights[0].weights
            assert np.max(np.abs(got - weights)) <= 1e-12 * np.max(np.abs(weights))
