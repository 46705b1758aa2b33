import numpy as np
import pytest

from diffvar import diffseq
from diffvar.errors import (
    BadParameterError,
    ConvergenceFailureError,
    DegenerateEndpointError,
    NonPositiveOrderError,
    NormNotOneError,
    SequenceError,
    SumNotZeroError,
    TooShortError,
    UnknownKindError,
)

SQ2 = np.sqrt(2.0)


def test_validate_first_difference():
    seq = diffseq.validate([1 / SQ2, -1 / SQ2])
    assert seq.order == 1
    assert np.allclose(seq.coeffs, [0.7071067811865476, -0.7071067811865476])


def test_validate_rejects_bad_sum():
    with pytest.raises(SumNotZeroError):
        diffseq.validate([0.5, 0.5])
    for coeffs in ([np.nan, np.nan], [0.5, np.nan, -0.5], [np.inf, -np.inf]):
        with pytest.raises(SumNotZeroError):
            diffseq.validate(coeffs)


def test_validate_rejects_bad_norm():
    with pytest.raises(NormNotOneError):
        diffseq.validate([1.0, -1.0])


def test_validate_rejects_short():
    with pytest.raises(TooShortError):
        diffseq.validate([1.0])


@pytest.mark.parametrize("coeffs", [
    {"a": 1}, ["a", "b"], [[0.7071067811865476, -0.7071067811865476]], None,
    ["0.7071067811865476", "-0.7071067811865476"],
])
def test_validate_rejects_what_is_not_a_flat_list_of_numbers(coeffs):
    with pytest.raises(SequenceError, match="flat list of numbers"):
        diffseq.validate(coeffs)


def test_validate_rejects_zero_endpoint():
    c = np.array([0.0, 1.0, -1.0]) / SQ2
    with pytest.raises(DegenerateEndpointError):
        diffseq.validate(c)
    with pytest.raises(DegenerateEndpointError):
        diffseq.validate(c[::-1])


def test_standard_first_difference():
    seq = diffseq.standard_sequence("first_difference")
    assert np.allclose(seq.coeffs, [1 / SQ2, -1 / SQ2], atol=1e-15)


def test_standard_gsjs_is_normalized_half_pattern():
    seq = diffseq.standard_sequence("gsjs")
    pattern = np.array([0.5, -1.0, 0.5])
    expected = pattern / np.linalg.norm(pattern)
    assert np.allclose(seq.coeffs, expected, atol=1e-15)
    assert np.allclose(
        seq.coeffs, [0.40824829, -0.81649658, 0.40824829], atol=1e-8
    )
    # constraints hold by construction, exactly
    assert seq.coeffs.sum() == 0.0
    assert abs(seq.coeffs @ seq.coeffs - 1.0) < 1e-15


def test_standard_unknown_kind():
    with pytest.raises(UnknownKindError):
        diffseq.standard_sequence("second_difference")
    with pytest.raises(UnknownKindError, match=r"\['gsjs'\]"):
        diffseq.standard_sequence(["gsjs"])


@pytest.mark.parametrize("kind", diffseq.STANDARD_KINDS)
def test_standard_kinds_build_independent_sequences(kind):
    seq = diffseq.standard_sequence(kind)
    seq.coeffs[0] = 7.0  # a caller's edit must not reach the next sequence
    assert diffseq.standard_sequence(kind).coeffs[0] != 7.0


def test_standard_kinds():
    assert diffseq.STANDARD_KINDS == ("first_difference", "gsjs")


def test_variance_factor_first_difference():
    seq = diffseq.standard_sequence("first_difference")
    assert diffseq.variance_factor(seq) == pytest.approx(3.0, abs=1e-12)


def test_variance_factor_gsjs():
    # lag-1 sum -2/3, lag-2 sum 1/6: C = 2(1 + 2(4/9 + 1/36)) = 35/9
    seq = diffseq.standard_sequence("gsjs")
    assert diffseq.variance_factor(seq) == pytest.approx(35.0 / 9.0, abs=1e-12)


def test_min_constant_values():
    assert diffseq.min_constant(1) == pytest.approx(3.0)
    assert diffseq.min_constant(2) == pytest.approx(2.5)
    assert diffseq.min_constant(4) == pytest.approx(2.25)


def test_min_constant_rejects_bad_order():
    with pytest.raises(NonPositiveOrderError):
        diffseq.min_constant(0)


def test_optimal_order_one_is_first_difference():
    seq = diffseq.optimal_sequence(1)
    assert np.allclose(seq.coeffs, [1 / SQ2, -1 / SQ2], atol=1e-9)
    assert diffseq.variance_factor(seq) == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("r", [*range(1, 7), 70])
def test_optimal_reaches_min_constant(r):
    seq = diffseq.optimal_sequence(r)
    assert seq.order == r
    assert seq.coeffs[0] > 0.0
    c = diffseq.variance_factor(seq)
    assert abs(c - diffseq.min_constant(r)) < 1e-6
    diffseq.validate(seq.coeffs)  # must not raise


def test_optimal_order_two_known_coefficients():
    # the classical optimal order-2 sequence, up to canonical form
    seq = diffseq.optimal_sequence(2)
    assert np.allclose(seq.coeffs, [0.80901699, -0.5, -0.30901699], atol=1e-6)


def test_optimal_is_deterministic():
    a = diffseq.optimal_sequence(3)
    b = diffseq.optimal_sequence(3)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_optimal_rejects_bad_args():
    with pytest.raises(NonPositiveOrderError):
        diffseq.optimal_sequence(0)


def test_optimal_rejects_huge_order_before_allocating(monkeypatch):
    def allocate(r):
        raise AssertionError(f"order {r} reached the spectral factor")

    with monkeypatch.context() as patch:
        patch.setattr(diffseq, "_min_phase_factor", allocate)
        for r in (10**18, diffseq._MAX_ORDER + 1):
            with pytest.raises(BadParameterError, match="order must be <="):
                diffseq.optimal_sequence(r)
    seq = diffseq.optimal_sequence(diffseq._MAX_ORDER)
    assert diffseq.variance_factor(seq) - diffseq.min_constant(seq.order) <= 1e-8


def _lag_sums(d):
    r = d.size - 1
    return np.array([d[: r + 1 - k] @ d[k:] for k in range(1, r + 1)])


@pytest.mark.parametrize(
    "r, tol", [(r, 1e-12) for r in range(1, 21)] + [(70, 1e-11), (300, 1e-11)]
)
def test_optimal_lag_sums_all_equal_minimum_phase(r, tol):
    # the optimality condition itself: every lag sum is -1/(2r); the
    # minimum-phase representative has d_0 > 0 > d_1, ..., d_r
    seq = diffseq.optimal_sequence(r)
    assert np.max(np.abs(_lag_sums(seq.coeffs) + 0.5 / r)) <= tol
    assert diffseq.variance_factor(seq) - diffseq.min_constant(r) <= 1e-12
    assert seq.coeffs[0] > 0.0
    assert np.all(seq.coeffs[1:] < 0.0)


def test_optimal_order_four_known_coefficients():
    seq = diffseq.optimal_sequence(4)
    expected = [0.887277863, -0.309912359, -0.246397531, -0.190087641,
                -0.140880332]
    assert np.allclose(seq.coeffs, expected, rtol=0.0, atol=1e-9)


def test_optimal_tolerance_is_a_postcondition(monkeypatch):
    # a factor that is not the spectral one gives (1, 0, -1)/sqrt(2),
    # whose C = 3 misses (2r+1)/r = 2.5
    monkeypatch.setattr(diffseq, "_min_phase_factor", lambda r: np.ones(r))
    with pytest.raises(ConvergenceFailureError):
        diffseq.optimal_sequence(2)


def _random_valid(rng, r, count):
    """Random points on the constraint manifold, rows = sequences."""
    v = rng.standard_normal((count, r + 1))
    v -= v.mean(axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    keep = (v[:, 0] != 0.0) & (v[:, -1] != 0.0)
    return v[keep]


def _factor_rows(rows):
    r = rows.shape[1] - 1
    total = np.zeros(rows.shape[0])
    for k in range(1, r + 1):
        a_k = np.einsum("ij,ij->i", rows[:, : r + 1 - k], rows[:, k:])
        total += a_k**2
    return 2.0 * (1.0 + 2.0 * total)


@pytest.mark.parametrize("r", range(1, 6))
def test_min_constant_is_a_lower_bound(r):
    rng = np.random.default_rng(100 + r)
    rows = _random_valid(rng, r, 10_000)
    factors = _factor_rows(rows)
    assert np.all(factors >= diffseq.min_constant(r) - 1e-9)


def test_variance_factor_symmetries():
    rng = np.random.default_rng(7)
    for r in range(1, 6):
        rows = _random_valid(rng, r, 50)
        for row in rows:
            seq = diffseq.validate(row)
            c = diffseq.variance_factor(seq)
            assert diffseq.variance_factor(diffseq.validate(-row)) == pytest.approx(c, rel=1e-12)
            assert diffseq.variance_factor(diffseq.validate(row[::-1])) == pytest.approx(c, rel=1e-12)


def test_to_list_roundtrip():
    seq = diffseq.standard_sequence("gsjs")
    again = diffseq.validate(seq.to_list())
    assert np.array_equal(again.coeffs, seq.coeffs)
