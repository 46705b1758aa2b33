import numpy as np
import pytest
from scipy import integrate

from diffvar.errors import UnknownKindError
from diffvar.kernels import KERNEL_KINDS, kernel, kernel_moments


def test_pointwise_values():
    assert kernel("epanechnikov")(0.0) == pytest.approx(0.75)
    assert kernel("uniform")(0.3) == pytest.approx(0.5)
    assert kernel("triangular")(0.0) == pytest.approx(1.0)
    assert kernel("biweight")(0.0) == pytest.approx(0.9375)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_zero_outside_support(kind):
    k = kernel(kind)
    u = np.array([-5.0, -1.5, 1.0001, 2.0, 1.5])
    assert np.all(k(u) == 0.0)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_nonnegative_and_bounded(kind):
    k = kernel(kind)
    u = np.linspace(-2, 2, 2001)
    vals = k(u)
    assert np.all(vals >= 0.0)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_moments_against_quadrature(kind):
    # oracle: numeric integration of the evaluator itself
    k = kernel(kind)
    mass, _ = integrate.quad(lambda u: k(u), -1, 1)
    sigma_sq, _ = integrate.quad(lambda u: u * u * k(u), -1, 1)
    rough, _ = integrate.quad(lambda u: k(u) ** 2, -1, 1)
    got_sigma, got_rough = kernel_moments(k)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert got_sigma == pytest.approx(sigma_sq, abs=1e-10)
    assert got_rough == pytest.approx(rough, abs=1e-10)


def test_closed_form_moment_table():
    assert kernel_moments(kernel("epanechnikov")) == pytest.approx((0.2, 0.6))
    assert kernel_moments(kernel("uniform")) == pytest.approx((1 / 3, 0.5))
    assert kernel_moments(kernel("triangular")) == pytest.approx((1 / 6, 2 / 3))


def test_unknown_kind():
    with pytest.raises(UnknownKindError):
        kernel("gaussian")
