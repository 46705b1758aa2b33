"""Local polynomial regression with explicit effective weights.

At an evaluation point x, the responses in the window, one slice of the
ordered abscissae, are fit by weighted least squares on polynomials of
(x - x_i); the intercept is the smoothed value.  Because it is linear in
the responses, each fit also yields the effective weight that every
observation contributes to the intercept.  Those weights sum to one and
annihilate (x - x_i)^q for q = 1..degree, which is what downstream risk
and normality experiments rely on.  Since the weights depend on the
design alone, :func:`weight_operator` collects them for a whole grid
once, and applying it to any responses on that design is one weighted
sum per grid point.

Each point evaluates the kernel once and takes one thin SVD,
D = U diag(s) V^T, of the sqrt-weight-scaled, bandwidth-rescaled local
design; the least-squares hat matrix is V diag(1/s) U^T diag(sqrt w).
The normal equations D^T D, which would square the condition number,
are never formed.  The singular values give s_min/s_max, the
reciprocal condition of D; below 1e-12, as when ties leave fewer than
degree+1 distinct abscissae, the fit raises RankDeficientError before
any division by s.  Every failure message names the point as x=...

Window expansion is a smoother setting: only ``SmootherConfig.expand``
turns it on, and every fit reads it there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    InsufficientSupportError,
    RankDeficientError,
)
from .kernels import KernelSpec, kernel

__all__ = [
    "SmootherConfig",
    "EffectiveWeights",
    "WeightOperator",
    "LocalFit",
    "effective_weights",
    "fit_at",
    "fit_on_grid",
    "weight_operator",
]

RCOND_MIN = 1e-12


@dataclass(frozen=True)
class SmootherConfig:
    """Bandwidth, polynomial degree and kernel of a local fit.

    With ``expand`` set, a window where fewer than degree+1 points carry
    weight grows to the (degree+1)-th nearest abscissa instead of
    raising InsufficientSupportError; the weights record it.
    """

    bandwidth: float
    degree: int = 1
    kernel: KernelSpec = kernel("epanechnikov")
    expand: bool = False

    def __post_init__(self):
        if not 0.0 < self.bandwidth <= 1.0:
            raise BadParameterError(
                f"bandwidth must be in (0, 1], got {self.bandwidth}"
            )
        if self.degree < 0:
            raise BadParameterError(f"degree must be >= 0, got {self.degree}")


@dataclass(frozen=True, eq=False)
class EffectiveWeights:
    """Weights K_n(x_i) giving the intercept as sum_i w_i z_i.

    ``indices`` is the window's slice of the abscissae; observations
    outside it carry exactly zero weight.  ``expanded`` is set when
    ``SmootherConfig.expand`` grew a starved window.
    """

    eval_point: float
    indices: slice
    weights: np.ndarray
    expanded: bool = False


@dataclass(frozen=True, eq=False)
class WeightOperator:
    """Effective weights of the local fit at every point of a grid.

    The weights depend on the design alone, so one operator maps any
    response vector observed on that design to its smoothed values.
    """

    grid: np.ndarray
    weights: tuple[EffectiveWeights, ...]

    @property
    def expanded_points(self) -> tuple[float, ...]:
        return tuple(w.eval_point for w in self.weights if w.expanded)

    def apply(self, zs) -> np.ndarray:
        """Smoothed values of the responses ``zs`` at every grid point."""
        zs = np.asarray(zs, dtype=float)
        return np.array([w.weights @ zs[w.indices] for w in self.weights])


@dataclass(frozen=True, eq=False)
class LocalFit:
    """One weighted polynomial fit.

    ``coefficients[q]`` multiplies (x - x_i)^q, so coefficients[0] is the
    fitted value at the evaluation point.  ``bandwidth`` is the window
    actually used; it exceeds the configured one only when
    ``SmootherConfig.expand`` grew a starved window, in which case
    ``weights.expanded`` is set.
    """

    coefficients: np.ndarray
    weights: EffectiveWeights
    condition_estimate: float
    bandwidth: float

    @property
    def value(self) -> float:
        return float(self.coefficients[0])


def _factorize(xs: np.ndarray, config: SmootherConfig, x: float):
    """Window and one thin SVD of the scaled local design at x.

    Returns (effective weights, rcond, bandwidth used, local hat matrix),
    where row q of the hat matrix maps the window's responses to the
    coefficient of ((x - x_i)/h)^q.  The window slices xs from the first
    to the last positively weighted point (on unsorted xs, a zero-weight
    point inside it gets weight 0), grown when ``config.expand`` allows; ties
    short of degree+1 distinct abscissae fail the rcond check.
    """
    need = config.degree + 1
    h = config.bandwidth
    u = (x - xs) / h
    k = config.kernel(u)
    active = np.flatnonzero(k > 0.0)
    expanded = active.size < need and config.expand and xs.size >= need
    if expanded:
        # nudge past the (degree+1)-th nearest abscissa so the compact
        # kernel gives it strictly positive weight
        h = min(max(h, np.sort(np.abs(xs - x))[need - 1] * (1.0 + 1e-9)), 1.0)
        u = (x - xs) / h
        k = config.kernel(u)
        active = np.flatnonzero(k > 0.0)
    if active.size < need:
        raise InsufficientSupportError(f"{active.size} positively weighted points "
                                       f"at x={x} with h={h}; need {need}")
    window = slice(int(active[0]), int(active[-1]) + 1)
    sqrt_w = np.sqrt(k[window])
    # weighted |u| <= 1; a zero-weight u**degree (unsorted xs) may overflow to inf
    u_window = u[window].clip(-1.0, 1.0)
    design = np.vander(u_window, need, increasing=True) * sqrt_w[:, None]
    left, sv, right_t = np.linalg.svd(design, full_matrices=False)
    # column 0 of the design is sqrt_w, positive at both ends, so sv[0] > 0
    rcond = float(sv[-1] / sv[0])
    if rcond < RCOND_MIN:
        raise RankDeficientError(
            f"local design at x={x} has reciprocal condition {rcond:.2e}"
        )
    hat = (right_t.T / sv) @ (left.T * sqrt_w)
    # a copy, so that a stored operator keeps one row, not the whole hat
    weights = EffectiveWeights(
        eval_point=float(x), indices=window, weights=hat[0].copy(),
        expanded=expanded,
    )
    return weights, rcond, h, hat


def effective_weights(xs, config: SmootherConfig, x: float) -> EffectiveWeights:
    """Intercept weights of the local fit at x, without responses.

    The weights depend only on the design, so precomputing them lets a
    fixed-design simulation reuse one factorization across replications.
    """
    xs = np.asarray(xs, dtype=float)
    return _factorize(xs, config, float(x))[0]


def fit_at(xs, zs, config: SmootherConfig, x: float) -> LocalFit:
    """Weighted polynomial fit of (xs, zs) at the point x.

    Parameters
    ----------
    xs, zs : array_like, same length
        Abscissae and responses.  xs need not be sorted; the window is
        the slice from the first to the last positively weighted point.
    config : SmootherConfig
        With ``config.expand`` set, a starved window grows to the
        (degree+1)-th nearest abscissa; ``weights.expanded`` records it.
    x : float
        Evaluation point.

    Raises
    ------
    InsufficientSupportError, RankDeficientError
        The latter also when ties leave < degree+1 distinct abscissae.
    """
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    if xs.shape != zs.shape:
        raise ValueError("xs and zs must have the same shape")
    weights, rcond, h, hat = _factorize(xs, config, float(x))
    # undo the (x - x_i)/h rescaling: coefficient q multiplies (x - x_i)^q
    coefs = hat @ zs[weights.indices] / h ** np.arange(config.degree + 1)
    return LocalFit(
        coefficients=coefs,
        weights=weights,
        condition_estimate=rcond,
        bandwidth=h,
    )


def _checked_grid(grid) -> np.ndarray:
    """The grid as floats, once checked to be sorted, nonempty and in [0, 1]."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise BadParameterError("grid must be a nonempty 1-d sequence")
    # written so that a NaN fails each check
    if not np.all(np.diff(grid) >= 0):
        raise BadParameterError("grid must be sorted ascending")
    if not (grid[0] >= 0.0 and grid[-1] <= 1.0):
        raise BadParameterError("grid values must lie in [0, 1]")
    return grid


def fit_on_grid(xs, zs, config: SmootherConfig, grid) -> list[LocalFit]:
    """Repeated fit_at over a sorted grid in [0, 1].

    A failed fit raises with the offending point named in its message.
    """
    return [fit_at(xs, zs, config, x) for x in _checked_grid(grid)]


def weight_operator(xs, config: SmootherConfig, grid) -> WeightOperator:
    """Effective weights at every point of a sorted grid in [0, 1].

    Each grid point is factorized once, with the same support, rcond and
    expansion checks as :func:`fit_on_grid`; applying the operator to
    responses on ``xs`` then equals the fitted values up to rounding.
    A failed point raises as in :func:`fit_on_grid`.
    """
    grid = _checked_grid(grid)
    weights = tuple(effective_weights(xs, config, x) for x in grid)
    return WeightOperator(grid=grid, weights=weights)

