"""Local polynomial regression with explicit effective weights.

At an evaluation point x, responses inside the bandwidth window are fit
by weighted least squares on polynomials of (x - x_i); the intercept is
the smoothed value.  Because the fitted value is linear in the
responses, each fit also yields the effective weight that every
observation contributes to the intercept.  Those weights sum to one and
annihilate (x - x_i)^q for q = 1..degree, which is what downstream risk
and normality experiments rely on.  Since the weights depend on the
design alone, :func:`weight_operator` collects them for a whole grid
once, and applying it to any responses on that design is one weighted
sum per grid point.

The weighted design is solved through a QR factorization of the
sqrt-weight-scaled, bandwidth-rescaled local design; normal equations
are never formed.  A reciprocal-condition estimate below 1e-12 raises
RankDeficientError instead of silently degrading the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import (
    BadParameterError,
    InsufficientSupportError,
    RankDeficientError,
    SmootherError,
)
from .kernels import KernelSpec, kernel

__all__ = [
    "SmootherConfig",
    "EffectiveWeights",
    "WeightOperator",
    "LocalFit",
    "CltDiagnostics",
    "effective_weights",
    "fit_at",
    "fit_on_grid",
    "weight_operator",
    "clt_diagnostics",
]

RCOND_MIN = 1e-12


@dataclass(frozen=True)
class SmootherConfig:
    """Bandwidth, polynomial degree and kernel of a local fit."""

    bandwidth: float
    degree: int = 1
    kernel: KernelSpec = kernel("epanechnikov")

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

    ``indices`` are the positions (into the original abscissae) the
    window touches; observations outside carry exactly zero weight.
    ``expanded`` is set when ``expand_to_minimum`` grew a starved window.
    """

    eval_point: float
    indices: np.ndarray
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
    ``expand_to_minimum`` grew a starved window, in which case
    ``expanded`` is set.
    """

    coefficients: np.ndarray
    weights: EffectiveWeights
    condition_estimate: float
    bandwidth: float
    expanded: bool = False

    @property
    def value(self) -> float:
        return float(self.coefficients[0])


@dataclass(frozen=True)
class CltDiagnostics:
    """Weight concentration statistics behind the CLT conditions.

    Both raw statistics should shrink like 1/(n h); the ``*_scaled``
    fields are premultiplied by n*h so that boundedness is visible
    directly.
    """

    max_abs_weight: float
    sum_sq_weights: float
    max_abs_scaled: float
    sum_sq_scaled: float


def _active(xs: np.ndarray, config: SmootherConfig, x: float, h: float):
    return np.nonzero(config.kernel((x - xs) / h) > 0.0)[0]


def _window(xs: np.ndarray, config: SmootherConfig, x: float, expand: bool):
    """Select positively weighted points, growing h if allowed and needed.

    Returns (indices, bandwidth used, expanded flag).  Ties in xs count
    once toward the degree+1 distinct-abscissae requirement.
    """
    need = config.degree + 1
    h = config.bandwidth
    expanded = False
    active = _active(xs, config, x, h)
    if np.unique(xs[active]).size < need and expand:
        dists = np.sort(np.abs(np.unique(xs) - x))
        if dists.size >= need:
            # nudge past the (degree+1)-th nearest distinct abscissa so
            # the compact kernel gives it strictly positive weight
            h = min(max(h, dists[need - 1] * (1.0 + 1e-9)), 1.0)
            active = _active(xs, config, x, h)
            expanded = True
    if np.unique(xs[active]).size < need:
        raise InsufficientSupportError(
            f"{active.size} positively weighted points "
            f"({np.unique(xs[active]).size} distinct) at x={x} with h={h}; "
            f"need {need}"
        )
    return active, h, expanded


def _factorize(xs: np.ndarray, config: SmootherConfig, x: float, expand: bool):
    """QR-factorize the scaled local design; return the solve context."""
    active, h, expanded = _window(xs, config, x, expand)
    t = (x - xs[active]) / h
    sqrt_w = np.sqrt(config.kernel(t))
    design = np.vander(t, config.degree + 1, increasing=True) * sqrt_w[:, None]
    q, r = np.linalg.qr(design)
    sv = np.linalg.svd(r, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if rcond < RCOND_MIN:
        raise RankDeficientError(
            f"local design at x={x} has reciprocal condition {rcond:.2e}"
        )
    e0 = np.zeros(config.degree + 1)
    e0[0] = 1.0
    w_eff = sqrt_w * (q @ linalg.solve_triangular(r, e0, trans="T", lower=False))
    weights = EffectiveWeights(
        eval_point=float(x), indices=active, weights=w_eff, expanded=expanded
    )
    return weights, rcond, h, q, r, sqrt_w


def effective_weights(
    xs, config: SmootherConfig, x: float, expand_to_minimum: bool = False
) -> EffectiveWeights:
    """Intercept weights of the local fit at x, without responses.

    The weights depend only on the design, so precomputing them lets a
    fixed-design simulation reuse one factorization across replications.
    """
    xs = np.asarray(xs, dtype=float)
    weights, _, _, _, _, _ = _factorize(xs, config, float(x), expand_to_minimum)
    return weights


def fit_at(
    xs, zs, config: SmootherConfig, x: float, expand_to_minimum: bool = False
) -> LocalFit:
    """Weighted polynomial fit of (xs, zs) at the point x.

    Parameters
    ----------
    xs, zs : array_like, same length
        Abscissae and responses.  xs need not be sorted.
    config : SmootherConfig
    x : float
        Evaluation point.
    expand_to_minimum : bool
        Grow the window to the (degree+1)-nearest distinct abscissa when
        the configured bandwidth leaves the fit underdetermined; the
        expansion is recorded on the returned fit.

    Raises
    ------
    InsufficientSupportError, RankDeficientError
    """
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    if xs.shape != zs.shape:
        raise ValueError("xs and zs must have the same shape")
    weights, rcond, h, q, r, sqrt_w = _factorize(
        xs, config, float(x), expand_to_minimum
    )
    rhs = q.T @ (sqrt_w * zs[weights.indices])
    coefs_scaled = linalg.solve_triangular(r, rhs, lower=False)
    # undo the (x - x_i)/h rescaling: coefficient q multiplies (x - x_i)^q
    coefs = coefs_scaled / h ** np.arange(config.degree + 1)
    return LocalFit(
        coefficients=coefs,
        weights=weights,
        condition_estimate=rcond,
        bandwidth=h,
        expanded=weights.expanded,
    )


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise BadParameterError("grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) < 0):
        raise BadParameterError("grid must be sorted ascending")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise BadParameterError("grid values must lie in [0, 1]")
    return grid


def fit_on_grid(
    xs, zs, config: SmootherConfig, grid, expand_to_minimum: bool = False
) -> list[LocalFit]:
    """Repeated fit_at over a sorted grid in [0, 1].

    Fit errors propagate with the offending grid point attached as the
    exception's ``grid_point`` attribute.
    """
    grid = _checked_grid(grid)
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    fits = []
    for x in grid:
        try:
            fits.append(fit_at(xs, zs, config, x, expand_to_minimum))
        except SmootherError as exc:
            exc.grid_point = float(x)
            raise
    return fits


def weight_operator(
    xs, config: SmootherConfig, grid, expand_to_minimum: bool = False
) -> WeightOperator:
    """Effective weights at every point of a sorted grid in [0, 1].

    Each grid point is factorized once, with the same support, rcond and
    expansion checks as :func:`fit_on_grid`; applying the operator to
    responses on ``xs`` then equals the fitted values up to rounding.
    Errors carry the offending grid point as in :func:`fit_on_grid`.
    """
    grid = _checked_grid(grid)
    xs = np.asarray(xs, dtype=float)
    weights = []
    for x in grid:
        try:
            weights.append(effective_weights(xs, config, x, expand_to_minimum))
        except SmootherError as exc:
            exc.grid_point = float(x)
            raise
    return WeightOperator(grid=grid, weights=tuple(weights))


def clt_diagnostics(weights: EffectiveWeights, n: int, h: float) -> CltDiagnostics:
    """Max and sum-of-squares of the effective weights, raw and nh-scaled."""
    w = weights.weights
    max_abs = float(np.max(np.abs(w)))
    sum_sq = float(w @ w)
    return CltDiagnostics(
        max_abs_weight=max_abs,
        sum_sq_weights=sum_sq,
        max_abs_scaled=max_abs * n * h,
        sum_sq_scaled=sum_sq * n * h,
    )
