"""Local polynomial regression with explicit effective weights.

At an evaluation point x, the responses in the window, one slice of the
ascending abscissae, are fit by weighted least squares on polynomials of
(x - x_i), and only the intercept, the smoothed value, is kept.  It is
one product of the responses with the observations' effective weights,
which depend on the design alone, sum to one and annihilate
(x - x_i)^q for q = 1..degree; downstream risk and normality
experiments rely on that.  So the smoother has one entry point,
:func:`weight_operator`, which builds the weights of a whole grid once;
applying it to any responses on that design is one weighted sum per
grid point.

Each window is found by searchsorted on the design, which must be
ascending.  The sqrt-weight-scaled, bandwidth-rescaled local designs are
stacked into blocks, and each block takes one batched thin SVD,
D = U diag(s) V^T; the least-squares hat matrix is V diag(1/s) U^T
diag(sqrt w).
The normal equations D^T D, which would square the condition number,
are never formed.  The singular values give s_min/s_max, the
reciprocal condition of D; below 1e-12, as when ties leave fewer than
degree+1 distinct abscissae, the fit raises RankDeficientError before
any division by s.  Every failure message names the point as x=...

Window expansion is a smoother setting: only ``SmootherConfig.expand``
turns it on, and every build reads it there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    InsufficientSupportError,
    RankDeficientError,
    check_integer,
)
from .kernels import KernelSpec, kernel

__all__ = [
    "SmootherConfig",
    "EffectiveWeights",
    "WeightOperator",
    "weight_operator",
]

RCOND_MIN = 1e-12
# design elements factorized by one stacked SVD
_BLOCK = 2**15


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
        check_integer("degree", self.degree)
        if self.degree < 0:
            raise BadParameterError(f"degree must be >= 0, got {self.degree}")


@dataclass(frozen=True, eq=False)
class EffectiveWeights:
    """Weights K_n(x_i) giving the intercept as sum_i w_i z_i.

    ``indices`` is the window's slice of the abscissae; observations
    outside it carry exactly zero weight.  ``rcond`` is the reciprocal
    condition of the scaled local design.  ``expanded`` is set when
    ``SmootherConfig.expand`` grew a starved window.
    """

    eval_point: float
    indices: slice
    weights: np.ndarray
    rcond: float
    expanded: bool = False


@dataclass(frozen=True, eq=False)
class WeightOperator:
    """Effective weights of the local fit at every point of a grid.

    The weights depend on the design alone, so one operator maps any
    response vector observed on that design to its smoothed values.
    """

    grid: np.ndarray
    weights: tuple[EffectiveWeights, ...]
    design_size: int

    @property
    def expanded_points(self) -> tuple[float, ...]:
        return tuple(w.eval_point for w in self.weights if w.expanded)

    def apply(self, zs) -> np.ndarray:
        """Smoothed values of the responses ``zs`` at every grid point."""
        zs = np.asarray(zs, dtype=float)
        if zs.shape != (self.design_size,):
            raise BadParameterError(f"responses must be 1-d of length {self.design_size}, "
                                    f"one per design point, got shape {zs.shape}")
        return np.array([w.weights @ zs[w.indices] for w in self.weights])


def _ascending(values, what: str) -> np.ndarray:
    """The values as floats, once checked to be 1-d and ascending."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise BadParameterError(f"{what} must be a 1-d sequence")
    # written so that a NaN fails it
    if not np.all(np.diff(values) >= 0):
        raise BadParameterError(f"{what} must be sorted ascending")
    return values


def _windows(xs, kern: KernelSpec, points, hs):
    """First index and length of each point's positively weighted run of xs.

    searchsorted brackets |x - x_i| <= h, widened by a relative 1e-9 that
    no rounding can cross, and the kernel decides inside the bracket.
    """
    reach = hs * (1.0 + 1e-9)
    lo = np.searchsorted(xs, points - reach, side="left")
    width = np.searchsorted(xs, points + reach, side="right") - lo
    span = np.arange(width.max())
    inside = span < width[:, None]
    u = (points[:, None] - xs[np.minimum(lo[:, None] + span, xs.size - 1)]) / hs[:, None]
    weighted = (kern(u) > 0.0) & inside
    # on an ascending design the run is preceded only by zero-weight points left of x
    lead = np.count_nonzero(inside & ~weighted & (u > 0.0), axis=1)
    return lo + lead, np.count_nonzero(weighted, axis=1)


def _factor_block(xs, kern: KernelSpec, need: int, points, start, count, hs):
    """(rcond, intercept weights) of a block of points, from one stacked thin SVD.

    Each local design is padded with zero rows after its last point.  Row
    0 of a hat maps the window's responses to the intercept.
    """
    span = np.arange(count.max())
    inside = span < count[:, None]
    u = (points[:, None] - xs[np.minimum(start[:, None] + span, xs.size - 1)]) / hs[:, None]
    u = np.where(inside, u, 0.0)
    sqrt_w = np.sqrt(kern(u)) * inside
    # column q is u**q * sqrt_w, the power built as np.vander builds it;
    # the columns are stored as rows, so each is written in one sweep
    columns = np.empty((points.size, need, span.size))
    columns[:, 0] = sqrt_w
    power = u
    for q in range(1, need):
        columns[:, q] = power * sqrt_w
        power = power * u
    left, sv, right_t = np.linalg.svd(columns.transpose(0, 2, 1), full_matrices=False)
    # column 0 of a design is sqrt_w, positive at both ends, so sv[:, 0] > 0
    rcond = sv[:, -1] / sv[:, 0]
    failed = np.flatnonzero(rcond < RCOND_MIN)
    if failed.size:
        p = failed[0]
        raise RankDeficientError(f"local design at x={float(points[p])} has "
                                 f"reciprocal condition {rcond[p]:.2e}")
    # the whole product, then row 0: row 0 alone rounds differently and moves report bytes
    hat = ((right_t.transpose(0, 2, 1) / sv[:, None, :])
           @ (left.transpose(0, 2, 1) * sqrt_w[:, None, :]))
    rows = hat[:, 0].copy()
    rows.flags.writeable = False
    return rcond, rows


def _factorize(xs, config: SmootherConfig, points) -> list[EffectiveWeights]:
    """The effective weights of each point, in order.

    The points go in blocks of at most ``_BLOCK`` design elements.  A failure
    raises for the first failing point, and no point after a starved one
    is factorized.
    """
    xs = _ascending(xs, "design")
    points = np.asarray(points, dtype=float)
    need = config.degree + 1
    h = config.bandwidth
    reach = h * (1.0 + 1e-9)
    widest = np.max(np.searchsorted(xs, points + reach, side="right")
                    - np.searchsorted(xs, points - reach, side="left"))
    per_block = max(1, _BLOCK // (need * max(int(widest), 1)))
    built = []
    for first in range(0, points.size, per_block):
        block = points[first:first + per_block]
        hs = np.full(block.size, h)
        start, count = _windows(xs, config.kernel, block, hs)
        expanded = (count < need) & (config.expand and xs.size >= need)
        if expanded.any():
            # nudge past the (degree+1)-th nearest abscissa so the compact
            # kernel gives it strictly positive weight
            for p in np.flatnonzero(expanded):
                nearest = np.partition(np.abs(xs - block[p]), need - 1)[need - 1]
                hs[p] = min(max(h, nearest * (1.0 + 1e-9)), 1.0)
            start[expanded], count[expanded] = _windows(
                xs, config.kernel, block[expanded], hs[expanded])
        starved = np.flatnonzero(count < need)
        good = int(starved[0]) if starved.size else block.size
        if good:
            rcond, rows = _factor_block(xs, config.kernel, need, block[:good],
                                        start[:good], count[:good], hs[:good])
            for p in range(good):
                window = slice(int(start[p]), int(start[p] + count[p]))
                built.append(EffectiveWeights(float(block[p]), window, rows[p, :count[p]],
                                              float(rcond[p]), bool(expanded[p])))
        if starved.size:
            raise InsufficientSupportError(
                f"{count[good]} positively weighted points at x={float(block[good])} "
                f"with h={float(hs[good])}; need {need}")
    return built


def _checked_grid(grid) -> np.ndarray:
    """The grid as floats, once checked to be sorted, nonempty and in [0, 1]."""
    grid = _ascending(grid, "grid")
    if grid.size == 0:
        raise BadParameterError("grid must be a nonempty 1-d sequence")
    if not (grid[0] >= 0.0 and grid[-1] <= 1.0):
        raise BadParameterError("grid values must lie in [0, 1]")
    return grid


def weight_operator(xs, config: SmootherConfig, grid) -> WeightOperator:
    """Effective weights of the local fit at every point of a sorted grid in [0, 1].

    This is the smoother's one entry point: every fitted value is
    ``weight_operator(xs, config, grid).apply(zs)``.  ``xs`` must be
    ascending (ties allowed), or BadParameterError is raised.  The first
    failing grid point raises InsufficientSupportError or, also when ties
    leave fewer than degree+1 distinct abscissae, RankDeficientError.
    """
    grid = _checked_grid(grid)
    return WeightOperator(grid=grid, weights=tuple(_factorize(xs, config, grid)),
                          design_size=len(xs))


# perfbench/tracing.py wraps these names; nothing in the package calls them


def effective_weights(xs, config: SmootherConfig, x: float) -> EffectiveWeights:
    return weight_operator(xs, config, [x]).weights[0]


def fit_at(xs, zs, config: SmootherConfig, x: float) -> float:
    return weight_operator(xs, config, [x]).apply(zs)[0]


def fit_on_grid(xs, zs, config: SmootherConfig, grid) -> np.ndarray:
    return weight_operator(xs, config, grid).apply(zs)
