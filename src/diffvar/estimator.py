"""Variance function estimators built on difference sequences.

The central estimator forms order-r pseudoresiduals, squares them, and
smooths the squares by local polynomial regression; the classical
global estimators (first differences, the symmetric three-point
pattern, and arbitrary-sequence averages) are provided as baselines.
:class:`EstimatorConfig` bundles a sequence with smoother settings for
the simulation lab and reuses its weights on an unchanged design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffseq import DifferenceSequence, standard_sequence
from .errors import BadParameterError, NonFiniteDataError, TooFewObservationsError
# fit_on_grid is no longer called here; the name stays bound because
# perfbench/tracing.py patches it on this module
from .smoother import SmootherConfig, WeightOperator, fit_on_grid, weight_operator  # noqa: F401

__all__ = [
    "Sample",
    "PseudoresidualSeries",
    "EstimateProvenance",
    "VarianceEstimate",
    "pseudoresiduals",
    "variance_operator",
    "estimate_variance",
    "EstimatorConfig",
    "rice_estimate",
    "gsjs_estimate",
    "hkt_estimate",
]


@dataclass(frozen=True, eq=False)
class Sample:
    """Fixed-design observations (x_i, y_i) with x strictly increasing in (0, 1)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise BadParameterError("xs and ys must be 1-d arrays of equal length")
        if xs.size < 2:
            raise TooFewObservationsError(f"need n >= 2, got {xs.size}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise NonFiniteDataError("observations must be finite (no nan or inf)")
        if np.any(np.diff(xs) <= 0):
            raise BadParameterError("design points must be strictly increasing")
        if xs[0] <= 0.0 or xs[-1] >= 1.0:
            raise BadParameterError("design points must lie strictly inside (0, 1)")

    @property
    def n(self) -> int:
        return self.xs.size


@dataclass(frozen=True, eq=False)
class PseudoresidualSeries:
    """Order-r contrasts of consecutive responses.

    ``values[k]`` is the contrast whose window starts at observation k;
    it is attached to the design point ``center_xs[k]``, which sits
    floor(r/2) positions into the window, so the first attached
    observation is the (floor(r/2) + 1)-th.
    """

    values: np.ndarray
    center_xs: np.ndarray


def _centers(xs: np.ndarray, order: int) -> np.ndarray:
    """Design points the n - r order-r contrasts are attached to."""
    n = xs.size
    if n < order + 1:
        raise TooFewObservationsError(
            f"need n >= {order + 1} for order {order}, got {n}"
        )
    half = order // 2
    return xs[half : half + n - order]


def pseudoresiduals(sample: Sample, seq: DifferenceSequence) -> PseudoresidualSeries:
    """All n - r contrasts sum_j d_j y_{k+j}, centered per the offset convention.

    Raises NonFiniteDataError when a contrast or the sum of their squares
    overflows, as finite responses beyond about 1e154 in magnitude do.
    """
    r = seq.order
    centers = _centers(sample.xs, r)
    m = centers.size
    d = seq.coeffs
    values = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(r + 1):
            values += d[j] * sample.ys[j : j + m]
        total = values @ values
    if not math.isfinite(total):
        raise NonFiniteDataError("squared contrasts overflow: responses too large")
    return PseudoresidualSeries(values=values, center_xs=centers)


@dataclass(frozen=True)
class EstimateProvenance:
    """How a variance curve was produced."""

    sequence: DifferenceSequence
    config: SmootherConfig
    expanded_points: tuple[float, ...]
    has_negative_values: bool


@dataclass(frozen=True, eq=False)
class VarianceEstimate:
    """Fitted variance curve on a grid, with provenance.

    Values are not sign-constrained; negative fits are reported as-is
    and flagged, so risk experiments see the raw estimator.
    """

    grid: np.ndarray
    values: np.ndarray
    provenance: EstimateProvenance


def variance_operator(
    xs, seq: DifferenceSequence, config: SmootherConfig, grid
) -> WeightOperator:
    """Weights taking the squared contrasts of any sample on design ``xs``
    to its variance estimate on ``grid``.

    Built once, the operator serves every sample on that design:
    applied to ``pseudoresiduals(sample, seq).values**2`` it gives
    ``estimate_variance(sample, seq, config, grid).values`` up to rounding.
    """
    centers = _centers(np.asarray(xs, dtype=float), seq.order)
    return weight_operator(centers, config, grid)


def estimate_variance(
    sample: Sample, seq: DifferenceSequence, config: SmootherConfig, grid
) -> VarianceEstimate:
    """Smooth squared pseudoresiduals onto ``grid``.

    Each grid value is the intercept of the local polynomial fit of the
    squared contrasts, computed as the effective-weight inner product
    with them.  Starved windows grow only when ``config.expand`` is set;
    the grown points are listed in ``provenance.expanded_points``.
    """
    series = pseudoresiduals(sample, seq)
    operator = weight_operator(series.center_xs, config, grid)
    values = operator.apply(series.values**2)
    return VarianceEstimate(
        grid=operator.grid,
        values=values,
        provenance=EstimateProvenance(
            sequence=seq,
            config=config,
            expanded_points=operator.expanded_points,
            has_negative_values=bool(np.any(values < 0.0)),
        ),
    )


@dataclass(frozen=True, eq=False)
class EstimatorConfig:
    """Difference-sequence estimator bundled with its smoother settings.

    Instances are callable as estimator(sample, grid) -> values, the
    protocol every simulation experiment accepts, so tests can substitute
    plain functions.  A call reuses the previous call's weights while the
    design and grid are unchanged; errors building them propagate.
    Windows grow only when ``smoother.expand`` is set.
    """

    sequence: DifferenceSequence
    smoother: SmootherConfig
    # (design copy, grid copy, operator) of the last successful build
    _last: tuple | None = field(default=None, init=False, repr=False)

    def __call__(self, sample: Sample, grid) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        last = self._last
        if (last is None or not np.array_equal(sample.xs, last[0])
                or not np.array_equal(grid, last[1])):
            operator = variance_operator(sample.xs, self.sequence, self.smoother, grid)
            last = (sample.xs.copy(), grid.copy(), operator)
            object.__setattr__(self, "_last", last)
        return last[2].apply(pseudoresiduals(sample, self.sequence).values ** 2)

    def to_dict(self) -> dict:
        return {
            "order": self.sequence.order,
            "coefficients": self.sequence.to_list(),
            "kernel": self.smoother.kernel.kind,
            "degree": self.smoother.degree,
            "bandwidth": self.smoother.bandwidth,
            "expand_to_minimum": self.smoother.expand,
        }


def rice_estimate(sample: Sample) -> float:
    """Mean squared first difference over 2: the classical constant-variance estimate."""
    return hkt_estimate(sample, standard_sequence("first_difference"))


def gsjs_estimate(sample: Sample) -> float:
    """Three-point contrast estimate (1/2, -1, 1/2), normalized by 2/(3(n-2))."""
    return hkt_estimate(sample, standard_sequence("gsjs"))


def hkt_estimate(sample: Sample, seq: DifferenceSequence) -> float:
    """Average squared order-r contrast: the general constant-variance estimate."""
    series = pseudoresiduals(sample, seq)
    v = series.values
    return float(v @ v / v.size)
