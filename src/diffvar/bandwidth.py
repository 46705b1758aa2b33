"""Bandwidth schedules and K-fold cross-validation selection.

The rate-optimal schedule scales like n^(-1/(2*gamma+1)) for a
smoothness exponent gamma.  Data-driven selection scores each candidate
bandwidth by the held-out squared-prediction error of the smoothed
squared contrasts, using contiguous blocks as folds: adjacent contrasts
share responses up to lag r, so interleaved folds would leak between
train and test while block folds correlate only at O(r) boundary pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diffseq import DifferenceSequence
from .errors import AllCandidatesFailedError, BadParameterError, SmootherError, check_integer
from .estimator import Sample, pseudoresiduals
# fit_at is no longer called here; the name stays bound because
# perfbench/tracing.py patches it on this module
from .smoother import SmootherConfig, fit_at, weight_operator  # noqa: F401

__all__ = [
    "rate_optimal_bandwidth",
    "BandwidthGrid",
    "default_grid",
    "CvReport",
    "cv_select",
]


def rate_optimal_bandwidth(n: int, gamma: float, scale: float = 1.0) -> float:
    """scale * n^(-1/(2*gamma+1)), clamped into (0, 0.5]."""
    check_integer("n", n)
    if n < 2:
        raise BadParameterError(f"need n >= 2, got {n}")
    if not (0 < gamma < np.inf and 0 < scale < np.inf):
        raise BadParameterError("gamma and scale must be finite and positive")
    # float(n): numpy's power of an np.int64 can differ in the last bit
    return float(min(scale * float(n) ** (-1.0 / (2.0 * gamma + 1.0)), 0.5))


@dataclass(frozen=True, eq=False)
class BandwidthGrid:
    """Strictly increasing candidate bandwidths in (0, 0.5]."""

    candidates: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.candidates, dtype=float)
        object.__setattr__(self, "candidates", c)
        if c.ndim != 1 or c.size == 0:
            raise BadParameterError("candidate grid must be nonempty")
        if np.any(np.diff(c) <= 0):
            raise BadParameterError("candidates must be strictly increasing")
        if c[0] <= 0 or c[-1] > 0.5:
            raise BadParameterError("candidates must lie in (0, 0.5]")


def default_grid(sample: Sample) -> BandwidthGrid:
    """12 geometrically spaced candidates from 4x the widest gap up to 0.4.

    The lower end guarantees several observations per window; the upper
    end stays clear of near-global fits.  Gaps include the implicit
    endpoints 0 and 1.
    """
    gaps = np.diff(np.concatenate(([0.0], sample.xs, [1.0])))
    lo = 4.0 * float(gaps.max())
    if lo >= 0.4:
        raise BadParameterError(
            f"design too sparse: 4*max gap = {lo:.4g} >= upper bound 0.4"
        )
    return BandwidthGrid(np.geomspace(lo, 0.4, 12))


@dataclass(frozen=True)
class CvReport:
    """Scores per candidate bandwidth and the selected minimizer.

    ``scores`` holds (bandwidth, score) for every candidate that fit on
    all folds; ``disqualified`` lists (bandwidth, reason) for the rest.
    Ties in score break toward the smaller bandwidth.
    """

    scores: tuple[tuple[float, float], ...]
    selected: float
    folds: int
    fold_assignment_seed: int
    disqualified: tuple[tuple[float, str], ...] = ()


def _fold_indices(m: int, folds: int, order: int) -> list[np.ndarray]:
    """Assign contiguous index blocks to folds round-robin.

    Adjacent contrasts are dependent up to lag ``order``, so folds are
    built from contiguous blocks: only the O(order) pairs straddling a
    block boundary correlate train with test.  Several short blocks per
    fold (rather than one fold-sized block) keep every held-out point
    within half a block of training data, so small candidate bandwidths
    remain predictable.
    """
    block_length = max(5 * (order + 1), -(-m // (folds * 8)))
    blocks = [np.arange(s, min(s + block_length, m))
              for s in range(0, m, block_length)]
    if len(blocks) < folds:
        raise BadParameterError(
            f"{m} contrasts split into blocks of {block_length} cannot "
            f"fill {folds} folds"
        )
    return [
        np.concatenate(blocks[f::folds]) for f in range(folds)
    ]


def cv_select(
    sample: Sample,
    seq: DifferenceSequence,
    config_base: SmootherConfig,
    grid: BandwidthGrid,
    folds: int = 5,
    seed: int = 0,
) -> CvReport:
    """Pick the candidate bandwidth with the smallest held-out error.

    Contrast indices are split into contiguous blocks assigned
    round-robin to ``folds`` folds.  For each candidate h, each fold's
    squared contrasts are predicted by the :func:`weight_operator` of the
    remaining folds (same kernel and degree as ``config_base``, only h
    varies) and the squared prediction errors are summed.  CV never
    expands a window, whatever ``config_base.expand`` says, so each
    candidate is scored at its own bandwidth: candidates whose fits fail
    on any fold are disqualified and listed; if none survive,
    AllCandidatesFailedError is raised.

    The folds are deterministic; ``seed`` only labels the report as
    ``fold_assignment_seed``.
    """
    check_integer("folds", folds)
    if folds < 2:
        raise BadParameterError(f"need folds >= 2, got {folds}")
    series = pseudoresiduals(sample, seq)
    z = series.values**2
    xs = series.center_xs
    m = z.size
    # training data depend on the fold only, so copy them once per fold
    splits = []
    for held_out in _fold_indices(m, folds, seq.order):
        train = np.setdiff1d(np.arange(m), held_out, assume_unique=True)
        splits.append((held_out, xs[train], z[train]))

    scored: list[tuple[float, float]] = []
    disqualified: list[tuple[float, str]] = []
    for h in grid.candidates:
        config = replace(config_base, bandwidth=float(h), expand=False)
        total = 0.0
        try:
            for held_out, xs_train, z_train in splits:
                # held-out abscissae ascend inside (0, 1): a valid grid
                fitted = weight_operator(xs_train, config, xs[held_out]).apply(z_train)
                resid = z[held_out] - fitted
                total += float(resid @ resid)
        except SmootherError as exc:
            disqualified.append((float(h), f"{type(exc).__name__}: {exc}"))
            continue
        scored.append((float(h), float(total)))

    if not scored:
        raise AllCandidatesFailedError(
            f"all {grid.candidates.size} candidates failed; "
            f"first reason: {disqualified[0][1]}"
        )
    best = min(scored, key=lambda hs: (hs[1], hs[0]))
    return CvReport(
        scores=tuple(scored),
        selected=best[0],
        folds=folds,
        fold_assignment_seed=seed,
        disqualified=tuple(disqualified),
    )
