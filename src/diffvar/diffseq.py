"""Difference sequences: validation, classical choices, and optimal ones.

A difference sequence of order r is a vector (d_0, ..., d_r) with
sum(d) = 0 and sum(d^2) = 1.  Applied to r+1 consecutive responses it
cancels a locally constant mean while keeping unit noise scale, which is
what makes squared differences usable as local variance proxies.  The
sequence also controls a variance inflation constant C >= (2r+1)/r; the
minimizing sequences are computed here directly, as minimum-phase
spectral factors, without any numerical search, and each is checked
to reach a C within a fixed 1e-8 of (2r+1)/r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
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

__all__ = [
    "DifferenceSequence",
    "validate",
    "standard_sequence",
    "STANDARD_KINDS",
    "variance_factor",
    "min_constant",
    "optimal_sequence",
]

_CONSTRAINT_TOL = 1e-12
_OPTIMALITY_TOL = 1e-8  # C - (2r+1)/r that an optimal sequence may not exceed
_MAX_ORDER = 4096  # the FFT and the O(r^2) lag sums stay well under a second


@dataclass(frozen=True, eq=False)
class DifferenceSequence:
    """An order-r coefficient vector (d_0, ..., d_r).

    Instances are validated on construction; use :func:`validate` to turn
    raw coefficient lists into sequences.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        try:
            coeffs = np.asarray(self.coeffs)
        except (TypeError, ValueError):
            coeffs = None
        # dtype=float would parse strings such as "0.5"; take numbers only
        if coeffs is None or coeffs.ndim != 1 or coeffs.dtype.kind not in "iuf":
            raise SequenceError("coefficients must be a flat list of numbers")
        coeffs = coeffs.astype(float, copy=False)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.size < 2:
            raise TooShortError(
                f"need at least two coefficients, got {coeffs.size}"
            )
        with np.errstate(invalid="ignore"):  # inf - inf: a nan sum, rejected next
            total = float(coeffs.sum())
        if not abs(total) <= _CONSTRAINT_TOL:
            raise SumNotZeroError(f"coefficients sum to {total!r}, not 0")
        sq = float(coeffs @ coeffs)
        if not abs(sq - 1.0) <= _CONSTRAINT_TOL:
            raise NormNotOneError(f"squared coefficients sum to {sq!r}, not 1")
        if coeffs[0] == 0.0 or coeffs[-1] == 0.0:
            raise DegenerateEndpointError(
                "d_0 and d_r must be nonzero (true order would be smaller)"
            )

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def to_list(self) -> list[float]:
        """Coefficients as plain floats (JSON-ready)."""
        return [float(c) for c in self.coeffs]


def validate(coeffs) -> DifferenceSequence:
    """Check the defining constraints and wrap the coefficients.

    Raises TooShortError, SumNotZeroError, NormNotOneError or
    DegenerateEndpointError when the corresponding constraint fails, and
    SequenceError when the coefficients are not a flat list of numbers.
    """
    return DifferenceSequence(coeffs)


# kind -> (integer pattern, its squared norm)
_STANDARD = {
    "first_difference": ([1.0, -1.0], 2.0),
    "gsjs": ([1.0, -2.0, 1.0], 6.0),
}

STANDARD_KINDS = tuple(_STANDARD)


def standard_sequence(kind: str) -> DifferenceSequence:
    """Return a classical difference sequence by name.

    ``first_difference`` is (1, -1)/sqrt(2); ``gsjs`` is the symmetric
    three-point pattern (1, -2, 1)/sqrt(6), i.e. (1/2, -1, 1/2) rescaled
    to unit squared norm.
    """
    if kind not in STANDARD_KINDS:  # a tuple test: an unhashable kind is unknown too
        raise UnknownKindError(f"unknown sequence kind {kind!r}")
    pattern, squared_norm = _STANDARD[kind]
    return DifferenceSequence(np.array(pattern) / np.sqrt(squared_norm))


def _lag_sums(coeffs: np.ndarray) -> np.ndarray:
    """Autocovariance-style sums a_k = sum_{j=0}^{r-k} d_j d_{j+k}, k=1..r."""
    r = coeffs.size - 1
    return np.array([coeffs[: r + 1 - k] @ coeffs[k:] for k in range(1, r + 1)])


def variance_factor(seq: DifferenceSequence) -> float:
    """Variance inflation constant C = 2 (1 + 2 sum_k a_k^2) of a sequence.

    C >= (2r+1)/r for every valid order-r sequence, with equality exactly
    when every lag sum a_k equals -1/(2r).
    """
    a = _lag_sums(seq.coeffs)
    return float(2.0 * (1.0 + 2.0 * (a @ a)))


def min_constant(r: int) -> float:
    """Smallest achievable variance factor for order r: (2r+1)/r."""
    if r < 1:
        raise NonPositiveOrderError(f"order must be >= 1, got {r}")
    return (2.0 * r + 1.0) / r


def _min_phase_factor(r: int) -> np.ndarray:
    """Minimum-phase g (length r) with |1 - e^{iw}|^2 |G(w)|^2 = S(w).

    S(w) = 1 - (1/r) sum_{k=1..r} cos(kw) is the spectral density whose
    lag-k coefficients all equal -1/(2r).  Its double root at z = 1 is
    deflated exactly: two cumulative sums of S's Laurent coefficients
    give the 2r-1 coefficients of T = S / |1 - e^{iw}|^2, and T >= 1/4,
    so log T is well conditioned.  Folding the real cepstrum of T onto
    its causal half gives log G (Hall, Kay & Titterington, 1990).
    """
    s = np.full(2 * r + 1, -0.5 / r)
    s[r] = 1.0
    t = -np.cumsum(np.cumsum(s))[: 2 * r - 1]
    size = 1 << max(12, (64 * r - 1).bit_length())
    wrapped = np.zeros(size)
    wrapped[:r] = t[r - 1:]
    wrapped[size - r + 1:] = t[: r - 1]
    cepstrum = np.fft.irfft(np.log(np.fft.rfft(wrapped).real), size)
    cepstrum[1: size // 2] *= 2.0
    cepstrum[size // 2 + 1:] = 0.0
    return np.fft.irfft(np.exp(np.fft.rfft(0.5 * cepstrum)), size)[:r]


def optimal_sequence(r: int) -> DifferenceSequence:
    """The order-r sequence minimizing the variance factor, in closed form.

    Every lag sum of an optimal sequence equals -1/(2r), so d is a
    spectral factor of S(w) = 1 - (1/r) sum_{k=1..r} cos(kw).  The one
    returned is d = (1 - z) g with g the minimum-phase factor of
    S / |1 - e^{iw}|^2.  No search and no random numbers are involved;
    the minimum-phase factor is unique and has d_0 > 0 > d_1, ..., d_r.
    As a fixed postcondition the result must reach variance_factor
    within 1e-8 of (2r+1)/r, else a ConvergenceFailureError is raised.
    Orders above a fixed maximum raise BadParameterError before any
    allocation.
    """
    if r < 1:
        raise NonPositiveOrderError(f"order must be >= 1, got {r}")
    if r > _MAX_ORDER:
        raise BadParameterError(f"order must be <= {_MAX_ORDER}")
    d = np.convolve(_min_phase_factor(r), [1.0, -1.0])
    # exact renormalization removes the rounding left by the FFTs
    d = d / np.linalg.norm(d)
    d = d - d.mean()
    d = d / np.linalg.norm(d)
    seq = DifferenceSequence(d)
    target = min_constant(r)
    c = variance_factor(seq)
    if not c - target <= _OPTIMALITY_TOL:
        raise ConvergenceFailureError(
            f"computed order-{r} sequence has C = {c}, not within "
            f"{_OPTIMALITY_TOL} of {target}"
        )
    return seq


def __getattr__(name):
    # optimize is not used here; perfbench/tracing.py patches that name on
    # this module, so scipy.optimize is imported only when it is asked for
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
