"""Compactly supported smoothing kernels on [-1, 1].

Every kernel is nonnegative, bounded, vanishes outside [-1, 1] and
integrates to one.  Second moments and roughness are closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownKindError

__all__ = ["KernelSpec", "kernel", "kernel_moments", "KERNEL_KINDS"]


def _epanechnikov(u):
    return 0.75 * np.maximum(0.0, 1.0 - u * u)


def _uniform(u):
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


def _triangular(u):
    return np.maximum(0.0, 1.0 - np.abs(u))


def _biweight(u):
    return 0.9375 * np.maximum(0.0, 1.0 - u * u) ** 2


# kind -> (evaluator, sigma_sq = int u^2 K, roughness = int K^2)
_KERNELS = {
    "epanechnikov": (_epanechnikov, 1.0 / 5.0, 3.0 / 5.0),
    "uniform": (_uniform, 1.0 / 3.0, 1.0 / 2.0),
    "triangular": (_triangular, 1.0 / 6.0, 2.0 / 3.0),
    "biweight": (_biweight, 1.0 / 7.0, 5.0 / 7.0),
}

KERNEL_KINDS = tuple(_KERNELS)


@dataclass(frozen=True)
class KernelSpec:
    """A named kernel; calling it evaluates K(u), exactly zero for |u| > 1."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise UnknownKindError(
                f"unknown kernel {self.kind!r}; choose from {KERNEL_KINDS}"
            )

    def __call__(self, u):
        return _KERNELS[self.kind][0](np.asarray(u, dtype=float))


def kernel(kind: str = "epanechnikov") -> KernelSpec:
    return KernelSpec(kind)


def kernel_moments(spec: KernelSpec) -> tuple[float, float]:
    """Return (int u^2 K(u) du, int K(u)^2 du)."""
    _, sigma_sq, roughness = _KERNELS[spec.kind]
    return sigma_sq, roughness
