"""Exceptions shared by all diffvar modules, and check_integer, the one count rule."""

import numbers


class DiffvarError(Exception):
    """Base class for all errors raised by this package."""


# --- difference sequences ---

class SequenceError(DiffvarError, ValueError):
    """A coefficient vector is not a valid difference sequence."""


class TooShortError(SequenceError):
    """Fewer than two coefficients."""


class SumNotZeroError(SequenceError):
    """Coefficients do not sum to zero."""


class NormNotOneError(SequenceError):
    """Squared coefficients do not sum to one."""


class DegenerateEndpointError(SequenceError):
    """First or last coefficient is zero, so the true order is smaller."""


class UnknownKindError(DiffvarError, ValueError):
    """Unrecognized name for a built-in sequence or kernel."""


class NonPositiveOrderError(DiffvarError, ValueError):
    """Sequence order must be a positive integer."""


class ConvergenceFailureError(DiffvarError, RuntimeError):
    """A computed result missed its requested tolerance."""


# --- local polynomial smoothing ---

class SmootherError(DiffvarError):
    """Base class for local fit failures; the message names the point x=..."""


class InsufficientSupportError(SmootherError):
    """Fewer than degree+1 points carry positive kernel weight."""


class RankDeficientError(SmootherError):
    """Local design matrix is numerically singular, as under too many ties."""


# --- estimators ---

class TooFewObservationsError(DiffvarError, ValueError):
    """Sample too small for the requested operation."""


class NonFiniteDataError(DiffvarError, ValueError):
    """Observations contain NaN or infinite values."""


# --- bandwidth selection ---

class BadParameterError(DiffvarError, ValueError):
    """Numeric parameter outside its documented domain."""


class AllCandidatesFailedError(DiffvarError, RuntimeError):
    """Every candidate bandwidth was disqualified during cross-validation."""


# --- simulation lab ---

class BadScenarioError(DiffvarError, ValueError):
    """Simulation scenario violates its contracts."""


def check_integer(name: str, value, error=BadParameterError) -> None:
    """Raise ``error`` unless value is an int or a numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
