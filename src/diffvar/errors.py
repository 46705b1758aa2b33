"""Exception hierarchy shared by all diffvar modules."""


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
    """Unrecognized name for a built-in sequence, kernel or error law."""


class NonPositiveOrderError(DiffvarError, ValueError):
    """Sequence order must be a positive integer."""


class ConvergenceFailureError(DiffvarError, RuntimeError):
    """A computed result missed its requested tolerance."""


# --- local polynomial smoothing ---

class SmootherError(DiffvarError):
    """Base class for local fit failures.

    When raised from a grid evaluation, the offending grid point is
    attached as the ``grid_point`` attribute.
    """

    grid_point: float | None = None


class InsufficientSupportError(SmootherError):
    """Fewer than degree+1 distinct abscissae carry positive kernel weight."""


class RankDeficientError(SmootherError):
    """Local design matrix is numerically singular."""


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
