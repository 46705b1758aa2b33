"""Monte Carlo laboratory for the variance estimators.

Data are generated from y_i = g(x_i) + sqrt(V(x_i)) * eps_i on a fixed
design, with unit-variance error laws.  On top of that the module
measures pointwise and integrated squared risks, fits log-log
convergence slopes against the n^(-2*gamma/(2*gamma+1)) benchmark,
inspects the bias/variance structure in the bandwidth, runs normality
diagnostics of the estimator's replication distribution, and compares
rough-mean against flat-mean risk.

A scenario evaluates its mean and variance on its fixed design once,
when it is built, and rejects a mean that is not finite there or a
variance that is not finite and positive there.  Every experiment runs
through one replication engine, and each replication only draws its noise.
An :class:`EstimatorConfig` (see :mod:`diffvar.estimator`) likewise
builds its weights once per experiment and each replication applies them.

Reproducibility contract: every experiment takes one master seed;
replication streams are spawned from it and run serially, so results
are bit-identical for a given (seed, replications).  A SeedSequence
seed is copied before spawning, so passing it again repeats the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .bandwidth import rate_optimal_bandwidth
from .diffseq import DifferenceSequence, standard_sequence
from .errors import BadParameterError, BadScenarioError, DiffvarError
from .estimator import EstimatorConfig, Sample, pseudoresiduals, variance_operator
from .kernels import KernelSpec, kernel
from .serialize import plain
from .smoother import SmootherConfig

# not called here any more; perfbench/tracing.py patches these names on
# this module, so they stay bound
from .estimator import estimate_variance  # noqa: F401
from .smoother import effective_weights  # noqa: F401

__all__ = [
    "FunctionSpec",
    "function_spec",
    "ErrorLaw",
    "Scenario",
    "smooth_scenario",
    "constant_scenario",
    "rough_mean_scenario",
    "quadratic_variance_scenario",
    "EstimatorConfig",
    "RiskValue",
    "RiskReport",
    "risk_report",
    "RateReport",
    "NormalityReport",
    "BiasVarianceReport",
    "MeanEffectReport",
    "generate_sample",
    "pointwise_risk",
    "global_risk",
    "rate_experiment",
    "rate_schedule",
    "normality_experiment",
    "normality_diagnostics",
    "bias_variance_experiment",
    "mean_effect_experiment",
]


# --- named mean / variance functions -----------------------------------

def _f_constant(x, value=0.0):
    return np.full_like(np.asarray(x, dtype=float), float(value))


def _f_sine(x, offset=0.0, amplitude=1.0):
    return offset + amplitude * np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


def _f_cosine(x, offset=0.0, amplitude=1.0):
    return offset + amplitude * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))


def _f_quadratic(x, offset=0.0, curvature=1.0, center=0.5):
    x = np.asarray(x, dtype=float)
    return offset + curvature * (x - center) ** 2


def _f_abs_power(x, exponent=0.5, center=0.5, scale=1.0):
    x = np.asarray(x, dtype=float)
    return scale * np.abs(x - center) ** exponent


_FUNCTIONS = {
    "constant": _f_constant,
    "sine": _f_sine,
    "cosine": _f_cosine,
    "quadratic": _f_quadratic,
    "abs_power": _f_abs_power,
}


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """A named mean/variance function with parameters, JSON-representable."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _FUNCTIONS:
            raise BadScenarioError(
                f"unknown function {self.name!r}; choose from {sorted(_FUNCTIONS)}"
            )
        try:
            self(np.array([0.5]))
        except TypeError as exc:
            raise BadScenarioError(
                f"bad parameters for {self.name!r}: {exc}"
            ) from exc

    def __call__(self, x):
        return _FUNCTIONS[self.name](x, **self.params)


def function_spec(name: str, **params) -> FunctionSpec:
    return FunctionSpec(name, params)


# --- error laws and scenario --------------------------------------------

@dataclass(frozen=True)
class ErrorLaw:
    """Unit-variance error distribution with finite fourth moment."""

    kind: str = "gaussian"
    df: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "scaled_uniform", "student_t"):
            raise BadScenarioError(f"unknown error law {self.kind!r}")
        if self.kind == "student_t":
            if self.df is None or not 8 < self.df < math.inf:
                raise BadScenarioError(
                    f"student_t needs a finite df > 8 for the required "
                    f"moments, got {self.df}"
                )
        elif self.df is not None:
            raise BadScenarioError(f"df applies only to student_t, not {self.kind}")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        if self.kind == "scaled_uniform":
            s = math.sqrt(3.0)
            return rng.uniform(-s, s, size)
        return rng.standard_t(self.df, size) * math.sqrt((self.df - 2.0) / self.df)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete simulation configuration.

    ``design`` is either None (equispaced x_i = i/(n+1)) or an explicit
    strictly increasing vector inside (0, 1) of length n.  Building a
    scenario evaluates it on the design: ``xs``, ``mean`` and ``sd`` hold
    the abscissae, the mean and the standard deviation there, read-only,
    and a mean that is not finite or a variance that is not finite and
    positive raises :class:`BadScenarioError`.
    """

    label: str
    mean_fn: FunctionSpec
    var_fn: FunctionSpec
    n: int
    error_law: ErrorLaw = ErrorLaw("gaussian")
    design: np.ndarray | None = None
    xs: np.ndarray = field(init=False, repr=False)
    mean: np.ndarray = field(init=False, repr=False)
    sd: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise BadScenarioError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise BadScenarioError(f"need n >= 2, got {self.n}")
        if self.design is None:
            xs = np.arange(1, self.n + 1) / (self.n + 1.0)
        else:
            xs = np.array(self.design, dtype=float)
            object.__setattr__(self, "design", xs)
            # written so that a NaN fails each check
            if xs.size != self.n or not np.all(np.diff(xs) > 0):
                raise BadScenarioError(
                    "explicit design must be strictly increasing of length n"
                )
            if not (xs[0] > 0.0 and xs[-1] < 1.0):
                raise BadScenarioError("design points must lie inside (0, 1)")
        mean = np.asarray(self.mean_fn(xs), dtype=float)
        variances = np.asarray(self.var_fn(xs), dtype=float)
        for role, fn, values in (("mean", self.mean_fn, mean),
                                 ("variance", self.var_fn, variances)):
            if not np.all(np.isfinite(values)):
                raise BadScenarioError(
                    f"{role} function {fn.name!r} is not finite on the design"
                )
        if not np.all(variances > 0.0):
            raise BadScenarioError("variance function must be positive on the design")
        # every sample drawn from the scenario shares these arrays
        for name, values in (("xs", xs), ("mean", mean), ("sd", np.sqrt(variances))):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "mean_fn": plain(self.mean_fn),
            "var_fn": plain(self.var_fn),
            "n": self.n,
            "error_law": plain(self.error_law),
            "design": "equispaced" if self.design is None else "explicit",
        }


def smooth_scenario(n: int, error_law: ErrorLaw = ErrorLaw("gaussian")) -> Scenario:
    """Default smooth case: g = 2 + sin(2 pi x), V = 0.5 + 0.25 sin(2 pi x)."""
    return Scenario(
        label=f"smooth-n{n}-{error_law.kind}",
        mean_fn=function_spec("sine", offset=2.0, amplitude=1.0),
        var_fn=function_spec("sine", offset=0.5, amplitude=0.25),
        n=n,
        error_law=error_law,
    )


def constant_scenario(n: int) -> Scenario:
    """Homoscedastic case: mean 1, variance 2, gaussian errors."""
    return Scenario(
        label=f"constant-n{n}",
        mean_fn=function_spec("constant", value=1.0),
        var_fn=function_spec("constant", value=2.0),
        n=n,
    )


def rough_mean_scenario(n: int, beta: float) -> Scenario:
    """Cusp mean |x - 1/2|^beta over the default smooth variance, gaussian errors."""
    if not 0.0 < beta < 1.0:
        raise BadScenarioError(f"need 0 < beta < 1, got {beta}")
    return Scenario(
        label=f"rough-mean-b{beta}-n{n}",
        mean_fn=function_spec("abs_power", exponent=beta),
        var_fn=function_spec("sine", offset=0.5, amplitude=0.25),
        n=n,
    )


def quadratic_variance_scenario(n: int) -> Scenario:
    """Variance 0.5 + 3 (x - 1/2)^2, gaussian errors, for bias-structure studies.

    A quadratic variance makes the second-order bias term exact at every
    bandwidth, so log-log slopes in h are clean.  Moderate curvature
    keeps the variance roughly level across wide windows, which the
    1/(n h) variance law needs.
    """
    return Scenario(
        label=f"quadratic-variance-n{n}",
        mean_fn=function_spec("sine", offset=2.0, amplitude=1.0),
        var_fn=function_spec("quadratic", offset=0.5, curvature=3.0, center=0.5),
        n=n,
    )


def _draw(scenario: Scenario, seed) -> Sample:
    """One sample of the scenario: only the noise depends on the seed."""
    eps = scenario.error_law.draw(np.random.default_rng(seed), scenario.n)
    return Sample(scenario.xs, scenario.mean + scenario.sd * eps)


def generate_sample(scenario: Scenario, seed) -> Sample:
    """Draw one dataset from the scenario, deterministically in the seed."""
    return _draw(scenario, _seed_sequence(seed))


# --- estimators as callables ---------------------------------------------

def _describe(estimator) -> dict | str:
    if hasattr(estimator, "to_dict"):
        return estimator.to_dict()
    return getattr(estimator, "__name__", repr(type(estimator).__name__))


# --- replication engine ---------------------------------------------------

def _seed_record(seed):
    """A checked seed as JSON: the int, or the SeedSequence's keyword arguments."""
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": seed.entropy, "spawn_key": seed.spawn_key,
                "pool_size": seed.pool_size,
                "n_children_spawned": seed.n_children_spawned}
    return int(seed)


def _seed_sequence(seed) -> np.random.SeedSequence:
    """A master seed: a non-negative integer or a SeedSequence, never entropy."""
    if isinstance(seed, np.random.SeedSequence):
        # a copy: spawning from the caller's object would advance it
        return np.random.SeedSequence(**_seed_record(seed))
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadParameterError(
            f"seed must be a non-negative integer or a SeedSequence, got {seed!r}")
    return np.random.SeedSequence(seed)


def _replicate(scenarios, replications: int, seed, rep_fn):
    """The replication engine: rep_fn(*samples) once per replication.

    Replication i draws every scenario's sample from the i-th stream
    spawned from ``seed`` (common random numbers across scenarios).

    Returns (results, failures): the results of the replications that
    succeeded, in order, and a list of (index, message) for the others.
    Sample and estimator failures (DiffvarError) are recorded, anything
    else propagates.
    """
    if replications < 2:
        raise BadParameterError("need at least 2 replications")
    results, failures = [], []
    for i, child in enumerate(_seed_sequence(seed).spawn(replications)):
        try:
            results.append(rep_fn(*(_draw(s, child) for s in scenarios)))
        except DiffvarError as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return results, failures


# --- risks -----------------------------------------------------------------

@dataclass(frozen=True)
class RiskValue:
    """A Monte Carlo risk with its replication standard error."""

    value: float
    stderr: float
    replications: int
    failures: int


def _summarize(values, failures) -> RiskValue:
    ok = np.array(values, dtype=float)
    if ok.size == 0:
        raise BadScenarioError("every replication failed")
    stderr = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else float("nan")
    return RiskValue(
        value=float(ok.mean()),
        stderr=stderr,
        replications=len(values) + len(failures),
        failures=len(failures),
    )


def _margin_grid(margin: float, grid_size: int) -> np.ndarray:
    """The default integration grid: grid_size points on [margin, 1 - margin]."""
    if not 0.0 <= margin < 0.5:
        raise BadParameterError("margin must be in [0, 0.5)")
    if grid_size < 2:
        raise BadParameterError(
            f"integrated risk needs >= 2 grid points, got {grid_size}")
    return np.linspace(margin, 1.0 - margin, grid_size)


def _point_grid(x0) -> np.ndarray:
    """The one-point grid at x0, which must be a finite point of [0, 1]."""
    x0 = float(x0)
    if not 0.0 <= x0 <= 1.0:
        raise BadParameterError(f"x0 must be in [0, 1], got {x0}")
    return np.array([x0])


def _point_draws(scenario: Scenario, estimator, x0, replications: int, seed):
    """The estimates at x0 of the replications that succeeded, and the failures."""
    grid = _point_grid(x0)
    values, failures = _replicate([scenario], replications, seed,
                                  lambda sample: float(estimator(sample, grid)[0]))
    return np.array(values, dtype=float), failures


def pointwise_risk(
    scenario: Scenario, estimator, x0: float, replications: int, seed,
) -> RiskValue:
    """Mean squared error of the estimator at one point, over replications."""
    v_true = float(scenario.var_fn(_point_grid(x0))[0])
    draws, failures = _point_draws(scenario, estimator, x0, replications, seed)
    return _summarize((draws - v_true) ** 2, failures)


def global_risk(
    scenario: Scenario, estimator, replications: int, seed,
    margin: float = 0.05, grid_size: int = 101,
) -> RiskValue:
    """Trapezoidal integrated squared error, averaged over replications.

    The grid has grid_size points on [margin, 1 - margin]; pass margin=0
    for the full interval.  It needs at least 2 points: the trapezoid
    rule over one point is identically zero.
    """
    grid = _margin_grid(margin, grid_size)
    v_true = np.asarray(scenario.var_fn(grid), dtype=float)

    def rep(sample):
        err = estimator(sample, grid) - v_true
        return float(np.trapezoid(err * err, grid))

    return _summarize(*_replicate([scenario], replications, seed, rep))


def _risk_entry(rv: RiskValue) -> dict:
    return {"risk": rv.value, "stderr": rv.stderr,
            "replications": rv.replications, "failures": rv.failures}


@dataclass(frozen=True)
class RiskReport:
    """Pointwise and global risks of one estimator on one scenario."""

    scenario: dict
    estimator: dict | str
    replications: int
    seed: int | dict
    pointwise: dict
    global_risk: RiskValue | None
    grid_margin: float
    grid_size: int

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "estimator": self.estimator,
            "replications": self.replications,
            "seed": self.seed,
            "pointwise": {str(x): _risk_entry(rv) for x, rv in self.pointwise.items()},
            "global": None if self.global_risk is None else _risk_entry(self.global_risk),
            "grid_margin": self.grid_margin,
            "grid_size": self.grid_size,
        }


def risk_report(
    scenario: Scenario, estimator, replications: int, seed,
    points=(), include_global: bool = True,
    margin: float = 0.05, grid_size: int = 101,
) -> RiskReport:
    """Bundle pointwise risks at ``points`` and optionally the global risk.

    A repeated point counts once.  The report records ``seed`` so that it
    reruns from its own JSON: ``np.random.SeedSequence(**seed)`` for a dict.
    """
    points = list(dict.fromkeys(float(x0) for x0 in points))
    if not points and not include_global:
        raise BadParameterError("nothing to do: no points and no global risk")
    if include_global:  # a bad margin or grid size fails before any replication
        _margin_grid(margin, grid_size)
    ss = _seed_sequence(seed).spawn(len(points) + 1)
    pw = {x0: pointwise_risk(scenario, estimator, x0, replications, child)
          for x0, child in zip(points, ss)}
    gr = None
    if include_global:
        gr = global_risk(scenario, estimator, replications, ss[-1], margin, grid_size)
    return RiskReport(
        scenario=scenario.to_dict(),
        estimator=_describe(estimator),
        replications=replications,
        seed=_seed_record(seed),
        pointwise=pw,
        global_risk=gr,
        grid_margin=margin,
        grid_size=grid_size,
    )


# --- convergence rates ------------------------------------------------------

def _loglog_slope(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """OLS slope and its standard error on (log xs, log ys)."""
    lx = np.log(xs)
    ly = np.log(ys)
    lx_c = lx - lx.mean()
    sxx = float(lx_c @ lx_c)
    slope = float(lx_c @ ly / sxx)
    if xs.size > 2:
        resid = ly - ly.mean() - slope * lx_c
        s2 = float(resid @ resid) / (xs.size - 2)
        stderr = math.sqrt(s2 / sxx)
    else:
        stderr = float("nan")
    return slope, stderr


@dataclass(frozen=True)
class RateReport:
    """Per-n risks with the fitted log-log slope against the benchmark."""

    ns: tuple[int, ...]
    risks: tuple[RiskValue, ...]
    slope: float
    slope_stderr: float
    theoretical_slope: float
    slope_defined: bool
    dropped_smallest: bool
    kind: str

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "risks": [
                {"n": n, "risk": rv.value, "stderr": rv.stderr,
                 "failures": rv.failures}
                for n, rv in zip(self.ns, self.risks)
            ],
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "theoretical_slope": self.theoretical_slope,
            "slope_defined": self.slope_defined,
            "dropped_smallest": self.dropped_smallest,
            "kind": self.kind,
        }


def rate_schedule(
    seq: DifferenceSequence,
    gamma: float,
    scale: float = 1.0,
    degree: int | None = None,
    kernel_spec: KernelSpec = kernel("epanechnikov"),
) -> Callable[[int], EstimatorConfig]:
    """n -> estimator with bandwidth scale * n^(-1/(2 gamma + 1)).

    The default degree floor(gamma) + 1 keeps the fit order above the
    smoothness exponent, as the rate statements require.  A gamma or
    scale that is not finite and positive raises BadParameterError here.
    """
    rate_optimal_bandwidth(2, gamma, scale)  # checks gamma and scale
    if degree is None:
        degree = int(math.floor(gamma)) + 1
    def build(n: int) -> EstimatorConfig:
        return EstimatorConfig(
            sequence=seq,
            smoother=SmootherConfig(
                bandwidth=rate_optimal_bandwidth(n, gamma, scale),
                degree=degree,
                kernel=kernel_spec,
            ),
        )
    return build


def rate_experiment(
    scenarios,
    estimator_schedule,
    replications: int,
    seed,
    gamma: float,
    x0: float | None = None,
    margin: float = 0.05,
    grid_size: int = 101,
) -> RateReport:
    """Measure risk across sample sizes and fit the convergence slope.

    Parameters
    ----------
    scenarios : sequence of Scenario
        One per sample size; at least 4 distinct n.
    estimator_schedule : callable n -> estimator
        Typically :func:`rate_schedule` output.
    x0 : float or None
        None measures the global (integrated) risk; a point measures the
        pointwise risk there.

    A sample size is abandoned (experiment aborts) when more than 5% of
    its replications fail; the smallest n is silently dropped from the
    slope fit when more than 1% of its replications fail.  A slope over
    zero risks is undefined and reported as NaN with ``slope_defined``
    cleared.
    """
    scenarios = sorted(scenarios, key=lambda s: s.n)
    ns = [s.n for s in scenarios]
    if len(set(ns)) < 4:
        raise BadParameterError("need at least 4 distinct sample sizes")
    master = _seed_sequence(seed).spawn(len(scenarios))
    risks = []
    for s, child in zip(scenarios, master):
        est = estimator_schedule(s.n)
        if x0 is None:
            rv = global_risk(s, est, replications, child,
                             margin=margin, grid_size=grid_size)
        else:
            rv = pointwise_risk(s, est, x0, replications, child)
        if rv.failures > 0.05 * replications:
            raise BadScenarioError(
                f"{rv.failures}/{replications} replications failed at n={s.n}"
            )
        risks.append(rv)

    dropped = risks[0].failures > 0.01 * replications
    fit_ns = np.array(ns[1:] if dropped else ns, dtype=float)
    fit_risks = np.array(
        [rv.value for rv in (risks[1:] if dropped else risks)], dtype=float
    )
    if np.any(fit_risks <= 0.0):
        slope, stderr, defined = float("nan"), float("nan"), False
    else:
        slope, stderr = _loglog_slope(fit_ns, fit_risks)
        defined = True
    return RateReport(
        ns=tuple(ns),
        risks=tuple(risks),
        slope=slope,
        slope_stderr=stderr,
        # -2 gamma / (2 gamma + 1), without overflowing 2 gamma
        theoretical_slope=-gamma / (gamma + 0.5),
        slope_defined=defined,
        dropped_smallest=bool(dropped),
        kind="global" if x0 is None else f"pointwise@{x0}",
    )


# --- normality ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormalityReport:
    """Shape diagnostics of the estimator's replication distribution.

    Draws are self-studentized: centered at the replication mean and
    scaled by the replication standard deviation, so the diagnostics
    test distributional shape without an analytic asymptotic variance.
    """

    draws: np.ndarray
    standardized: np.ndarray
    skewness: float
    excess_kurtosis: float
    kolmogorov_distance: float
    failures: int = 0

    def to_dict(self) -> dict:
        return {
            "replications": int(self.draws.size),
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "kolmogorov_distance": self.kolmogorov_distance,
            "failures": self.failures,
            "draws_mean": float(self.draws.mean()),
            "draws_std": float(self.draws.std(ddof=0)),
        }


def normality_diagnostics(draws, failures: int = 0) -> NormalityReport:
    """Standardize draws and compute skewness, excess kurtosis and the
    Kolmogorov distance to the standard normal.

    Skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3 use the biased
    central moments m_k of the standardized draws; the Kolmogorov
    distance is the largest gap between their empirical CDF and Phi.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.size < 8:
        raise BadParameterError("need at least 8 draws for shape diagnostics")
    spread = draws.std(ddof=0)
    if spread == 0.0:
        raise BadParameterError("draws have zero spread; shape is undefined")
    z = (draws - draws.mean()) / spread
    centered = z - z.mean()
    m2, m3, m4 = (np.mean(centered**k) for k in (2, 3, 4))
    ordered = np.sort(z)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in ordered])
    n = ordered.size
    above = np.max(np.arange(1, n + 1) / n - cdf)
    below = np.max(cdf - np.arange(n) / n)
    return NormalityReport(
        draws=draws,
        standardized=z,
        skewness=float(m3 / m2**1.5),
        excess_kurtosis=float(m4 / m2**2 - 3.0),
        kolmogorov_distance=float(max(above, below)),
        failures=failures,
    )


def normality_experiment(
    scenario: Scenario, estimator, x0: float, replications: int, seed,
) -> NormalityReport:
    """Collect replication draws of the estimate at x0 and diagnose shape."""
    if replications < 500:
        raise BadParameterError("need at least 500 replications")
    draws, failures = _point_draws(scenario, estimator, x0, replications, seed)
    return normality_diagnostics(draws, failures=len(failures))


# --- bias / variance structure in h ------------------------------------------

@dataclass(frozen=True, eq=False)
class BiasVarianceReport:
    """Squared bias and variance of the estimate at x0 across bandwidths."""

    bandwidths: np.ndarray
    squared_bias: np.ndarray
    variance: np.ndarray
    bias_slope: float
    variance_slope: float
    replications: int
    x0: float


def bias_variance_experiment(
    scenario: Scenario,
    seq: DifferenceSequence,
    bandwidths,
    x0: float,
    replications: int,
    seed,
) -> BiasVarianceReport:
    """Monte Carlo bias^2 and variance of the estimate at x0 per bandwidth.

    The smoother is local linear with the Epanechnikov kernel.  The
    design is fixed across replications, so each bandwidth's
    :func:`~diffvar.estimator.variance_operator` is built once and every
    replication reduces to one squared-contrast inner product per
    bandwidth.  Errors building the weights propagate.  The log-log slopes
    need at least 2 distinct bandwidths.
    """
    bandwidths = np.asarray(bandwidths, dtype=float)
    if np.unique(bandwidths).size < 2:
        raise BadParameterError(
            f"need at least 2 distinct bandwidths, got {bandwidths.tolist()}"
        )
    grid = _point_grid(x0)
    operators = [
        variance_operator(scenario.xs, seq, SmootherConfig(float(h)), grid)
        for h in bandwidths
    ]
    v_true = float(np.asarray(scenario.var_fn(grid))[0])

    def rep(sample):
        z = pseudoresiduals(sample, seq).values ** 2
        return np.array([op.apply(z)[0] for op in operators])

    values, failures = _replicate([scenario], replications, seed, rep)
    if failures:
        raise BadScenarioError(f"{len(failures)} replications failed")
    draws = np.vstack(values)
    squared_bias = (draws.mean(axis=0) - v_true) ** 2
    variance = draws.var(axis=0, ddof=1)
    bias_slope, _ = _loglog_slope(bandwidths, squared_bias)
    variance_slope, _ = _loglog_slope(bandwidths, variance)
    return BiasVarianceReport(
        bandwidths=bandwidths,
        squared_bias=squared_bias,
        variance=variance,
        bias_slope=bias_slope,
        variance_slope=variance_slope,
        replications=replications,
        x0=float(x0),
    )


# --- effect of a rough mean ---------------------------------------------------

@dataclass(frozen=True)
class MeanEffectReport:
    """Global risks under a cusp mean versus a flat mean, per sample size.

    Both arms share every replication's noise (common random numbers),
    so ``ratio_stderrs`` are the paired, delta-method standard errors of
    the risk ratios; they are far tighter than the two marginal errors.
    """

    ns: tuple[int, ...]
    rough: tuple[RiskValue, ...]
    flat: tuple[RiskValue, ...]
    ratios: tuple[float, ...]
    ratio_stderrs: tuple[float, ...]
    gamma: float
    beta: float

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "rough": [{"risk": r.value, "stderr": r.stderr} for r in self.rough],
            "flat": [{"risk": r.value, "stderr": r.stderr} for r in self.flat],
            "ratios": list(self.ratios),
            "ratio_stderrs": list(self.ratio_stderrs),
            "gamma": self.gamma,
            "beta": self.beta,
        }


def mean_effect_experiment(
    gamma: float,
    beta: float,
    ns,
    replications: int,
    seed,
    scale: float = 1.0,
    grid_size: int = 101,
) -> MeanEffectReport:
    """Compare risk under mean |x-1/2|^beta against mean zero.

    The estimator smooths squared first differences with the bandwidth
    of :func:`rate_schedule` for ``gamma`` and ``scale``; its squared
    error is integrated over ``grid_size`` points on [0.05, 0.95].
    ``beta`` must lie strictly inside (gamma/(4 gamma + 2),
    gamma/(2 gamma + 2)), the regime where the cusp is rough enough to
    matter in principle yet provably negligible for this estimator.  The
    replication engine draws both arms from the same streams, so the
    ratio is measured with common random numbers.
    """
    lo = gamma / (4.0 * gamma + 2.0)
    hi = gamma / (2.0 * gamma + 2.0)
    if not lo < beta < hi:
        raise BadParameterError(
            f"beta must lie strictly inside ({lo:.4g}, {hi:.4g}), got {beta}"
        )
    schedule = rate_schedule(standard_sequence("first_difference"), gamma, scale)
    ns = sorted(int(n) for n in ns)
    children = _seed_sequence(seed).spawn(len(ns))
    grid = _margin_grid(0.05, grid_size)
    rough_risks, flat_risks, ratios, ratio_ses = [], [], [], []
    for n, child in zip(ns, children):
        rough = rough_mean_scenario(n, beta)
        flat = replace(rough, label=f"flat-mean-n{n}",
                       mean_fn=function_spec("constant", value=0.0))
        est = schedule(n)
        v_true = np.asarray(rough.var_fn(grid), dtype=float)

        def rep(*samples):
            errs = [est(sample, grid) - v_true for sample in samples]
            return np.array([np.trapezoid(err * err, grid) for err in errs])

        values, failures = _replicate([rough, flat], replications, child, rep)
        if not values:
            raise BadScenarioError("every replication failed")
        pairs = np.vstack(values)
        k = pairs.shape[0]
        means = pairs.mean(axis=0)
        ses = pairs.std(axis=0, ddof=1) / math.sqrt(k)
        rough_risks.append(RiskValue(float(means[0]), float(ses[0]),
                                     replications, len(failures)))
        flat_risks.append(RiskValue(float(means[1]), float(ses[1]),
                                    replications, len(failures)))
        ratio = means[0] / means[1]
        cov = np.cov(pairs.T, ddof=1)
        var_log = (cov[0, 0] / means[0] ** 2 + cov[1, 1] / means[1] ** 2
                   - 2.0 * cov[0, 1] / (means[0] * means[1])) / k
        ratios.append(float(ratio))
        ratio_ses.append(float(ratio * math.sqrt(max(var_log, 0.0))))
    return MeanEffectReport(
        ns=tuple(ns),
        rough=tuple(rough_risks),
        flat=tuple(flat_risks),
        ratios=tuple(ratios),
        ratio_stderrs=tuple(ratio_ses),
        gamma=gamma,
        beta=beta,
    )
