"""Difference-based variance function estimation for nonparametric regression.

The package estimates an unknown variance function from fixed-design
data by smoothing squared difference-sequence contrasts with local
polynomial regression, selects bandwidths by rate schedules or K-fold
cross-validation, and ships a seeded Monte Carlo lab that measures
risks, convergence slopes and normality diagnostics of the estimators.
"""

from .bandwidth import (
    BandwidthGrid,
    CvReport,
    cv_select,
    default_grid,
    rate_optimal_bandwidth,
)
from .diffseq import (
    DifferenceSequence,
    min_constant,
    optimal_sequence,
    standard_sequence,
    validate,
    variance_factor,
)
from .errors import DiffvarError
from .estimator import (
    EstimatorConfig,
    PseudoresidualSeries,
    Sample,
    VarianceEstimate,
    estimate_variance,
    gsjs_estimate,
    hkt_estimate,
    pseudoresiduals,
    rice_estimate,
)
from .kernels import KernelSpec, kernel, kernel_moments
from .serialize import dump_json
from .simlab import (
    ErrorLaw,
    Scenario,
    bias_variance_experiment,
    constant_scenario,
    function_spec,
    generate_sample,
    global_risk,
    mean_effect_experiment,
    normality_diagnostics,
    normality_experiment,
    pointwise_risk,
    quadratic_variance_scenario,
    rate_experiment,
    rate_schedule,
    risk_report,
    rough_mean_scenario,
    smooth_scenario,
)
from .smoother import EffectiveWeights, SmootherConfig, WeightOperator, weight_operator

__version__ = "0.1.0"

__all__ = [
    "BandwidthGrid",
    "CvReport",
    "DifferenceSequence",
    "DiffvarError",
    "EffectiveWeights",
    "ErrorLaw",
    "EstimatorConfig",
    "KernelSpec",
    "PseudoresidualSeries",
    "Sample",
    "Scenario",
    "SmootherConfig",
    "VarianceEstimate",
    "WeightOperator",
    "bias_variance_experiment",
    "constant_scenario",
    "cv_select",
    "default_grid",
    "dump_json",
    "estimate_variance",
    "function_spec",
    "generate_sample",
    "global_risk",
    "gsjs_estimate",
    "hkt_estimate",
    "kernel",
    "kernel_moments",
    "mean_effect_experiment",
    "min_constant",
    "normality_diagnostics",
    "normality_experiment",
    "optimal_sequence",
    "pointwise_risk",
    "pseudoresiduals",
    "quadratic_variance_scenario",
    "rate_experiment",
    "rate_optimal_bandwidth",
    "rate_schedule",
    "rice_estimate",
    "risk_report",
    "rough_mean_scenario",
    "smooth_scenario",
    "standard_sequence",
    "validate",
    "variance_factor",
    "weight_operator",
]
