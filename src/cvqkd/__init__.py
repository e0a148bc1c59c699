"""Finite-size key rates and channel-estimation planning for Gaussian CV-QKD.

The package is organised bottom-up:

``model``
    parameter containers and the loss/noise algebra of the link
``estimation``
    channel estimators, their analytic variance models, confidence bounds
``keyrate``
    Holevo bound, asymptotic and finite-size rates
``montecarlo``
    sampled estimator statistics validating the analytic variance models
``optimizer``
    parameter optimization, empirical scaling fits, range limits
``cli``
    command line front end and scenario presets
"""

__version__ = "0.1.0"

from .model import (
    ChannelParams,
    SourceParams,
    Protocol,
    ProtocolParams,
    FiberModel,
    SINGLE,
    DOUBLE,
    MODIFIED,
    aggregated_noise_variance,
    distance_to_transmittance,
    transmittance_to_distance,
    excess_noise_from_fiber,
    channel_at_distance,
)
from .estimation import (
    SampleSet,
    VarianceModel,
    ConfidenceBounds,
    estimate_covariance,
    estimate_T,
    estimate_Veps,
    estimation_arms,
    variance_model,
    confidence_coefficient,
    confidence_bounds,
    expected_bounds,
    ideal_bounds,
)
from .keyrate import (
    KeyRateReport,
    mutual_information,
    holevo_bound,
    asymptotic_key_rate,
    finite_size_correction,
    finite_key_rate,
    theoretical_noise_limit,
    theoretical_key_rate_limit,
)
from .montecarlo import (
    TrialConfig,
    EmpiricalStats,
    ValidationRow,
    run_trials,
    validate_variance_models,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    ExponentialFit,
    PowerLawFit,
    optimize_key_rate,
    optimize_each,
    evaluate_point,
    fit_power_law,
    fit_exponential_decay,
    optimal_ratio_curve,
    optimal_ratio_zero_crossing,
    fit_exponential_keyrate,
    max_distance,
)

# the names the README's "Python API" section lists, module by module
__all__ = [
    "ChannelParams", "SourceParams", "Protocol", "ProtocolParams",
    "FiberModel", "SINGLE", "DOUBLE", "MODIFIED",
    "aggregated_noise_variance", "distance_to_transmittance",
    "transmittance_to_distance", "excess_noise_from_fiber",
    "channel_at_distance",
    "SampleSet", "VarianceModel", "ConfidenceBounds", "estimate_covariance",
    "estimate_T", "estimate_Veps", "estimation_arms", "variance_model",
    "confidence_coefficient", "confidence_bounds", "expected_bounds",
    "ideal_bounds",
    "KeyRateReport", "mutual_information", "holevo_bound",
    "asymptotic_key_rate", "finite_size_correction", "finite_key_rate",
    "theoretical_noise_limit", "theoretical_key_rate_limit",
    "TrialConfig", "EmpiricalStats", "ValidationRow", "run_trials",
    "validate_variance_models",
    "OptimizationProblem", "OptimizationResult", "ExponentialFit",
    "PowerLawFit", "optimize_key_rate", "optimize_each", "evaluate_point",
    "fit_power_law", "fit_exponential_decay", "optimal_ratio_curve",
    "optimal_ratio_zero_crossing", "fit_exponential_keyrate",
    "max_distance",
]
