"""Mobile-survey emission rate inference with online changepoint detection."""

from .bocd import DEFAULT_LAMBDA, DEFAULT_PREDICTIVE_METHOD
from .detector import (
    DetectionEvent,
    DetectorConfig,
    PassReport,
    detect_series,
)
from .errors import (
    ConfigError,
    DetectionError,
    InputDataError,
    InsufficientDataError,
    MeasurementIncompatibleError,
    PlumeCpdError,
)
from .inference import (
    DEFAULT_GRID,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    estimate_sigma_e,
    grid_integrate,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
)
from .metrics import (
    PerformanceReport,
    bootstrap_ci,
    evaluate_cell,
    score_first_alarms,
)
from .surrogate import (
    make_surrogate_experiment,
    make_unit_forward_experiment,
    stratified_lognormal_series,
)
from .synthesis import (
    ExperimentRecord,
    SignalStats,
    instance_rng,
    signal_stats,
    synthesize_batch,
)
from .transport import (
    ConstantDispersion,
    ForwardModel,
    Geometry,
    MetSummary,
    ReflectedGaussianDispersion,
    ambient_baseline,
    build_forward_model,
    cross_plume_integrate,
    forward_concentration,
    ppm_to_mass_concentration,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstantDispersion",
    "DEFAULT_GRID",
    "DEFAULT_LAMBDA",
    "DEFAULT_PREDICTIVE_METHOD",
    "DetectionError",
    "DetectionEvent",
    "DetectorConfig",
    "EmissionPosterior",
    "ExperimentRecord",
    "ForwardModel",
    "Geometry",
    "InputDataError",
    "InsufficientDataError",
    "LikelihoodConfig",
    "MeasurementIncompatibleError",
    "MetSummary",
    "PassReport",
    "PerformanceReport",
    "PlumeCpdError",
    "QGrid",
    "ReflectedGaussianDispersion",
    "SignalStats",
    "ambient_baseline",
    "bootstrap_ci",
    "build_forward_model",
    "cross_plume_integrate",
    "detect_series",
    "estimate_sigma_e",
    "evaluate_cell",
    "forward_concentration",
    "grid_integrate",
    "instance_rng",
    "make_surrogate_experiment",
    "make_unit_forward_experiment",
    "posterior_mean_std",
    "posterior_mode",
    "ppm_to_mass_concentration",
    "score_first_alarms",
    "signal_stats",
    "stratified_lognormal_series",
    "synthesize_batch",
    "uniform_prior",
]
