"""Mobile-survey emission rate inference with online changepoint detection."""

from .bocd import DEFAULT_LAMBDA
from .detector import (
    DetectionEvent,
    DetectorConfig,
    PassReport,
    PassReports,
    detect_series,
)
from .errors import (
    ConfigError,
    DetectionError,
    InputDataError,
    InsufficientDataError,
    PlumeCpdError,
)
from .inference import (
    DEFAULT_GRID,
    QGrid,
    estimate_sigma_e,
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
)
from .synthesis import (
    ExperimentRecord,
    SignalStats,
    signal_stats,
    synthesize_batch,
)
from .transport import (
    ForwardModel,
    Geometry,
    MetSummary,
    ambient_baseline,
    build_forward_model,
    cross_plume_integrate,
    forward_concentration,
    ppm_to_mass_concentration,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_GRID",
    "DEFAULT_LAMBDA",
    "DetectionError",
    "DetectionEvent",
    "DetectorConfig",
    "ExperimentRecord",
    "ForwardModel",
    "Geometry",
    "InputDataError",
    "InsufficientDataError",
    "MetSummary",
    "PassReport",
    "PassReports",
    "PerformanceReport",
    "PlumeCpdError",
    "QGrid",
    "SignalStats",
    "ambient_baseline",
    "bootstrap_ci",
    "build_forward_model",
    "cross_plume_integrate",
    "detect_series",
    "estimate_sigma_e",
    "evaluate_cell",
    "forward_concentration",
    "make_surrogate_experiment",
    "make_unit_forward_experiment",
    "ppm_to_mass_concentration",
    "score_first_alarms",
    "signal_stats",
    "synthesize_batch",
]
