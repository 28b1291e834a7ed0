"""Synthetic experiments with field-like statistics.

The evaluation harness needs original pass series that behave like real
controlled-release experiments: a dozen-odd positively skewed values
with a prescribed mean and coefficient of variation. Drawing them iid
would make whole sweep cells hostage to whether one extreme value
happened to land in the sample, so the series here are built from
evenly spaced lognormal quantiles and then affinely standardized to hit
the sample mean and CV exactly. The randomness under study, which
measurement lands next to the changepoint, stays in the shuffles.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .synthesis import ExperimentRecord
from .transport import ForwardModel, Geometry, MetSummary, build_forward_model

# Met summary in the range of near-neutral daytime surface-layer
# conditions over short grass (mean wind a few m/s, friction velocity
# around a tenth of that).
DEFAULT_SURROGATE_MET = MetSummary(
    mean_velocity_mps=2.72,
    sigma_u_mps=1.15,
    sigma_w_mps=0.30,
    friction_velocity_mps=0.24,
    temperature_k=293.15,
)


def stratified_lognormal_series(n: int, mean: float, cv: float) -> np.ndarray:
    """Representative lognormal sample with exact sample mean and CV.

    Takes the lognormal quantiles at probabilities (i - 0.5) / n and
    rescales them so the sample mean equals ``mean`` and the sample
    standard deviation (N-1 normalized) equals ``cv * mean``.
    """
    if n < 2:
        raise ValueError("need at least 2 passes")
    if mean <= 0 or cv <= 0:
        raise ValueError("mean and cv must be positive")
    sigma_ln = math.sqrt(math.log(1.0 + cv * cv))
    mu_ln = -0.5 * sigma_ln * sigma_ln
    normal = NormalDist()
    probs = (np.arange(n) + 0.5) / n
    quantiles = np.exp(mu_ln + sigma_ln * np.array([normal.inv_cdf(p) for p in probs]))
    centered = (quantiles - quantiles.mean()) / quantiles.std(ddof=1)
    series = mean * (1.0 + cv * centered)
    if np.any(series <= 0):
        raise ValueError(f"cv={cv} too large for a positive standardized series")
    return series


def make_surrogate_experiment(
    experiment_id: str,
    n_passes: int,
    cv: float,
    q_true: float,
    fetch_m: float = 30.0,
) -> tuple[ExperimentRecord, ForwardModel]:
    """Build a synthetic experiment whose passes scatter around the
    forward prediction at ``q_true`` with the requested CV.

    Returns the record together with the forward model that generated
    it, since every downstream step (noise calibration, detection)
    needs the same model.
    """
    fm = build_forward_model(DEFAULT_SURROGATE_MET, Geometry(fetch_m))
    mean_cy = q_true * fm.dispersion_factor_per_m / fm.advection_velocity_mps
    series = stratified_lognormal_series(n_passes, mean_cy, cv)
    return ExperimentRecord(experiment_id, fetch_m, series), fm


def make_unit_forward_experiment(
    experiment_id: str, n_passes: int, cv: float, q_true: float
) -> tuple[ExperimentRecord, ForwardModel]:
    """Surrogate with an identity forward map (cy numerically equals Q).

    Convenient in tests where grid values should line up with
    measurements one to one.
    """
    fm = ForwardModel(advection_velocity_mps=1.0, dispersion_factor_per_m=1.0)
    series = stratified_lognormal_series(n_passes, q_true, cv)
    return ExperimentRecord(experiment_id, 30.0, series), fm
