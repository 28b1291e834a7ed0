"""Streaming orchestration: joint rate estimation and change detection.

One recursion serves both purposes. Each pass advances the run-length
state, whose changepoint probability drives detection and whose
full-run row, the rate posterior given every pass since the last reset,
is what a pass report summarizes. When the changepoint probability
crosses the configured threshold the detector emits an event carrying
that row as it stood after the previous pass, then restarts the state
from the flat prior. The measurement noise scale is widened once for all
passes after the first detected change, reflecting that post-change
rates are no longer pinned by a controlled release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, get_args

import numpy as np

from .bocd import (
    DEFAULT_LAMBDA,
    DEFAULT_PREDICTIVE_METHOD,
    PredictiveMethod,
    RunLengthState,
    bocd_step,
    changepoint_probability,
    initial_state,
)
from .errors import DetectionError, PlumeCpdError
from .inference import (
    DEFAULT_GRID,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    posterior_mean_std,
    posterior_mode,
)
from .transport import ForwardModel


@dataclass(frozen=True)
class DetectorConfig:
    threshold: float
    sigma_e_initial: float
    lam: float = DEFAULT_LAMBDA
    sigma_e_post_factor: float = 10.0
    grid: QGrid = DEFAULT_GRID
    predictive_method: PredictiveMethod = DEFAULT_PREDICTIVE_METHOD

    def __post_init__(self) -> None:
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie strictly between 0 and 1")
        if self.sigma_e_initial <= 0:
            raise ValueError("sigma_e_initial must be positive")
        if not self.lam > 1:
            raise ValueError("lambda must exceed 1")
        if self.sigma_e_post_factor < 1:
            raise ValueError("sigma_e_post_factor must be at least 1")
        if self.predictive_method not in get_args(PredictiveMethod):
            raise ValueError(f"unknown predictive method {self.predictive_method!r}")


@dataclass(frozen=True)
class DetectionEvent:
    """A threshold crossing, keeping the last pre-change rate posterior."""

    pass_index: int
    changepoint_probability: float
    pre_change_posterior: EmissionPosterior
    regime_index: int


@dataclass(frozen=True)
class PassReport:
    pass_index: int
    cy_g_per_m2: float
    changepoint_probability: float
    mode_g_per_s: float
    mean_g_per_s: float
    std_g_per_s: float


def _forward_models_per_pass(
    fms: ForwardModel | Sequence[ForwardModel], n: int
) -> Sequence[ForwardModel]:
    if isinstance(fms, ForwardModel):
        return [fms] * n
    if len(fms) != n:
        raise ValueError("need one forward model per pass")
    return fms


def detect_series(
    cys: Sequence[float],
    fms: ForwardModel | Sequence[ForwardModel],
    cfg: DetectorConfig,
    pass_indices: Sequence[int] | None = None,
    collect_reports: bool = True,
) -> tuple[list[PassReport], list[DetectionEvent]]:
    """Run the detector over raw integrated concentrations.

    ``collect_reports=False`` skips the per-pass moment computations, a
    cheap win inside large synthetic sweeps where only events matter.
    """
    cys = np.asarray(cys, dtype=float)
    if cys.size == 0:
        raise ValueError("empty measurement stream")
    fms = _forward_models_per_pass(fms, cys.size)
    if pass_indices is None:
        pass_indices = range(1, cys.size + 1)

    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state: RunLengthState = initial_state(cfg.grid)
    posterior = state.run_posterior(0)
    reports: list[PassReport] = []
    events: list[DetectionEvent] = []

    for idx, cy, fm in zip(pass_indices, cys, fms):
        previous = posterior
        try:
            state = bocd_step(
                state, float(cy), fm, lik_cfg, cfg.lam, method=cfg.predictive_method
            )
            # Building the full-run posterior validates its normalization.
            posterior = state.run_posterior(state.k)
        except (PlumeCpdError, ValueError) as exc:
            raise DetectionError(f"pass {idx}: {exc}") from exc
        cp = changepoint_probability(state)
        if collect_reports:
            mean, std = posterior_mean_std(posterior)
            reports.append(
                PassReport(
                    pass_index=int(idx),
                    cy_g_per_m2=float(cy),
                    changepoint_probability=cp,
                    mode_g_per_s=posterior_mode(posterior),
                    mean_g_per_s=mean,
                    std_g_per_s=std,
                )
            )
        if cp >= cfg.threshold:
            events.append(
                DetectionEvent(
                    pass_index=int(idx),
                    changepoint_probability=cp,
                    pre_change_posterior=previous,
                    regime_index=len(events) + 1,
                )
            )
            # The triggering measurement is treated as the first of the
            # new regime and is not folded into the reset state.
            state = initial_state(cfg.grid)
            posterior = state.run_posterior(0)
            lik_cfg = LikelihoodConfig(cfg.sigma_e_initial * cfg.sigma_e_post_factor)
    return reports, events

