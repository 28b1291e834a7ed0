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

Both entry points hold a ``bocd.RunLengthState`` and advance it through
its one per-pass step, which also checks the full-run row.
``detect_series`` runs one stream to its end, builds the full-run row for
each pass report and starts a fresh state at each alarm.
``first_alarms`` serves Monte Carlo scoring, which needs only each
stream's first alarm: it advances a whole block of equal-length streams
in lockstep, never builds a row, drops a stream at its first alarm and
never processes the passes after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, get_args

import numpy as np

from .bocd import (
    DEFAULT_LAMBDA,
    DEFAULT_PREDICTIVE_METHOD,
    DEFAULT_PRUNE_THRESHOLD,
    PredictiveMethod,
    RunLengthState,
)
from .errors import DetectionError, MeasurementIncompatibleError
from .inference import (
    DEFAULT_GRID,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
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
        if not (self.sigma_e_initial > 0 and math.isfinite(self.sigma_e_initial)):
            raise ValueError("sigma_e_initial must be positive and finite")
        LikelihoodConfig(self.sigma_e_initial)  # rejects one whose 1/sigma_e**2 overflows
        if not (self.lam > 1 and math.isfinite(self.lam)):
            raise ValueError("lambda must exceed 1 and be finite")
        if not (
            self.sigma_e_post_factor >= 1
            and math.isfinite(self.sigma_e_initial * self.sigma_e_post_factor)
        ):
            raise ValueError("sigma_e_post_factor must be at least 1 and keep sigma_e finite")
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
) -> tuple[list[PassReport], list[DetectionEvent]]:
    """Run the detector over raw integrated concentrations.

    Returns one report per pass and the events in pass order. Any failure
    raises ``DetectionError`` naming the pass.
    """
    cys = np.asarray(cys, dtype=float)
    if cys.size == 0:
        raise ValueError("empty measurement stream")
    fms = _forward_models_per_pass(fms, cys.size)
    if pass_indices is None:
        pass_indices = range(1, cys.size + 1)

    flat = uniform_prior(cfg.grid)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = RunLengthState(1, cys.size, cfg.grid)
    posterior = flat
    reports: list[PassReport] = []
    events: list[DetectionEvent] = []

    for idx, cy, fm in zip(pass_indices, cys[:, np.newaxis], fms):
        previous = posterior
        try:
            errors = state.advance(
                cy, fm, lik_cfg, cfg.lam, cfg.predictive_method, DEFAULT_PRUNE_THRESHOLD
            )
            if errors:
                raise MeasurementIncompatibleError(errors[0])
            posterior = state.full_run_posterior()
        except (MeasurementIncompatibleError, ValueError) as exc:
            raise DetectionError(f"pass {idx}: {exc}") from exc
        cp = float(state.weights[0, 0])
        mean, std = posterior_mean_std(posterior)
        reports.append(
            PassReport(
                pass_index=int(idx),
                cy_g_per_m2=float(cy[0]),
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
            state = RunLengthState(1, cys.size, cfg.grid)
            posterior = flat
            lik_cfg = LikelihoodConfig(cfg.sigma_e_initial * cfg.sigma_e_post_factor)
    return reports, events


def first_alarms(
    cys: np.ndarray, fm: ForwardModel, cfg: DetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """First alarm of each stream in a block of equal-length streams.

    Row i of ``cys`` is one stream. Returns the pass, counted from 1, at
    which ``detect_series(cys[i], fm, cfg)`` raises its first event, or 0
    where it raises none, and the changepoint probability at that pass,
    0.0 where there is none. The whole block advances in lockstep through
    the step ``detect_series`` uses, with the same arithmetic and the same
    checks; each stream leaves the block at its first alarm, so a pass
    after it is never processed and cannot fail.

    Raises ``DetectionError`` for the lowest-index stream that fails at or
    before its first alarm, with ``instance`` set to its row.
    """
    cys = np.asarray(cys, dtype=float)
    if cys.ndim != 2 or cys.shape[1] == 0:
        raise ValueError("need a 2-D block of non-empty streams")
    if np.any(cys < 0):
        raise ValueError("integrated concentration must be non-negative")
    n_streams, n_passes = cys.shape
    passes = np.zeros(n_streams, dtype=int)
    cps = np.zeros(n_streams)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = RunLengthState(n_streams, n_passes, cfg.grid)
    live = np.arange(n_streams)
    failures: dict[int, str] = {}
    for k in range(n_passes):
        try:
            errors = state.advance(
                cys[live, k], fm, lik_cfg, cfg.lam, cfg.predictive_method, DEFAULT_PRUNE_THRESHOLD
            )
        except ValueError as exc:
            # A configuration the core rejects fails every stream alike.
            failures.update(dict.fromkeys(live.tolist(), f"pass {k + 1}: {exc}"))
            break
        cp = state.weights[:, 0]
        failed = np.zeros(live.size, dtype=bool)
        for b, reason in errors.items():
            failures[int(live[b])] = f"pass {k + 1}: {reason}"
            failed[b] = True
        alarm = (cp >= cfg.threshold) & ~failed
        passes[live[alarm]] = k + 1
        cps[live[alarm]] = cp[alarm]
        keep = ~(alarm | failed)
        if not keep.all():
            live = live[keep]
            if live.size == 0:
                break
            state.select(keep)
    if failures:
        row = min(failures)
        raise DetectionError(failures[row], instance=row)
    return passes, cps
