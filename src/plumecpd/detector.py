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
its one step, which takes up to ``PASS_BLOCK`` passes, stops a stream at
its first alarm or failure, and also checks the full-run row.
``detect_series`` runs one stream to its end, builds the full-run rows of
a block's pass reports together and, after an alarm, starts a fresh state
at the next pass. ``first_alarms`` serves Monte Carlo scoring, which needs
only each stream's first alarm: it advances a whole block of
equal-length streams in lockstep, never builds a row, drops a stream at
its first alarm and never takes the passes after it.
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
    PASS_BLOCK,
    PredictiveMethod,
    RunLengthState,
)
from .errors import DetectionError, MeasurementIncompatibleError
from .inference import (
    DEFAULT_GRID,
    NEGATIVE_CONCENTRATION,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    conjugate_densities,
    conjugate_posterior,
    row_moments,
    uniform_prior,
)
from .transport import ForwardModel

# Grid values a batch of report rows may hold: at most about 8 MiB an
# array, and one row at a time on a grid past 2^20 points.
REPORT_BATCH_POINTS = 2**20


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
    elif len(pass_indices) != cys.size:
        raise ValueError("need one pass index per pass")

    grid = cfg.grid
    rows_per_batch = max(1, REPORT_BATCH_POINTS // grid.n_points)
    flat = uniform_prior(grid)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = RunLengthState(1, cys.size, grid)
    # The full-run rows after the last pass taken and after the one before.
    previous = last = flat.density
    reports: list[PassReport] = []
    events: list[DetectionEvent] = []

    start = 0
    while start < cys.size:
        stop = min(start + PASS_BLOCK, cys.size)
        try:
            steps = state.advance(
                cys[np.newaxis, start:stop], fms[start:stop], lik_cfg, cfg.lam,
                cfg.predictive_method, DEFAULT_PRUNE_THRESHOLD, cfg.threshold,
            )
        except ValueError as exc:
            raise DetectionError(f"pass {pass_indices[start]}: {exc}") from exc
        done = int(steps.done[0])
        failure = steps.errors.get(0)
        cps = steps.cp[0].tolist()
        # A pass that failed has no row to report.
        built = done - 1 if failure is not None else done
        for lo in range(0, built, rows_per_batch):
            batch = slice(lo, min(lo + rows_per_batch, built))
            precision = steps.precision[batch]
            mode, log_mass = steps.mode[0, batch], steps.log_mass[0, batch]
            densities, good = conjugate_densities(grid, precision, mode, log_mass)
            if good < len(densities):
                try:  # raises the row's error
                    conjugate_posterior(grid, precision[good], mode[good], log_mass[good])
                except (MeasurementIncompatibleError, ValueError) as exc:
                    raise DetectionError(f"pass {pass_indices[start + lo + good]}: {exc}") from exc
            means, stds = row_moments(grid, densities)
            modes = grid.values[np.argmax(densities, axis=1)]
            for j, values in enumerate(zip(modes.tolist(), means.tolist(), stds.tolist()), lo):
                reports.append(
                    PassReport(int(pass_indices[start + j]), float(cys[start + j]), cps[j], *values)
                )
            previous, last = (densities[-2] if len(densities) > 1 else last), densities[-1]
        if failure is not None:
            raise DetectionError(f"pass {pass_indices[start + done - 1]}: {failure}")
        if steps.alarm[0]:
            events.append(
                DetectionEvent(
                    pass_index=int(pass_indices[start + done - 1]),
                    changepoint_probability=cps[done - 1],
                    pre_change_posterior=EmissionPosterior(grid, previous),
                    regime_index=len(events) + 1,
                )
            )
            # The triggering measurement is treated as the first of the
            # new regime and is not folded into the reset state.
            state = RunLengthState(1, cys.size, grid)
            last = flat.density
            lik_cfg = LikelihoodConfig(cfg.sigma_e_initial * cfg.sigma_e_post_factor)
        start += done
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
    after it is never taken and cannot fail.

    Raises ``DetectionError`` for the lowest-index stream that fails at or
    before its first alarm, with ``instance`` set to its row.
    """
    cys = np.asarray(cys, dtype=float)
    if cys.ndim != 2 or cys.shape[1] == 0:
        raise ValueError("need a 2-D block of non-empty streams")
    if np.any(cys < 0):
        raise ValueError(NEGATIVE_CONCENTRATION)
    n_streams, n_passes = cys.shape
    passes = np.zeros(n_streams, dtype=int)
    cps = np.zeros(n_streams)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = RunLengthState(n_streams, n_passes, cfg.grid)
    live = np.arange(n_streams)
    failures: dict[int, str] = {}
    start = 0
    while start < n_passes and live.size:
        stop = min(start + PASS_BLOCK, n_passes)
        try:
            steps = state.advance(
                cys[live, start:stop], [fm] * (stop - start), lik_cfg, cfg.lam,
                cfg.predictive_method, DEFAULT_PRUNE_THRESHOLD, cfg.threshold,
            )
        except ValueError as exc:
            # A configuration the core rejects fails every stream alike.
            failures.update(dict.fromkeys(live.tolist(), f"pass {start + 1}: {exc}"))
            break
        keep = ~steps.alarm
        for b, reason in steps.errors.items():
            failures[int(live[b])] = f"pass {start + steps.done[b]}: {reason}"
            keep[b] = False
        alarmed = np.flatnonzero(steps.alarm)
        passes[live[alarmed]] = start + steps.done[alarmed]
        cps[live[alarmed]] = steps.cp[alarmed, steps.done[alarmed] - 1]
        if not keep.all():
            live = live[keep]
            state.select(keep)
        start += steps.cp.shape[1]
    if failures:
        row = min(failures)
        raise DetectionError(failures[row], instance=row)
    return passes, cps
