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

Both entry points keep the one array representation of ``bocd`` (a row
buffer, a spare buffer of the same shape and the run-length weights)
and advance it only through ``bocd.advance_rows``. ``detect_series``
runs one stream to its end, resetting in place at each alarm.
``first_alarms`` serves Monte Carlo scoring, which needs only each
stream's first alarm: it advances a block of equal-length streams in
lockstep batches, drops a stream from its batch at its first alarm and
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
    advance_rows,
    row_buffer_bytes,
)
from .errors import DetectionError, MeasurementIncompatibleError
from .inference import (
    DEFAULT_GRID,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    density_problems,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
)
from .transport import ForwardModel

# Budget for the two row buffers of one lockstep batch in ``first_alarms``.
# Batching amortizes the per-step numpy call overhead over the batch;
# beyond a few streams the arithmetic dominates, so a larger budget buys
# little speed for memory that grows with it.
BATCH_ROW_BYTES = 2 * 2**20


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

    grid = cfg.grid
    flat = uniform_prior(grid)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    rows = np.empty((1, cys.size + 1, grid.n_points))
    spare = np.empty_like(rows)
    rows[0, 0] = flat.density
    weights = np.ones((1, 1))
    posterior = flat
    reports: list[PassReport] = []
    events: list[DetectionEvent] = []

    for idx, cy, fm in zip(pass_indices, cys[:, np.newaxis], fms):
        previous = posterior
        try:
            weights, _, errors = advance_rows(
                rows,
                spare,
                weights,
                cy,
                grid,
                fm,
                lik_cfg,
                cfg.lam,
                cfg.predictive_method,
                DEFAULT_PRUNE_THRESHOLD,
            )
            if errors:
                raise MeasurementIncompatibleError(errors[0])
            # Buffer row 0 is the full-run row; building its posterior
            # validates its normalization.
            posterior = EmissionPosterior(grid, spare[0, 0])
        except (MeasurementIncompatibleError, ValueError) as exc:
            raise DetectionError(f"pass {idx}: {exc}") from exc
        rows, spare = spare, rows
        cp = float(weights[0, 0])
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
            rows[0, 0] = flat.density
            weights = np.ones((1, 1))
            posterior = flat
            lik_cfg = LikelihoodConfig(cfg.sigma_e_initial * cfg.sigma_e_post_factor)
    return reports, events


def batch_size(n_passes: int, n_points: int) -> int:
    """Streams per lockstep batch: as many as keep the batch's row buffers,
    ``row_buffer_bytes`` per stream, within ``BATCH_ROW_BYTES``, and at
    least one."""
    return max(1, int(BATCH_ROW_BYTES // row_buffer_bytes(n_passes, n_points)))


def first_alarms(
    cys: np.ndarray, fm: ForwardModel, cfg: DetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """First alarm of each stream in a block of equal-length streams.

    Row i of ``cys`` is one stream. Returns the pass, counted from 1, at
    which ``detect_series(cys[i], fm, cfg)`` raises its first event, or 0
    where it raises none, and the changepoint probability at that pass,
    0.0 where there is none. Streams advance in lockstep batches of
    ``batch_size`` rows through the core ``detect_series`` uses, with the
    same arithmetic and the same checks; each stream leaves its batch at
    its first alarm, so a pass after it is never processed and cannot
    fail.

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
    size = batch_size(n_passes, cfg.grid.n_points)
    for start in range(0, n_streams, size):
        stop = min(start + size, n_streams)
        failures = _run_batch(cys[start:stop], fm, cfg, passes[start:stop], cps[start:stop])
        if failures:
            row = min(failures)
            raise DetectionError(failures[row], instance=start + row)
    return passes, cps


def _run_batch(
    block: np.ndarray,
    fm: ForwardModel,
    cfg: DetectorConfig,
    passes: np.ndarray,
    cps: np.ndarray,
) -> dict[int, str]:
    """Advance one batch until each stream has alarmed or failed.

    Writes the alarms into ``passes`` and ``cps``; returns the failed
    streams' rows, each mapped to "pass p: reason".
    """
    grid = cfg.grid
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    n_rows, n_passes = block.shape
    rows = np.empty((n_rows, n_passes + 1, grid.n_points))
    spare = np.empty_like(rows)
    rows[:, 0] = 1.0 / (grid.q_max - grid.q_min)
    weights = np.ones((n_rows, 1))
    live = np.arange(n_rows)
    failures: dict[int, str] = {}
    for k in range(n_passes):
        try:
            weights, _, errors = advance_rows(
                rows,
                spare,
                weights,
                block[live, k],
                grid,
                fm,
                lik_cfg,
                cfg.lam,
                cfg.predictive_method,
                DEFAULT_PRUNE_THRESHOLD,
            )
        except ValueError as exc:
            # A configuration the core rejects fails every stream alike.
            failures.update((int(row), f"pass {k + 1}: {exc}") for row in live)
            break
        # Buffer row 0 is the full-run row, which a report would summarize.
        full_run = spare[:, 0]
        for b, reason in density_problems(grid, full_run).items():
            errors.setdefault(b, reason)
        cp = weights[:, 0]
        alarm = cp >= cfg.threshold
        failed = np.zeros(live.size, dtype=bool)
        for b, reason in errors.items():
            failures[int(live[b])] = f"pass {k + 1}: {reason}"
            failed[b] = True
        alarm &= ~failed
        passes[live[alarm]] = k + 1
        cps[live[alarm]] = cp[alarm]
        rows, spare = spare, rows
        keep = ~(alarm | failed)
        if not keep.all():
            live = live[keep]
            if live.size == 0:
                break
            rows[: live.size, : k + 2] = rows[keep, : k + 2]
            rows, spare = rows[: live.size], spare[: live.size]
            weights = weights[keep]
    return failures
