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
its one step, which takes a block of passes sized by
``bocd.block_passes`` (at least ``PASS_BLOCK``, more as the run since the
last reset grows), stops a stream at its first alarm or failure, and
also checks the full-run row.
``detect_series`` runs one stream to its end. It summarizes a block's
pass reports together from their full-run rows' (A, mode, log Z) with
``inference.summarize_rows``, which builds a row on the grid only where
the closed form cannot stand in for it, and raises the first failing
row's reason. It keeps the reports as columns, each block's arrays
appended as Python numbers, and returns them as one ``PassReports``. An
event keeps its row as (A, mode, log Z), unbuilt: the full-run row of
the pass before it, from its block or the block before, or the flat
prior at a state's first pass. A fresh state starts at the next pass.
``first_alarms`` serves Monte Carlo scoring, which needs only each
stream's first alarm: it advances a whole block of equal-length streams
in lockstep, never builds a row, drops a stream at its first alarm and
never takes the passes after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bocd import DEFAULT_LAMBDA, RunLengthState, block_passes
from .errors import DetectionError
from .inference import (
    DEFAULT_GRID,
    NEGATIVE_CONCENTRATION,
    LikelihoodConfig,
    QGrid,
    summarize_rows,
)
from .transport import ForwardModel

# The alarm threshold the command line uses when none is given, and the
# widening of sigma_e after the first detected change.
DEFAULT_THRESHOLD = 0.8
DEFAULT_SIGMA_E_POST_FACTOR = 10.0


@dataclass(frozen=True)
class DetectorConfig:
    threshold: float
    sigma_e_initial: float
    lam: float = DEFAULT_LAMBDA
    sigma_e_post_factor: float = DEFAULT_SIGMA_E_POST_FACTOR
    grid: QGrid = DEFAULT_GRID

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


@dataclass(frozen=True)
class DetectionEvent:
    """A threshold crossing, keeping the last pre-change rate posterior as
    its row (A, mode, log Z): the full-run row after the previous pass, or
    the flat prior (0, 0, log(q_max - q_min)) at the first pass after a
    reset."""

    pass_index: int
    changepoint_probability: float
    pre_change_row: tuple[float, float, float]
    regime_index: int


@dataclass(frozen=True)
class PassReport:
    pass_index: int
    cy_g_per_m2: float
    changepoint_probability: float
    mode_g_per_s: float
    mean_g_per_s: float
    std_g_per_s: float


@dataclass(frozen=True)
class PassReports:
    """The reports of a stream's passes as columns, one tuple of Python
    ints or floats per field of ``PassReport``, all of one length.

    It reads as a sequence of ``PassReport`` rows: ``len``, indexing and
    iteration give rows, built as they are read, and a slice gives the
    ``PassReports`` of its rows.
    """

    pass_index: tuple[int, ...]
    cy_g_per_m2: tuple[float, ...]
    changepoint_probability: tuple[float, ...]
    mode_g_per_s: tuple[float, ...]
    mean_g_per_s: tuple[float, ...]
    std_g_per_s: tuple[float, ...]

    def _columns(self) -> tuple[tuple, ...]:
        return tuple(vars(self).values())

    def __len__(self) -> int:
        return len(self.pass_index)

    def __getitem__(self, i: int | slice) -> PassReport | PassReports:
        columns = (column[i] for column in self._columns())
        return PassReports(*columns) if isinstance(i, slice) else PassReport(*columns)

    def __iter__(self) -> Iterator[PassReport]:
        return map(PassReport, *self._columns())


def detect_series(
    cys: Sequence[float],
    fm: ForwardModel,
    cfg: DetectorConfig,
    pass_indices: Sequence[int] | None = None,
) -> tuple[PassReports, list[DetectionEvent]]:
    """Run the detector over raw integrated concentrations, every pass
    with forward model ``fm``.

    Returns the reports of every pass, as columns, and the events in pass
    order. Any failure raises ``DetectionError`` naming the pass.
    """
    cys = np.asarray(cys, dtype=float)
    if cys.size == 0:
        raise ValueError("empty measurement stream")
    if pass_indices is None:
        pass_indices = range(1, cys.size + 1)
    elif len(pass_indices) != cys.size:
        raise ValueError("need one pass index per pass")

    grid = cfg.grid
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = None
    # Changepoint probability, mode, mean and std of each pass.
    columns: tuple[list[float], ...] = ([], [], [], [])
    events: list[DetectionEvent] = []

    # The passes before the first negative measurement run; that pass then
    # fails, unless one before it already has.
    negative = np.flatnonzero(cys < 0)
    n_run = int(negative[0]) if negative.size else cys.size
    start = 0
    while start < n_run:
        try:
            # A fresh state is built at the pass it starts from, which a
            # noise scale it rejects fails.
            if state is None:
                state = RunLengthState(1, cys.size, grid, fm, lik_cfg)
                # The full-run row before the block: the flat prior in a
                # fresh state, else the last row of the block before.
                before = (0.0, 0.0, math.log(grid.q_max - grid.q_min))
            stop = min(start + block_passes(1, state.k), n_run)
            steps = state.advance(cys[np.newaxis, start:stop], cfg.lam, cfg.threshold)
        except ValueError as exc:
            raise DetectionError(f"pass {pass_indices[start]}: {exc}") from exc
        done = int(steps.done[0])
        failure = steps.errors.get(0)
        cps = steps.cp[0].tolist()
        # A pass that failed has no row to report.
        built = done - 1 if failure is not None else done
        rows = steps.precision[:built], steps.mode[0, :built], steps.log_mass[0, :built]
        modes, means, stds, bad = summarize_rows(grid, *rows)
        if bad is not None:
            row, reason = bad
            raise DetectionError(f"pass {pass_indices[start + row]}: {reason}")
        for column, values in zip(columns, (cps, modes.tolist(), means.tolist(), stds.tolist())):
            column += values
        if failure is not None:
            raise DetectionError(f"pass {pass_indices[start + done - 1]}: {failure}")
        if steps.alarm[0]:
            events.append(
                DetectionEvent(
                    pass_index=int(pass_indices[start + done - 1]),
                    changepoint_probability=cps[done - 1],
                    pre_change_row=(
                        before if done == 1 else tuple(float(row[done - 2]) for row in rows)
                    ),
                    regime_index=len(events) + 1,
                )
            )
            # The triggering measurement is treated as the first of the
            # new regime and is not folded into the reset state.
            state = None
            lik_cfg = LikelihoodConfig(cfg.sigma_e_initial * cfg.sigma_e_post_factor)
        else:
            before = tuple(float(row[-1]) for row in rows)
        start += done
    if n_run < cys.size:
        raise DetectionError(f"pass {pass_indices[n_run]}: {NEGATIVE_CONCENTRATION}")
    reports = PassReports(
        tuple(map(int, pass_indices)), tuple(cys.tolist()), *map(tuple, columns)
    )
    return reports, events


def first_alarms(
    cys: np.ndarray, fm: ForwardModel, cfg: DetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """First alarm of each stream in a block of equal-length streams.

    Row i of ``cys`` is one stream. Returns the pass, counted from 1, at
    which ``detect_series(cys[i], fm, cfg)`` raises its first event, or 0
    where it raises none, and the changepoint probability at that pass,
    0.0 where there is none. The whole block advances in lockstep through
    the step ``detect_series`` uses, with the same checks, in blocks whose
    sizes may differ from its own, so a changepoint probability may differ
    in its last bits; each stream leaves the block at its first alarm, so a
    pass after it is never taken and cannot fail.

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
    state = None
    live = np.arange(n_streams)
    failures: dict[int, str] = {}
    start = 0
    while start < n_passes and live.size:
        try:
            if state is None:
                state = RunLengthState(n_streams, n_passes, cfg.grid, fm, lik_cfg)
            stop = min(start + block_passes(live.size, state.k), n_passes)
            steps = state.advance(cys[live, start:stop], cfg.lam, cfg.threshold)
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
