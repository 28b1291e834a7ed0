"""Drive the package's rate posterior and run-length state directly.

Tests that check the recursion itself, rather than the loops in
``plumecpd.detector``, step ``bocd.RunLengthState`` with B = 1 through
``run_core``, a block of ``PASS_BLOCK`` passes at a time with no alarm,
and read back the normalized weights, the log evidence and each
hypothesis's closed-form rate row. ``posterior_of`` builds the
package's rate posterior of a set of passes.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from plumecpd.bocd import DEFAULT_PRUNE_THRESHOLD, PASS_BLOCK, RunLengthState
from plumecpd.errors import MeasurementIncompatibleError
from plumecpd.inference import (
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    conjugate_posterior,
    conjugate_terms,
    log_grid_mass,
)
from plumecpd.transport import ForwardModel


def posterior_of(
    cys: Sequence[float], grid: QGrid, fm: ForwardModel, cfg: LikelihoodConfig
) -> EmissionPosterior:
    """The package's rate posterior after ``cys`` from the flat prior: the
    passes' conjugate terms summed, then the row built."""
    a, b = conjugate_terms(np.asarray(cys, dtype=float), fm, cfg)
    precision = a * len(cys)
    return conjugate_posterior(grid, precision, float(np.sum(b)) / precision)


class CoreRun(NamedTuple):
    """One stream after k passes, indexed by run length.

    ``weights`` is the run-length distribution, shape (k + 1,);
    ``log_evidence`` is the sum of the logs of the step evidences of the
    passes run; ``precision``, ``mode`` and ``log_mass`` are each run
    length's A, B / A and log Z.
    """

    grid: QGrid
    weights: np.ndarray
    log_evidence: float
    precision: np.ndarray
    mode: np.ndarray
    log_mass: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """Rate row of each run length, built by the package, (k + 1, n_points)."""
        return np.stack(
            [
                conjugate_posterior(self.grid, a, m, z).density
                for a, m, z in zip(self.precision, self.mode, self.log_mass)
            ]
        )


def run_core(
    cys: Sequence[float],
    fm: ForwardModel,
    cfg: LikelihoodConfig,
    lam: float,
    grid: QGrid,
    method: str = "marginal",
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    start: tuple[np.ndarray, ...] | None = None,
) -> CoreRun:
    """Advance one stream through ``RunLengthState.advance`` over ``cys``.

    The stream starts from ``start``, a (weights, precision, mode) or
    (weights, precision, mode, log_mass) tuple indexed by run length as in
    ``CoreRun``, with log Z from ``log_grid_mass`` when it is left out, or
    from the flat prior with run length 0. An impossible measurement raises
    ``MeasurementIncompatibleError`` with the core's reason.
    """
    if start is None:
        state = RunLengthState(1, len(cys), grid)
    else:
        weights, precision, mode = start[:3]
        log_mass = start[3] if len(start) > 3 else log_grid_mass(grid, precision, mode)
        k = weights.size - 1
        state = RunLengthState(1, k + len(cys), grid)
        state.weights = np.array(weights, dtype=float)[np.newaxis]
        state.precision[: k + 1] = precision[::-1]
        state.mode[0, : k + 1] = mode[::-1]
        state.log_mass[0, : k + 1] = log_mass[::-1]
    cys = np.array(cys, dtype=float).reshape(1, -1)
    start = 0
    while start < cys.shape[1]:
        block = cys[:, start : start + PASS_BLOCK]
        steps = state.advance(
            block, [fm] * block.shape[1], cfg, lam, method, prune_threshold, math.inf
        )
        if steps.errors:
            raise MeasurementIncompatibleError(steps.errors[0])
        start += int(steps.done[0])
    k = state.k
    return CoreRun(
        grid,
        state.weights[0].copy(),
        float(state.log_evidence[0]),
        state.precision[k::-1].copy(),
        state.mode[0, k::-1].copy(),
        state.log_mass[0, k::-1].copy(),
    )
