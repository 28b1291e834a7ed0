"""Drive the package's rate posterior and run-length state directly.

Tests that check the recursion itself, rather than the loops in
``plumecpd.detector``, step ``bocd.RunLengthState`` with B = 1 through
``run_core``, in the blocks ``block_passes`` sizes for the detector's
drivers, with no alarm, and read back the normalized weights, the log
evidence and each hypothesis's closed-form rate row. ``posterior_of``
builds the rate posterior of a set of passes from the package's
conjugate terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from oracles import EmissionPosterior, MeasurementIncompatibleError, conjugate_posterior
from plumecpd.bocd import RunLengthState, block_passes, slot_counts
from plumecpd.inference import LikelihoodConfig, QGrid, conjugate_terms
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
    start: tuple[np.ndarray, ...] | None = None,
) -> CoreRun:
    """Advance one stream through ``RunLengthState.advance`` over ``cys``.

    The stream starts from the flat prior with run length 0, or from
    ``start``, a (weights, mode, log_mass) tuple indexed by run length as
    in ``CoreRun``, after as many passes of ``fm`` and ``cfg`` as it has
    run lengths less one: the state holds each run length's precision
    for those passes. An impossible measurement raises
    ``MeasurementIncompatibleError`` with the core's reason.
    """
    if start is None:
        state = RunLengthState(1, len(cys), grid, fm, cfg)
    else:
        weights, mode, log_mass = start
        k = weights.size - 1
        state = RunLengthState(1, k + len(cys), grid, fm, cfg)
        state.weights = np.array(weights, dtype=float)[np.newaxis]
        state.mode[0, : k + 1] = mode[::-1]
        state.log_mass[0, : k + 1] = log_mass[::-1]
    cys = np.array(cys, dtype=float).reshape(1, -1)
    start = 0
    while start < cys.shape[1]:
        block = cys[:, start : start + block_passes(1, state.k)]
        steps = state.advance(block, lam, math.inf)
        if steps.errors:
            raise MeasurementIncompatibleError(steps.errors[0])
        start += int(steps.done[0])
    return CoreRun(
        grid,
        state.weights[0].copy(),
        float(state.log_evidence[0]),
        slot_precision(state)[::-1],
        state.mode[0, state.k :: -1].copy(),
        state.log_mass[0, state.k :: -1].copy(),
    )


def slot_precision(state: RunLengthState) -> np.ndarray:
    """The precision A of slots 0 .. k of ``state``, read from its table
    by the passes each slot has taken."""
    return state.terms.precision[slot_counts(state.k, state.k + 1)]
