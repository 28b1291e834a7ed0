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
    length's A, B / A and log Z. ``sums`` and ``errs``, indexed by pass
    count 0 .. k, are the stream's prefix sums of b and of their rounding
    errors, from which each mode is read as a window.
    """

    grid: QGrid
    weights: np.ndarray
    log_evidence: float
    precision: np.ndarray
    mode: np.ndarray
    log_mass: np.ndarray
    sums: np.ndarray
    errs: np.ndarray

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
    ``start``, a (weights, sums, errs, log_mass) tuple indexed as in
    ``CoreRun``, after as many passes of ``fm`` and ``cfg`` as it has run
    lengths less one: the state holds each run length's precision for
    those passes. An impossible measurement raises
    ``MeasurementIncompatibleError`` with the core's reason.
    """
    if start is None:
        state = RunLengthState(1, len(cys), grid, fm, cfg)
    else:
        weights, sums, errs, log_mass = start
        k = weights.size - 1
        state = RunLengthState(1, k + len(cys), grid, fm, cfg)
        state.weights = np.array(weights, dtype=float)[np.newaxis]
        state.sums[0, : k + 1] = sums
        state.errs[0, : k + 1] = errs
        state.log_mass[0, : k + 1] = log_mass[::-1]
    cys = np.array(cys, dtype=float).reshape(1, -1)
    start = 0
    while start < cys.shape[1]:
        block = cys[:, start : start + block_passes(1, state.k)]
        steps = state.advance(block, lam, math.inf)
        if steps.errors:
            raise MeasurementIncompatibleError(steps.errors[0])
        start += int(steps.done[0])
    k = state.k
    sums, errs = state.sums[0, : k + 1].copy(), state.errs[0, : k + 1].copy()
    counts = slot_counts(k, k + 1)
    precision = state.terms.precision[counts]
    # Slot s holds passes max(s, 1) .. k: its window of the prefix sums
    # over its precision, and 0 with no precision.
    starts = np.maximum(np.arange(k + 1) - 1, 0)
    window = (sums[k] - sums[starts]) + (errs[k] - errs[starts])
    mode = np.divide(window, precision, out=np.zeros(k + 1), where=precision > 0)
    return CoreRun(
        grid,
        state.weights[0].copy(),
        float(state.log_evidence[0]),
        precision[::-1],
        mode[::-1],
        state.log_mass[0, k::-1].copy(),
        sums,
        errs,
    )
