"""Drive the package's run-length core one stream at a time.

Tests that check the recursion itself, rather than the loops in
``plumecpd.detector``, step ``bocd.advance_rows`` with B = 1 through
``run_core`` and read back the normalized weights, the log evidence and
the rate rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from plumecpd.bocd import DEFAULT_PRUNE_THRESHOLD, advance_rows
from plumecpd.errors import MeasurementIncompatibleError
from plumecpd.inference import LikelihoodConfig, QGrid, uniform_prior
from plumecpd.transport import ForwardModel


class CoreRun(NamedTuple):
    """One stream after k passes.

    ``weights`` is the run-length distribution, shape (k + 1,);
    ``log_evidence`` is the sum of the logs of the step evidences of the
    passes run; ``rows[i]`` is the rate row of run length i.
    """

    weights: np.ndarray
    log_evidence: float
    rows: np.ndarray


def run_core(
    cys: Sequence[float],
    fm: ForwardModel,
    cfg: LikelihoodConfig,
    lam: float,
    grid: QGrid,
    method: str = "marginal",
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> CoreRun:
    """Advance one stream through ``advance_rows`` over ``cys``.

    The stream starts from ``start``, a (weights, rows) pair indexed by
    run length as in ``CoreRun``, or from the flat prior with run length
    0. Each step writes into the spare buffer and the two buffers swap,
    as ``plumecpd.detector`` does. An impossible measurement raises
    ``MeasurementIncompatibleError`` with the core's reason.
    """
    if start is None:
        start = (np.ones(1), uniform_prior(grid).density[np.newaxis])
    weights, start_rows = start
    k = weights.size - 1
    rows = np.empty((1, k + len(cys) + 1, grid.n_points))
    spare = np.empty_like(rows)
    rows[0, : k + 1] = start_rows[::-1]
    weights = weights[np.newaxis]
    log_evidence = 0.0
    for cy in cys:
        weights, step_evidence, errors = advance_rows(
            rows,
            spare,
            weights,
            np.array([cy], dtype=float),
            grid,
            fm,
            cfg,
            lam,
            method,
            prune_threshold,
        )
        if errors:
            raise MeasurementIncompatibleError(errors[0])
        log_evidence += math.log(step_evidence[0])
        rows, spare = spare, rows
    k = weights.shape[1] - 1
    return CoreRun(weights[0], log_evidence, rows[0, k::-1].copy())
