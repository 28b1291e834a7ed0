"""Online changepoint detection over the stream of pass measurements.

The detector tracks a posterior over the run length r_k, the number of
passes since the last emission-rate change. Each run-length hypothesis i
carries its own rate posterior; a change at pass k means measurement k
opens a new segment, so hypothesis 0 conditions on that measurement
alone and hypothesis i on the newest i + 1 measurements.

Processing measurement k multiplies every hypothesis weight by the
probability it assigns the new measurement and by the hazard transition:

    grow:   alpha_k(i) = alpha_{k-1}(i-1) * (1 - 1/lambda) * pi_{i-1}
    change: alpha_k(0) = sum_j alpha_{k-1}(j) * (1/lambda) * pi_fresh

where pi_j is the predictive probability of the measurement under run
hypothesis j and pi_fresh is its predictive under the flat prior, the
rate posterior a new segment starts from. Weights are renormalized every
step, and each step returns its normalizer, the evidence
p(c_k | c_1..c_{k-1}); the sum of their logs recovers the joint weights
without underflow.

The Gaussian likelihood vector over the rate grid is evaluated exactly
once per step and shared by every hypothesis update, which keeps the
per-step cost one vectorized sweep regardless of the hypothesis count.

The rate rows are stored newest last: buffer row j holds run length
k - j. A step maps run length i to i + 1 and keeps each row's index, so
it multiplies the rows by the likelihood into a second buffer of the
same size, renormalizes them there in place and appends the fresh
run-length-0 row; nothing is shifted or reallocated.

One representation serves every caller: rows of shape
(B, n_passes + 1, n_points), a spare buffer of the same shape and
weights of shape (B, k + 1), for B streams with the same k, grid and
forward model. ``advance_rows`` advances them by one measurement each,
and the caller swaps the two buffers. It has two callers in
``detector``: ``detect_series`` runs one stream (B = 1) to its end with
resets and reports, and ``first_alarms`` runs lockstep batches of
equal-length streams until each one's first alarm. Both get the same
bits for a stream, since every operation acts on each stream's slice
alone and in the same order.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .inference import (
    NORM_FLOOR,
    LikelihoodConfig,
    QGrid,
    likelihood_vector,
    log_space_update,
)
from .transport import ForwardModel

DEFAULT_LAMBDA = 15.0
DEFAULT_PRUNE_THRESHOLD = 1e-12

PredictiveMethod = Literal["scaling", "marginal"]
DEFAULT_PREDICTIVE_METHOD: PredictiveMethod = "marginal"


def _scaling_ratio(fm: ForwardModel) -> float:
    if fm.dispersion_factor_per_m <= 0:
        raise ValueError("scaling predictive needs a positive dispersion factor")
    return fm.advection_velocity_mps / fm.dispersion_factor_per_m


def _scaled_density_at(densities: np.ndarray, grid: QGrid, cys: np.ndarray, fm: ForwardModel):
    """Change-of-variables predictive density of B streams' posterior rows.

    ``densities`` has shape (B, R, n_points) and ``cys`` shape (B,). Stream
    b's measurement maps back to a rate q* = cy * u / D, where each of its
    R rows is linearly interpolated along the last axis; the result has
    shape (B, R). Measurements mapping outside the grid have probability
    zero.
    """
    ratio = _scaling_ratio(fm)
    # A measurement whose rate overflows to inf lies outside the grid.
    with np.errstate(over="ignore"):
        q_star = cys * ratio
        inside = (grid.q_min <= q_star) & (q_star <= grid.q_max)
        pos = np.where(inside, (q_star - grid.q_min) / grid.dq, 0.0)
    j0 = np.minimum(pos.astype(int), grid.n_points - 2)
    frac = (pos - j0)[:, np.newaxis]
    at = j0[:, np.newaxis, np.newaxis]
    lo = np.take_along_axis(densities, at, axis=2)[..., 0]
    hi = np.take_along_axis(densities, at + 1, axis=2)[..., 0]
    return np.where(inside[:, np.newaxis], (lo * (1.0 - frac) + hi * frac) * ratio, 0.0)


def row_buffer_bytes(n_passes: int, n_points: float) -> float:
    """Bytes of the two row buffers of one stream of ``n_passes`` passes
    on a grid of ``n_points`` rates: 2 x (n_passes + 1) x n_points doubles."""
    return 2.0 * (n_passes + 1) * n_points * 8


def advance_rows(
    rows: np.ndarray,
    spare: np.ndarray,
    weights: np.ndarray,
    cys: np.ndarray,
    grid: QGrid,
    fm: ForwardModel,
    cfg: LikelihoodConfig,
    lam: float,
    method: PredictiveMethod,
    prune_threshold: float,
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Advance B run-length posteriors after k passes by one measurement each.

    ``weights`` has shape (B, k + 1), ``cys`` shape (B,), and ``rows[b, j]``
    is stream b's rate row for run length k - j. The new rows go to
    ``spare[:, : k + 2]``, with the same layout one run length later; the
    old rows stay intact, for the log-space and scaling paths here and for
    a caller whose step fails.

    Returns the new weights, shape (B, k + 2), the step evidences
    p(c | earlier measurements), shape (B,), and the reason for each
    stream whose measurement is impossible; the new rows and weights of
    such a stream are meaningless. A row whose product with the
    likelihood underflows on the whole grid, or whose grid norm is
    subnormal, is renormalized in log space. If even that is empty, the
    row is set flat when its hypothesis carries no weight, and a live
    hypothesis fails its stream.
    """
    if not lam > 1:
        raise ValueError("expected run length lambda must exceed 1")
    k = weights.shape[1] - 1
    likelihood = likelihood_vector(cys, grid, fm, cfg)
    h = 1.0 / lam
    flat = 1.0 / (grid.q_max - grid.q_min)

    old = rows[:, : k + 1]
    weighted = np.multiply(old, likelihood[:, np.newaxis], out=spare[:, : k + 1])
    norms = weighted[:, :, :-1].sum(axis=2) * grid.dq
    lik_mass = likelihood[:, :-1].sum(axis=1) * grid.dq

    if method == "marginal":
        pis = norms[:, ::-1]
        pi_fresh = flat * lik_mass
    elif method == "scaling":
        pis = _scaled_density_at(old, grid, cys, fm)[:, ::-1]
        ratio = _scaling_ratio(fm)
        with np.errstate(over="ignore"):
            q_star = cys * ratio
        pi_fresh = np.where((grid.q_min <= q_star) & (q_star <= grid.q_max), flat * ratio, 0.0)
    else:
        raise ValueError(f"unknown predictive method {method!r}")

    total_weight = weights.sum(axis=1)
    unnormalized = np.empty((weights.shape[0], k + 2))
    unnormalized[:, 0] = h * pi_fresh * total_weight
    unnormalized[:, 1:] = weights * (1.0 - h) * pis
    step_evidence = unnormalized.sum(axis=1)
    errors: dict[int, str] = {}
    # Scalar tests first: one stream's arrays are too small for a mask
    # to pay off, and a NaN fails them too.
    if not (step_evidence.min() > 0 and step_evidence.max() < math.inf):
        possible = (step_evidence > 0) & np.isfinite(step_evidence)
        for b in np.flatnonzero(~possible):
            errors[int(b)] = "observation impossible under all run-length hypotheses"
        # Placeholders keep the failed streams' arithmetic below finite.
        unnormalized[~possible] = 1.0
        step_evidence[~possible] = 1.0
    new_weights = unnormalized / step_evidence[:, np.newaxis]

    new_weights[new_weights < prune_threshold] = 0.0
    new_weights /= new_weights.sum(axis=1, keepdims=True)

    if norms.min() >= NORM_FLOOR:
        weighted /= norms[:, :, np.newaxis]
    else:
        good = norms >= NORM_FLOOR
        weighted[good] /= norms[good][:, np.newaxis]
        for b, j in zip(*np.nonzero(~good)):
            b = int(b)
            if b in errors:
                continue
            revived = log_space_update(grid, old[b, j], likelihood[b])
            if revived is not None:
                weighted[b, j] = revived
            elif new_weights[b, k + 1 - j] > 0:
                errors[b] = "measurement incompatible with the rate grid support"
            else:
                weighted[b, j] = flat
    # The new segment starts at this measurement, so row 0 conditions on it.
    if lik_mass.min() > 0:
        spare[:, k + 1] = likelihood / lik_mass[:, np.newaxis]
    else:
        fresh = lik_mass > 0
        spare[:, k + 1] = flat
        spare[fresh, k + 1] = likelihood[fresh] / lik_mass[fresh, np.newaxis]
    return new_weights, step_evidence, errors
