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
step; the sum of the logs of the normalizers, the evidences
p(c_k | c_1..c_{k-1}), recovers the joint weights without underflow.

A rate row is a flat prior times Gaussian likelihoods of a linear forward
map, exp(-A (q - mode)^2 / 2) / Z on the grid (see ``inference``), so a
hypothesis is held as (A, mode, log Z), not as a row: a step is O(k)
scalar work and memory is O(k + n) for n grid points. A measurement c
with forward ratio r and noise sigma adds a = r^2 / sigma^2 to A and
moves the mode to the precision-weighted mean of it and c / r. The
marginal predictive of hypothesis j is

    pi_j = Z_j' / Z_j * exp(-(A_j / (A_j + a)) z_j^2 / 2) / (sigma sqrt(2 pi))

with z_j = (c - r mode_j) / sigma and Z_j' the Z of the updated row, which
hypothesis j + 1 stores next, so a step computes one log Z per
hypothesis. The scaling predictive reads each row at the two grid points
around q* = c / r. A row is built, in O(n), only for a report or event.
"""

from __future__ import annotations

import math
from typing import Literal, get_args

import numpy as np

from .inference import (
    HALF_LOG_2PI,
    LOG_MAX_FLOAT,
    POSTERIOR_OVERFLOW,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    conjugate_posterior,
    conjugate_terms,
    log_grid_mass,
)
from .transport import ForwardModel

DEFAULT_LAMBDA = 15.0
DEFAULT_PRUNE_THRESHOLD = 1e-12

PredictiveMethod = Literal["scaling", "marginal"]
DEFAULT_PREDICTIVE_METHOD: PredictiveMethod = "marginal"

# A measurement this many noise scales above every prediction on the grid
# has likelihood below exp(-1250) / (sigma sqrt(2 pi)), 0 for any sigma, so
# it is impossible under every hypothesis and kept out of the arithmetic.
FAR_SIGMAS = 50.0


class RunLengthState:
    """Run-length posteriors of B streams after k passes each.

    ``weights[b, i]`` is stream b's probability of run length i, (B, k + 1),
    and ``log_evidence[b]`` the sum of its log step evidences. Slot j of
    ``precision`` (A, shared: the streams' passes have the same forward
    models and noise), ``mode`` and ``log_mass`` (log Z), both
    (B, n_passes + 2), is run length k - j. Slot 0 is the full run, which a
    report summarizes; slots k + 1 on hold the flat prior (A = 0, mode 0,
    Z = q_max - q_min), so a step folds the pass into slots 0 .. k + 1.
    """

    def __init__(self, n_streams: int, n_passes: int, grid: QGrid) -> None:
        self.grid = grid
        self.precision = np.zeros(n_passes + 2)
        self.mode = np.zeros((n_streams, n_passes + 2))
        self.log_mass = np.full((n_streams, n_passes + 2), math.log(grid.q_max - grid.q_min))
        self.weights = np.ones((n_streams, 1))
        self.log_evidence = np.zeros(n_streams)

    @property
    def k(self) -> int:
        return self.weights.shape[1] - 1

    def select(self, keep: np.ndarray) -> None:
        """Keep only the streams where the boolean ``keep`` is true."""
        self.mode, self.log_mass = self.mode[keep], self.log_mass[keep]
        self.weights, self.log_evidence = self.weights[keep], self.log_evidence[keep]

    def full_run_posterior(self) -> EmissionPosterior:
        """The full-run rate posterior of the first stream, built in O(n)."""
        return conjugate_posterior(
            self.grid, self.precision[0], self.mode[0, 0], self.log_mass[0, 0]
        )

    def advance(
        self,
        cys: np.ndarray,
        fm: ForwardModel,
        cfg: LikelihoodConfig,
        lam: float,
        method: PredictiveMethod,
        prune_threshold: float,
    ) -> dict[int, str]:
        """Fold one measurement per stream, ``cys`` of shape (B,), into the state.

        Returns the reason for each stream whose measurement is impossible
        under every hypothesis, or whose full-run density overflows at the
        top of the grid; the new state of such a stream is meaningless.
        Raises ``ValueError`` for a configuration no stream can run.
        """
        if not lam > 1:
            raise ValueError("expected run length lambda must exceed 1")
        if method not in get_args(PredictiveMethod):
            raise ValueError(f"unknown predictive method {method!r}")
        grid, k = self.grid, self.k
        # r as forward_concentration(1.0, fm) computes it.
        ratio = fm.dispersion_factor_per_m / fm.advection_velocity_mps
        sigma = cfg.sigma_e
        far = ~(cys <= ratio * grid.q_max + FAR_SIGMAS * sigma)
        if far.any():
            cys = np.where(far, ratio * grid.q_max, cys)
        a, b = conjugate_terms(cys, fm, cfg)
        if not a < math.inf:
            raise ValueError("forward ratio over sigma_e overflows the rate precision")

        live = slice(0, k + 2)
        precision, mode, log_mass = self.precision[live], self.mode[:, live], self.log_mass[:, live]
        new_precision = precision + a
        if a > 0:
            new_mode = (precision * mode + b[:, np.newaxis]) / new_precision
            new_log_mass = log_grid_mass(grid, new_precision, new_mode)
            half_shrink = 0.5 * precision / new_precision
        else:
            # A forward ratio of 0: no pass says anything about the rate.
            new_mode, new_log_mass, half_shrink = mode, log_mass, 0.5
        if method == "marginal":
            z = (cys[:, np.newaxis] - ratio * mode) / sigma
            log_pis = new_log_mass - log_mass - half_shrink * z * z
            pis = np.exp(log_pis - (math.log(sigma) + HALF_LOG_2PI))
        else:
            pis = self._scaled_density(cys, fm, precision, mode, log_mass)
        pis[far] = 0.0

        h = 1.0 / lam
        unnormalized = np.empty((cys.size, k + 2))
        unnormalized[:, 0] = h * pis[:, k + 1] * self.weights.sum(axis=1)
        unnormalized[:, 1:] = self.weights * (1.0 - h) * pis[:, k::-1]
        evidence = unnormalized.sum(axis=1)
        errors: dict[int, str] = {}
        # Scalar tests first: one stream's arrays are too small for a mask
        # to pay off, and a NaN fails them too.
        if not (evidence.min() > 0 and evidence.max() < math.inf):
            possible = (evidence > 0) & np.isfinite(evidence)
            impossible = "observation impossible under all run-length hypotheses"
            errors = dict.fromkeys(np.flatnonzero(~possible).tolist(), impossible)
            # Placeholders keep the failed streams' arithmetic below finite.
            unnormalized[~possible] = 1.0
            evidence[~possible] = 1.0
        weights = unnormalized / evidence[:, np.newaxis]
        weights[weights < prune_threshold] = 0.0
        weights /= weights.sum(axis=1, keepdims=True)
        # A row's log density is at most -log Z, so only then can the
        # full-run row's peak, at the grid point nearest its mode, overflow.
        if new_log_mass[:, 0].min() < -LOG_MAX_FLOAT:
            at = np.rint((np.clip(new_mode[:, 0], grid.q_min, grid.q_max) - grid.q_min) / grid.dq)
            offset = grid.values[at.astype(int)] - new_mode[:, 0]
            peak = -0.5 * new_precision[0] * offset**2 - new_log_mass[:, 0]
            for s in np.flatnonzero(~(peak <= LOG_MAX_FLOAT)).tolist():
                errors.setdefault(s, POSTERIOR_OVERFLOW)

        self.precision[live] = new_precision
        self.mode[:, live] = new_mode
        self.log_mass[:, live] = new_log_mass
        self.weights = weights
        self.log_evidence += np.log(evidence)
        return errors

    def _scaled_density(self, cys, fm, precision, mode, log_mass) -> np.ndarray:
        """Change-of-variables predictive density of every hypothesis, (B, k + 2).

        Each row is linearly interpolated at q* = cy u / D, the rate its
        stream's measurement maps back to. A q* outside the grid, or a row
        read that overflows, gives every hypothesis of the stream density 0.
        """
        if fm.dispersion_factor_per_m <= 0:
            raise ValueError("scaling predictive needs a positive dispersion factor")
        ratio = fm.advection_velocity_mps / fm.dispersion_factor_per_m
        grid = self.grid
        q_star = cys * ratio
        inside = (grid.q_min <= q_star) & (q_star <= grid.q_max)
        pos = np.where(inside, (q_star - grid.q_min) / grid.dq, 0.0)
        j0 = np.minimum(pos.astype(int), grid.n_points - 2)
        frac = (pos - j0)[:, np.newaxis]
        offset = grid.values[np.stack([j0, j0 + 1])][..., np.newaxis] - mode
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = np.exp(-0.5 * precision * offset * offset - log_mass)
            pis = (lo * (1.0 - frac) + hi * frac) * ratio
        pis[~(inside & np.isfinite(pis).all(axis=1))] = 0.0
        return pis
