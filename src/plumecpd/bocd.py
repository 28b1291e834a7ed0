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

A hypothesis's (A, mode, log Z) and both predictives depend on the
measurements and the noise scale alone, never on the weights, so
``RunLengthState.advance`` computes them for a block of up to
``PASS_BLOCK`` passes at once and keeps only the O(k) weight recursion
pass by pass. Every value gets the arithmetic of a one-pass step, in the
same order, so a block leaves the bits of its passes taken one at a time.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple, Sequence, get_args

import numpy as np

from .inference import (
    HALF_LOG_2PI,
    LOG_MAX_FLOAT,
    NEGATIVE_CONCENTRATION,
    POSTERIOR_OVERFLOW,
    LikelihoodConfig,
    QGrid,
    closed_form_log_mass,
    conjugate_terms,
    window_log_mass,
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

# Passes one ``RunLengthState.advance`` call folds in. A stream's
# hypotheses are computed for the rest of its block after its alarm, work
# that is thrown away: on the benchmark's sweep_grid cells (28-pass
# instances), 8-pass blocks compute 7.6 % more hypothesis rows than the
# passes taken need, 28-pass blocks 43 %.
PASS_BLOCK = 8

IMPOSSIBLE = "observation impossible under all run-length hypotheses"


class Steps(NamedTuple):
    """What one ``RunLengthState.advance`` call did to each stream b.

    Stream b took the block's first ``done[b]`` passes and stopped at the
    last of them if it alarmed there (``alarm[b]``) or failed there
    (``errors[b]``, the reason). For j < ``done[b]``, ``cp[b, j]`` is its
    changepoint probability after pass j, and ``precision[j]``,
    ``mode[b, j]`` and ``log_mass[b, j]`` are its full-run row.
    """

    done: np.ndarray
    alarm: np.ndarray
    errors: dict[int, str]
    cp: np.ndarray
    precision: np.ndarray
    mode: np.ndarray
    log_mass: np.ndarray


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

    def advance(
        self,
        cys: np.ndarray,
        fms: Sequence[ForwardModel],
        cfg: LikelihoodConfig,
        lam: float,
        method: PredictiveMethod,
        prune_threshold: float,
        threshold: float,
    ) -> Steps:
        """Fold a block of passes, ``cys`` of shape (B, passes) with
        ``fms[j]`` the forward model of pass j, into the state.

        Each stream stops at its first alarm, a changepoint probability of
        at least ``threshold``, or at its first failure: a measurement
        impossible under every hypothesis, or a full-run density that
        overflows at the top of the grid. The state then holds the values
        after the last pass taken; a stream that stopped before it, or
        failed, is meaningless there and is dropped with ``select``.

        A pass whose configuration no stream can run ends the block before
        it; its ``ValueError`` is raised when it is the block's first pass.
        """
        if not lam > 1:
            raise ValueError("expected run length lambda must exceed 1")
        if method not in get_args(PredictiveMethod):
            raise ValueError(f"unknown predictive method {method!r}")
        grid, k0, sigma = self.grid, self.k, cfg.sigma_e
        n_streams, n_block = cys.shape
        # A pass the configuration rejects ends the block before it and is
        # raised as the block's first pass, its checks in this order.
        negative = (cys < 0).any(axis=0).tolist()
        ratios = []
        for p, fm in enumerate(fms):
            # r as forward_concentration(1.0, fm) computes it, and r / sigma
            # as conjugate_terms does.
            ratio = fm.dispersion_factor_per_m / fm.advection_velocity_mps
            scale = ratio / sigma
            if negative[p]:
                problem = NEGATIVE_CONCENTRATION
            elif not scale * scale < math.inf:
                problem = "forward ratio over sigma_e overflows the rate precision"
            elif method == "scaling" and fm.dispersion_factor_per_m <= 0:
                problem = "scaling predictive needs a positive dispersion factor"
            else:
                ratios.append(ratio)
                continue
            if p == 0:
                raise ValueError(problem)
            cys, fms, n_block = cys[:, :p], fms[:p], p
            break

        ratios = np.array(ratios)
        far = ~(cys <= ratios * grid.q_max + FAR_SIGMAS * sigma)
        used = np.where(far, ratios * grid.q_max, cys)
        a, b = conjugate_terms(used, fms, cfg)
        # Row p of these holds the state before pass p of the block, row
        # p + 1 after it; slots past k0 + p + 1 keep the flat prior.
        width = k0 + n_block + 1
        hypotheses = np.arange(width) <= k0 + 1 + np.arange(n_block)[:, np.newaxis]
        precision = np.add.accumulate(
            np.vstack([self.precision[:width], np.where(hypotheses, a[:, np.newaxis], 0.0)])
        )
        mode = np.empty((n_streams, n_block + 1, width))
        mode[:] = self.mode[:, np.newaxis, :width]
        copies = np.flatnonzero(a == 0).tolist()
        for p in range(n_block):
            if p in copies:
                # A forward ratio of 0: the pass says nothing about the rate.
                mode[:, p + 1] = mode[:, p]
                continue
            live = slice(0, k0 + p + 2)
            # (A mode + b) / A', in place
            after = np.multiply(precision[p, live], mode[:, p, live], out=mode[:, p + 1, live])
            after += b[:, p, np.newaxis]
            after /= precision[p + 1, live]
        fresh = hypotheses & (a > 0)[:, np.newaxis]
        if method == "scaling":
            inverses = np.array([fm.advection_velocity_mps / fm.dispersion_factor_per_m for fm in fms])

        # log Z of every hypothesis of every pass in one call, less the rows
        # of the exact windowed sum, whose bits depend on the rows summed
        # with them: a pass computes those for its running streams alone.
        log_mass = np.empty((n_streams, n_block + 1, width))
        log_mass[:, 0] = self.log_mass[:, :width]
        values, window = closed_form_log_mass(grid, precision[1:], mode[:, 1:])
        log_mass[:, 1:] = np.where(fresh, values, self.log_mass[:, np.newaxis, :width])
        window &= fresh
        for p in copies:
            log_mass[:, p + 1] = log_mass[:, p]
            if p:
                window[:, p] = window[:, p - 1]
        deferred = window.any(axis=(0, 2)).tolist()
        suspect = (log_mass[:, 1:, 0] < -LOG_MAX_FLOAT).any(axis=0).tolist()

        # Slots past a pass's hypotheses would hold 0 / 0; nothing reads them.
        half_shrink = np.divide(
            0.5 * precision[:-1], precision[1:], out=np.full((n_block, width), 0.5),
            where=precision[1:] > 0,
        )
        half_shrink[copies] = 0.5

        def predictive(rows, p, after):
            """Predictive densities of the streams ``rows`` at the passes
            ``p``, an index or a slice, whose states after them are ``after``."""
            old = np.s_[rows, p]
            if method == "marginal":
                pis = _marginal_density(
                    used[rows, p], ratios[p], sigma, mode[old], log_mass[old],
                    log_mass[rows, after], half_shrink[p],
                )
            else:
                pis = _scaled_density(
                    grid, used[rows, p], inverses[p], precision[p], mode[old], log_mass[old]
                )
            pis[far[rows, p]] = 0.0
            return pis

        pis = predictive(slice(None), slice(0, n_block), slice(1, n_block + 1))

        h = 1.0 / lam
        weights = self.weights
        running = np.arange(n_streams)
        done = np.full(n_streams, n_block)
        alarm = np.zeros(n_streams, dtype=bool)
        errors: dict[int, str] = {}
        cp = np.empty((n_streams, n_block))
        evidences = np.ones((n_streams, n_block))
        # ufunc reductions, not array methods: a pass's arrays are small
        # enough that the methods' Python wrappers cost more than the sums.
        add, least, most = np.add.reduce, np.minimum.reduce, np.fmax.reduce
        for p in range(n_block):
            k = k0 + p
            rows = running if running.size < n_streams else slice(None)
            if deferred[p]:
                if p in copies:
                    log_mass[rows, p + 1] = log_mass[rows, p]
                else:
                    todo = window[rows, p]
                    filled = log_mass[rows, p + 1]
                    filled[todo] = window_log_mass(
                        grid, np.broadcast_to(precision[p + 1], todo.shape)[todo],
                        mode[rows, p + 1][todo],
                    )
                    log_mass[rows, p + 1] = filled
            if deferred[p] or (p and deferred[p - 1]):
                pis[rows, p] = predictive(rows, p, p + 1)
            pis_p = pis[rows, p]

            unnormalized = np.empty((weights.shape[0], k + 2))
            np.multiply(h * pis_p[:, k + 1], add(weights, axis=1), out=unnormalized[:, 0])
            np.multiply(weights * (1.0 - h), pis_p[:, k::-1], out=unnormalized[:, 1:])
            evidence = add(unnormalized, axis=1)
            failed: dict[int, str] = {}
            # Scalar tests first: one stream's arrays are too small for a mask
            # to pay off, and a NaN fails them too.
            if not (least(evidence) > 0 and most(evidence) < math.inf):
                possible = (evidence > 0) & np.isfinite(evidence)
                failed = dict.fromkeys(np.flatnonzero(~possible).tolist(), IMPOSSIBLE)
                # Placeholders keep the failed streams' arithmetic below finite.
                unnormalized[~possible] = 1.0
                evidence[~possible] = 1.0
            weights = unnormalized / evidence[:, np.newaxis]
            weights[weights < prune_threshold] = 0.0
            weights /= add(weights, axis=1, keepdims=True)
            if suspect[p] or deferred[p]:
                for s in _top_overflows(
                    grid, precision[p + 1, 0], mode[rows, p + 1, 0], log_mass[rows, p + 1, 0]
                ):
                    failed.setdefault(s, POSTERIOR_OVERFLOW)
            evidences[rows, p] = evidence
            cp[rows, p] = changepoint = weights[:, 0]
            if failed or most(changepoint) >= threshold:
                stop = changepoint >= threshold
                stop[list(failed)] = True
                stopped = running[stop]
                done[stopped] = p + 1
                alarm[stopped] = True
                for s, reason in failed.items():
                    alarm[running[s]] = False
                    errors[int(running[s])] = reason
                running, weights = running[~stop], weights[~stop]
                if running.size == 0:
                    break
        taken = int(done.max())
        # One pass at a time, as the log evidence sums.
        self.log_evidence = np.add.accumulate(
            np.column_stack([self.log_evidence, np.log(evidences[:, :taken])]), axis=1
        )[:, -1]

        self.precision[:width] = precision[taken]
        self.mode[:, :width] = mode[:, taken]
        self.log_mass[:, :width] = log_mass[:, taken]
        if running.size < n_streams:
            kept = np.zeros((n_streams, k0 + taken + 1))
            kept[running] = weights
            weights = kept
        self.weights = weights
        return Steps(
            done,
            alarm,
            errors,
            cp[:, :taken],
            precision[1 : taken + 1, 0],
            mode[:, 1 : taken + 1, 0],
            log_mass[:, 1 : taken + 1, 0],
        )


def _marginal_density(cys, ratio, sigma, mode, log_mass, new_log_mass, half_shrink):
    """Marginal predictive density of each hypothesis; the last axis of the
    arrays runs over hypotheses, ``cys`` and ``ratio`` lack it."""
    z = (cys[..., np.newaxis] - np.asarray(ratio)[..., np.newaxis] * mode) / sigma
    log_pis = new_log_mass - log_mass - half_shrink * z * z
    return np.exp(log_pis - (math.log(sigma) + HALF_LOG_2PI))


def _scaled_density(grid, cys, ratio, precision, mode, log_mass) -> np.ndarray:
    """Change-of-variables predictive density of each hypothesis, shaped as
    in ``_marginal_density``.

    Each row is linearly interpolated at q* = cy ``ratio``, ratio = u / D,
    the rate its measurement maps back to. A q* outside the grid, or a row
    read that overflows, gives every hypothesis of the measurement density 0.
    """
    ratio = np.asarray(ratio)
    q_star = cys * ratio
    inside = (grid.q_min <= q_star) & (q_star <= grid.q_max)
    pos = np.where(inside, (q_star - grid.q_min) / grid.dq, 0.0)
    j0 = np.minimum(pos.astype(int), grid.n_points - 2)
    frac = (pos - j0)[..., np.newaxis]
    offset = grid.values[np.stack([j0, j0 + 1])][..., np.newaxis] - mode
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = np.exp(-0.5 * precision * offset * offset - log_mass)
        pis = (lo * (1.0 - frac) + hi * frac) * ratio[..., np.newaxis]
    pis[~(inside & np.isfinite(pis).all(axis=-1))] = 0.0
    return pis


def _top_overflows(grid: QGrid, precision: float, mode: np.ndarray, log_mass: np.ndarray) -> list[int]:
    """Streams whose full-run row, (A, mode, log Z) with the (streams,)
    arrays, has a density past the float range."""
    # A row's log density is at most -log Z, so only then can the
    # full-run row's peak, at the grid point nearest its mode, overflow.
    if not log_mass.min() < -LOG_MAX_FLOAT:
        return []
    at = np.rint((np.clip(mode, grid.q_min, grid.q_max) - grid.q_min) / grid.dq)
    offset = grid.values[at.astype(int)] - mode
    peak = -0.5 * precision * offset**2 - log_mass
    return np.flatnonzero(~(peak <= LOG_MAX_FLOAT)).tolist()
