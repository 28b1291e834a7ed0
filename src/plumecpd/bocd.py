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
b = r c / sigma^2 to the row's sum B, and the mode is B / A. Every pass
adds the same a, so the hypothesis that opened at pass j has, after pass
k, the mode (b_j + ... + b_k) / A: a window of the stream's prefix sums
of b, which the state keeps with the running sum of their rounding
errors (TwoSum), so that a window is the compensated sum of its terms.
The marginal predictive of hypothesis j is

    pi_j = Z_j' / Z_j * exp(-(A_j / (A_j + a)) z_j^2 / 2) / (sigma sqrt(2 pi))

with z_j = (c - r mode_j) / sigma and Z_j' the Z of the updated row, which
hypothesis j + 1 stores next, so a step computes one log Z per
hypothesis. It is the exact posterior predictive of the model: a flat
prior and Gaussian noise. A row is built, in O(n), only for an event or a
report the closed form cannot summarize (``inference.summarize_rows``).

A hypothesis's (A, mode, log Z) and its predictive depend on the
measurements and the noise scale alone, never on the weights, so
``RunLengthState.advance`` computes them for a block of passes at once:
the prefix sums extended one pass after another, every mode as a window
of them, and each log Z and predictive from its own row, so that they
keep the bits of passes taken one at a time. ``block_passes`` sizes a
block: it grows with the run length k, so a call's fixed cost is spread
over more passes the longer a run lasts, up to a bound on the block's
hypothesis slots.

A state is built for one forward model and noise scale,
``RunLengthState(n_streams, n_passes, grid, fm, cfg)``, and every pass it
takes, ``advance(cys, lam, threshold)``, adds the same a to A. So A
depends only on how many passes a hypothesis has taken: the state holds it
as one table by pass count, with every term that depends on A alone (the
width, the interior log Z and its test, the edge path's coefficients and
the predictive's A / (2 A')), computed once per count when the state is
built, and a block reads them through each slot's count. A block's
hypothesis-sized arrays are views into one set of buffers that each
thread keeps between calls.

The weights of a block fold in closed form, with no pruning. A hypothesis
never leaves its slot, so after pass p its joint weight is the weight it
opened with times P[p, s], the product down its slot s of its growth
factors: (1 - h) pi a pass, h pi_fresh at the pass that opened it. Only
the totals S_p before each pass are coupled, as the slot pass q opens
starts from S_q; with w the weights before the block,

    S_{p+1} = sum_{j <= k0} w_j P[p, j] + sum_{q <= p} S_q P[p, k0 + 1 + q].

Scaling each pass by its largest predictive keeps every factor at most 1.
Forward substitution then gives the totals, one small product a pass, and
the changepoint probabilities h pi_fresh S_p / S_{p+1}, the evidences
S_{p+1} / S_p, first alarms and failures and the final weights come from
whole arrays. The solve must be causal: a dense solver's pivoting mixes
later passes into earlier ones, so a pass whose predictives are all 0
failed a pass before it. Forward substitution reads no later pass.
Changepoint probabilities agree with the one-pass recursion within 1e-12.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .inference import (
    HALF_LOG_2PI,
    LOG_MAX_FLOAT,
    POSTERIOR_NOT_FINITE,
    POSTERIOR_OVERFLOW,
    LikelihoodConfig,
    QGrid,
    conjugate_terms,
    log_mass_by_count,
    row_terms,
)
from .transport import ForwardModel

DEFAULT_LAMBDA = 15.0

# A measurement this many noise scales above every prediction on the grid
# has likelihood below exp(-1250) / (sigma sqrt(2 pi)), 0 for any sigma, so
# it is impossible under every hypothesis and kept out of the arithmetic.
FAR_SIGMAS = 50.0

# The fewest passes a ``RunLengthState.advance`` call folds in, unless
# fewer remain, and the hypothesis slots, streams x passes x (k + passes
# + 1), above which ``block_passes`` shrinks a longer block toward it. A
# stream's hypotheses are computed for the rest of its block after its
# alarm, work that is thrown away; since a block is at most as long as
# the run before it, past the minimum, that waste is at most the work
# since the last reset. On the benchmark's sweep_grid cells (28-pass
# instances), 8-pass blocks compute 7.6 % more hypothesis rows than the
# passes taken need, one 28-pass block 43 %.
PASS_BLOCK = 8
BLOCK_SLOTS = 2**14

IMPOSSIBLE = "observation impossible under all run-length hypotheses"


def block_passes(n_streams: int, k: int) -> int:
    """Passes n for the next block of ``n_streams`` streams, k passes
    after their last reset: k, but at least ``PASS_BLOCK``, and above that
    the most whose n_streams n (k + n + 1) hypothesis slots fit in
    ``BLOCK_SLOTS``. The caller cuts n to the passes left."""
    # The largest n with n (n + c) <= m solves the quadratic exactly in
    # integers: floor(sqrt(c^2 + 4 m)) - c, halved and floored.
    c, m = k + 1, BLOCK_SLOTS // n_streams
    fit = (math.isqrt(c * c + 4 * m) - c) // 2
    return max(PASS_BLOCK, min(k, fit))


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
    """Run-length posteriors of B streams after k passes each, every pass
    mapping a rate q to r q through the one forward model ``fm``, with
    noise ``cfg.sigma_e``.

    ``weights[b, i]`` is stream b's probability of run length i, (B, k + 1),
    and ``log_evidence[b]`` the sum of its log step evidences. Slot j of
    ``log_mass`` (log Z), (B, n_passes + 2), is run length k - j. Slot 0
    is the full run, which a report summarizes; slots k + 1 on hold the
    flat prior (A = 0, mode 0, Z = q_max - q_min), so a step folds the
    pass into slots 0 .. k + 1. ``sums[b, i]``, (B, n_passes + 1), is the
    sum of b over stream b's first i passes, added one after another, and
    ``errs[b, i]`` the sum of those additions' rounding errors. Slot j
    holds passes max(j, 1) .. k, so its mode is
    ((B_k - B_i) + (E_k - E_i)) / A with i = max(j - 1, 0), and 0 in a slot
    with no pass.

    Every pass adds the same a = r^2 / sigma_e^2 to the precision A, so a
    slot's A depends only on the passes it has taken, which
    ``slot_counts`` gives: ``terms.precision[c]`` is c copies of a summed
    one after another, the bits of a slot that took c passes. ``terms``
    (``inference.RowTerms``) and ``half_shrink[c]``, the predictive's
    A / (2 A') for a slot that takes its pass c + 1, hold each term that
    depends on A alone once per pass count, for counts 0 .. n_passes; a
    count whose A passes the float range holds NaN. ``divisor[c]``, what a
    slot's window of prefix sums is divided by for its mode, is A but +inf
    at count 0, a slot with no pass.

    A precision r^2 / sigma_e^2 that overflows raises ``ValueError``.
    """

    def __init__(
        self, n_streams: int, n_passes: int, grid: QGrid, fm: ForwardModel, cfg: LikelihoodConfig
    ) -> None:
        scale = fm.ratio / cfg.sigma_e
        if not scale * scale < math.inf:
            raise ValueError("forward ratio over sigma_e overflows the rate precision")
        self.grid, self.fm, self.cfg = grid, fm, cfg
        a = scale * scale
        increments = np.full(n_passes + 1, a)
        increments[0] = 0.0
        with np.errstate(over="ignore"):
            precision = np.add.accumulate(increments)
        # A count whose precision overflows holds NaN, which every term of
        # the count and the mode of a row that reaches it carry.
        precision[precision == math.inf] = math.nan
        precision.setflags(write=False)
        self.terms = row_terms(grid, precision)
        self.divisor = precision.copy()
        self.divisor[0] = math.inf
        # Where no pass adds precision, every slot keeps its row and the
        # factor is the flat one's 1/2.
        self.half_shrink = np.full(n_passes, 0.5)
        if a > 0:
            np.divide(0.5 * precision[:-1], precision[1:], out=self.half_shrink)
        self.sums = np.zeros((n_streams, n_passes + 1))
        self.errs = np.zeros((n_streams, n_passes + 1))
        self.log_mass = np.full((n_streams, n_passes + 2), math.log(grid.q_max - grid.q_min))
        self.weights = np.ones((n_streams, 1))
        self.log_evidence = np.zeros(n_streams)

    @property
    def k(self) -> int:
        return self.weights.shape[1] - 1

    def select(self, keep: np.ndarray) -> None:
        """Keep only the streams where the boolean ``keep`` is true."""
        self.sums, self.errs, self.log_mass = self.sums[keep], self.errs[keep], self.log_mass[keep]
        self.weights, self.log_evidence = self.weights[keep], self.log_evidence[keep]

    def advance(self, cys: np.ndarray, lam: float, threshold: float) -> Steps:
        """Fold a block of passes, ``cys`` of shape (B, passes), into the
        state.

        Each stream stops at its first alarm, a changepoint probability of
        at least ``threshold``, or at its first failure: a measurement
        impossible under every hypothesis, a full-run row whose A or prefix
        sum passes the float range, so that its mode or log Z is not finite
        (``POSTERIOR_NOT_FINITE``, whatever the pass's predictive), or a
        full-run density that overflows at the top of the grid. The state
        then holds the values after the last pass taken; a stream that
        stopped before it, or failed, is meaningless there and is dropped
        with ``select``.

        Arguments no stream can run raise ``ValueError`` before any pass is
        taken, checked once for the whole block in this order: ``lam`` not
        above 1, and a negative measurement anywhere in the block. A
        caller that must fail a negative measurement at its own pass ends
        the block before it.

        The block's hypothesis-sized arrays are views into buffers the
        calling thread reuses (``_block_arrays``); what the call returns
        or keeps is copied out of them.
        """
        if not lam > 1:
            raise ValueError("expected run length lambda must exceed 1")
        grid, k0, sigma, terms = self.grid, self.k, self.cfg.sigma_e, self.terms
        n_streams, n_block = cys.shape
        ratio = self.fm.ratio

        far = ~(cys <= ratio * grid.q_max + FAR_SIGMAS * sigma)
        used = np.where(far, ratio * grid.q_max, cys)
        a, b = conjugate_terms(used, self.fm, self.cfg)  # raises on a negative measurement
        # Row p of these holds the state before pass p of the block, row
        # p + 1 after it; slots past k0 + p + 1 keep the flat prior.
        width = k0 + n_block + 1
        hypotheses = np.arange(width) <= k0 + 1 + np.arange(n_block)[:, np.newaxis]
        counts = slot_counts(k0 + np.arange(n_block + 1), width)
        mode, log_mass, pis, spare, products = _block_arrays(n_streams, n_block, width)
        sums, errs = self._extend_sums(k0, b)
        # Every mode of the block is a window of the prefix sums over its
        # count's divisor: slot s after k passes holds passes max(s, 1) .. k.
        # The slot a pass opens has the window 0 and the divisor +inf, so
        # the flat prior's mode 0; a slot not yet opened gets ±0 or NaN,
        # which its flat log Z and zeroed predictive never read. Every slot
        # under a forward ratio of 0, which says nothing about the rate,
        # keeps the mode 0; a window past an overflowed B is NaN. The log Z
        # buffer holds the windows' error terms until log Z is taken.
        if a > 0:
            starts = np.maximum(np.arange(width) - 1, 0)
            with np.errstate(invalid="ignore"):
                np.subtract(sums[:, :, np.newaxis], self.sums[:, np.newaxis, starts], out=mode)
                mode += np.subtract(
                    errs[:, :, np.newaxis], self.errs[:, np.newaxis, starts], out=log_mass
                )
                np.divide(mode, self.divisor[counts], out=mode)
        else:
            mode.fill(0.0)

        # log Z of every hypothesis of every pass, in one call, written into
        # a contiguous buffer first. Each entry depends on its own row
        # alone, so with a forward ratio of 0 every pass repeats the values
        # before it, and slots past a pass's hypotheses, flat rows, hold the
        # state's exact log(q_max - q_min).
        log_mass_by_count(grid, terms, counts[1:], mode[:, 1:], out=spare, scratch=pis)
        # A full-run row past the float range, its mode NaN, has no log Z,
        # so the pass into it has a predictive that is not finite.
        full = spare[:, :, 0]
        full[np.isnan(mode[:, 1:, 0])] = np.nan
        log_mass[:, 0] = self.log_mass[:, :width]
        log_mass[:, 1:] = spare

        # Slots past a pass's hypotheses get the factor of a slot opened
        # at it; nothing reads them.
        _marginal_density(
            used,
            ratio,
            sigma,
            mode[:, :-1],
            log_mass[:, :-1],
            log_mass[:, 1:],
            self.half_shrink[counts[:-1]],
            out=(pis, spare),
        )

        # The fold, with every pass scaled by its largest predictive. A
        # growth factor is 1 in a slot the pass has not opened yet, and 0 on
        # a pass whose predictives give no scale (all 0, or one not
        # finite): that pass fails its stream and zeroes it from there on.
        h = 1.0 / lam
        steps = np.arange(n_block)
        opened = k0 + 1 + steps
        unopened = ~hypotheses
        np.copyto(pis, 0.0, where=unopened)
        pis[far] = 0.0
        most = pis.max(axis=2)
        scaled = (most > 0) & (most < math.inf)
        unit = np.where(scaled, most, 1.0)
        # pis / unit * hazard + unopened, in place: the hazard is 1 - h in
        # a slot the stream has opened, h in the one the pass opens.
        growth = pis
        growth /= unit[..., np.newaxis]
        fresh = growth[:, steps, opened]
        growth *= 1.0 - h
        growth[:, steps, opened] = fresh * h
        np.copyto(growth, 1.0, where=unopened)
        growth[~scaled] = 0.0
        np.multiply.accumulate(growth, axis=1, out=products)
        # origin[:, s] is the weight slot s opens with: the state's weight,
        # or for the slot pass q opens, the total before that pass. Column
        # k0 + 1 + q holds that total, S_q, so each total is the product of
        # the columns before it with that pass's slot products.
        origin = np.empty((n_streams, width + 1))
        origin[:, : k0 + 1] = self.weights[:, ::-1]
        origin[:, k0 + 1] = np.add.reduce(self.weights, axis=1)
        for p in range(n_block):
            j = k0 + 2 + p
            np.matmul(
                products[:, p, np.newaxis, :j], origin[:, :j, np.newaxis],
                out=origin[:, np.newaxis, j : j + 1],
            )
        before, after = origin[:, k0 + 1 : -1], origin[:, k0 + 2 :]
        cp = np.divide(
            growth[:, steps, opened] * before, after, out=np.zeros(after.shape), where=after > 0
        )
        evidences = np.divide(after, before, out=np.zeros(after.shape), where=before > 0) * unit
        impossible = ~((evidences > 0) & (evidences < math.inf))
        full_run = terms.precision[k0 + 1 : k0 + n_block + 1]
        row_mode, row_log_mass = mode[:, 1:, 0], log_mass[:, 1:, 0]
        not_finite = ~(np.isfinite(row_mode) & np.isfinite(row_log_mass))
        failure = (
            impossible | not_finite | _top_overflows(grid, full_run, row_mode, row_log_mass)
        )
        hit = failure | (cp >= threshold)
        first = hit.argmax(axis=1)
        at = np.arange(n_streams), first
        stopped = hit[at]
        done = np.where(stopped, first + 1, n_block)
        failed = stopped & failure[at]
        alarm = stopped & ~failed
        errors = {
            b: (
                POSTERIOR_NOT_FINITE if not_finite[b, first[b]]
                else IMPOSSIBLE if impossible[b, first[b]]
                else POSTERIOR_OVERFLOW
            )
            for b in np.flatnonzero(failed).tolist()
        }

        taken = int(done.max())
        logs = np.log(
            evidences[:, :taken], out=np.zeros((n_streams, taken)), where=evidences[:, :taken] > 0
        )
        self.log_evidence = self.log_evidence + np.add.reduce(logs, axis=1)
        slots = k0 + 1 + taken
        total = after[:, taken - 1, np.newaxis]
        weights = origin[:, slots - 1 :: -1] * products[:, taken - 1, slots - 1 :: -1]
        self.weights = np.divide(weights, total, out=np.zeros(weights.shape), where=total > 0)
        self.log_mass[:, :width] = log_mass[:, taken]
        return Steps(
            done,
            alarm,
            errors,
            cp[:, :taken],
            full_run[:taken],
            mode[:, 1 : taken + 1, 0].copy(),
            log_mass[:, 1 : taken + 1, 0].copy(),
        )

    def _extend_sums(self, k0: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Extend each stream's prefix sums B, and the running sums E of
        their rounding errors, over the block's terms ``b``, (B, passes),
        from those after pass k0; return views of both after passes
        k0 .. k0 + passes.

        B is summed one term after another, so a block's partition changes
        no bit of it, and each addition's exact error comes from its own
        pair (B_{i-1}, b_i) by TwoSum (Knuth; Ogita, Rump and Oishi 2005).
        Past the float range B is inf and E NaN, which the modes carry.
        """
        stop = k0 + b.shape[1] + 1
        sums, errs = self.sums[:, k0:stop], self.errs[:, k0:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            sums[:, 1:] = b
            np.add.accumulate(sums, axis=1, out=sums)
            before, after = sums[:, :-1], sums[:, 1:]
            # after - before is the part of b_i the sum took; what each of
            # before and b_i lost in the rounding is the error.
            taken = after - before
            lost = np.subtract(before, after - taken, out=errs[:, 1:])
            lost += b - taken
        np.add.accumulate(errs, axis=1, out=errs)
        return sums, errs


def slot_counts(k, width: int) -> np.ndarray:
    """Passes taken by slots 0 .. width - 1 of a state after k passes, for
    each entry of the integer array ``k``, along a new last axis: k in
    slots 0 and 1, which both hold every pass, k + 1 - s in slot s up to
    k + 1, and 0 past it."""
    return np.maximum(np.asarray(k)[..., np.newaxis] + 1 - np.maximum(np.arange(width), 1), 0)


# The block arrays of each thread, kept between ``advance`` calls.
_held = threading.local()


def _block_arrays(n_streams: int, n_block: int, width: int) -> tuple[np.ndarray, ...]:
    """Five arrays for a block: two of shape (n_streams, n_block + 1,
    width), a state before and after each pass, then three of shape
    (n_streams, n_block, width).

    They are views into one array the calling thread keeps for its next
    block, so a block allocates none of them. A block within
    ``BLOCK_SLOTS`` needs at most 7 ``BLOCK_SLOTS`` values, and only such
    blocks use the kept array; a larger one, which ``block_passes`` gives
    only at the ``PASS_BLOCK`` minimum, allocates its own.
    """
    shapes = [(n_streams, n_block + 1, width)] * 2 + [(n_streams, n_block, width)] * 3
    sizes = [math.prod(shape) for shape in shapes]
    if sizes[-1] > BLOCK_SLOTS:
        flat = np.empty(sum(sizes))
    else:
        flat = getattr(_held, "flat", None)
        if flat is None or flat.size < sum(sizes):
            flat = _held.flat = np.empty(max(sum(sizes), 7 * BLOCK_SLOTS))
    arrays, lo = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(flat[lo : lo + size].reshape(shape))
        lo += size
    return tuple(arrays)


def _marginal_density(cys, ratio, sigma, mode, log_mass, new_log_mass, half_shrink, out):
    """Marginal predictive density of each hypothesis; the last axis of the
    arrays runs over hypotheses, ``cys`` lacks it. ``out``, two arrays
    shaped like ``mode``, takes the densities in its first and is
    overwritten in its second."""
    pis, spare = out
    # z = (cys - ratio mode) / sigma, in place
    z = np.multiply(ratio, mode, out=pis)
    np.subtract(cys[..., np.newaxis], z, out=z)
    z /= sigma
    # new_log_mass - log_mass - half_shrink z z - log(sigma sqrt(2 pi)), in place
    shrink = np.multiply(half_shrink, z, out=spare)
    shrink *= z
    log_pis = np.subtract(new_log_mass, log_mass, out=pis)
    log_pis -= shrink
    log_pis -= math.log(sigma) + HALF_LOG_2PI
    # A density past the float range is inf, which fails its pass.
    with np.errstate(over="ignore"):
        return np.exp(log_pis, out=log_pis)


def _top_overflows(grid: QGrid, precision: np.ndarray, mode: np.ndarray, log_mass: np.ndarray) -> np.ndarray:
    """Mask of the full-run rows, (A, mode, log Z) with A broadcast against
    the others, whose density passes the float range."""
    # A row's log density is at most -log Z, so only then can the
    # full-run row's peak, at the grid point nearest its mode, overflow.
    suspect = log_mass < -LOG_MAX_FLOAT
    if not suspect.any():
        return suspect
    # Only a suspect row's mode is cast to an index: another's may be NaN.
    mode = np.where(suspect, mode, grid.q_min)
    at = np.rint((np.clip(mode, grid.q_min, grid.q_max) - grid.q_min) / grid.dq)
    offset = grid.values[at.astype(int)] - mode
    peak = -0.5 * precision * offset**2 - log_mass
    return suspect & ~(peak <= LOG_MAX_FLOAT)
