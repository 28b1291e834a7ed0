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
step; the running product of the normalizers is kept in log space so the
joint weights stay recoverable without underflow.

The Gaussian likelihood vector over the rate grid is evaluated exactly
once per step and shared by every hypothesis update, which keeps the
per-step cost one vectorized sweep regardless of the hypothesis count.

The rate rows are stored newest last: buffer row j holds run length
k - j. A step maps run length i to i + 1 and keeps each row's index, so
it multiplies the rows by the likelihood into a second buffer of the
same capacity, renormalizes them there in place and appends the fresh
run-length-0 row; nothing is shifted or reallocated.

One private core, ``_advance_rows``, does this arithmetic for B streams
at once: rows of shape (B, k + 1, n_points), weights of shape (B, k + 1)
and B measurements, all with the same k, grid and forward model. It has
two callers. ``bocd_step`` advances one ``RunLengthState`` with B = 1;
the state keeps its rows in a buffer that doubles its capacity when
full, and the result owns both buffers, so ``bocd_step`` consumes its
input state, and the consumed state refuses to be read or stepped
again. ``detector.first_alarms`` advances lockstep batches of
equal-length streams until each one's first alarm. Both callers get the
same bits for a stream, since every operation acts on each stream's
slice alone and in the same order.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .errors import MeasurementIncompatibleError
from .inference import (
    NORM_FLOOR,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    grid_integrate,
    likelihood_vector,
    log_space_update,
    uniform_prior,
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
    q_star = cys * ratio
    inside = (grid.q_min <= q_star) & (q_star <= grid.q_max)
    pos = np.where(inside, (q_star - grid.q_min) / grid.dq, 0.0)
    j0 = np.minimum(pos.astype(int), grid.n_points - 2)
    frac = (pos - j0)[:, np.newaxis]
    at = j0[:, np.newaxis, np.newaxis]
    lo = np.take_along_axis(densities, at, axis=2)[..., 0]
    hi = np.take_along_axis(densities, at + 1, axis=2)[..., 0]
    return np.where(inside[:, np.newaxis], (lo * (1.0 - frac) + hi * frac) * ratio, 0.0)


def predictive_probability(
    run_posterior: EmissionPosterior,
    cy: float,
    fm: ForwardModel,
    cfg: LikelihoodConfig,
    method: PredictiveMethod = DEFAULT_PREDICTIVE_METHOD,
) -> float:
    """Probability density of the next measurement under one hypothesis.

    "marginal" integrates the Gaussian likelihood against the rate
    posterior. "scaling" treats the forward map as a deterministic change
    of variables on the posterior itself.
    """
    if cy < 0:
        raise ValueError("integrated concentration must be non-negative")
    if method == "marginal":
        lik = likelihood_vector(cy, run_posterior.grid, fm, cfg)
        return grid_integrate(run_posterior.grid, run_posterior.density * lik)
    if method == "scaling":
        rows = run_posterior.density[np.newaxis, np.newaxis]
        return float(_scaled_density_at(rows, run_posterior.grid, np.array([cy]), fm)[0, 0])
    raise ValueError(f"unknown predictive method {method!r}")


class RunLengthState:
    """Run-length posterior and per-hypothesis rate posteriors after k passes.

    ``weights`` is the normalized run-length distribution. ``log_evidence``
    accumulates log p(c_1..c_k), so the unnormalized joint weights are
    weights * exp(log_evidence). Row i of ``posteriors`` is the rate
    density given the newest min(i + 1, k) measurements; before any
    measurement the single row is the flat prior.

    The rows live in a buffer whose capacity doubles as it fills, newest
    last: buffer row j holds run length k - j, so ``posteriors`` is a
    reversed read-only view of the first k + 1 buffer rows. A second
    buffer of the same capacity is where the next step writes its rows.
    ``bocd_step`` hands both buffers to its result, so stepping consumes
    the state: afterwards its ``posteriors``, ``run_posterior`` and a
    second ``bocd_step`` raise ``ValueError`` instead of reading rows that
    the later step overwrites. The constructor copies ``posteriors``.
    """

    __slots__ = ("grid", "k", "weights", "log_evidence", "_rows", "_spare")

    def __init__(
        self,
        grid: QGrid,
        k: int,
        weights: np.ndarray,
        log_evidence: float,
        posteriors: np.ndarray,
    ) -> None:
        if k < 0:
            raise ValueError("pass count must be non-negative")
        if np.shape(posteriors) != (k + 1, grid.n_points):
            raise ValueError("need one posterior row per hypothesis")
        rows = np.empty((_capacity(k + 1), grid.n_points))
        rows[: k + 1] = posteriors[::-1]
        self._adopt(grid, k, weights, log_evidence, rows, rows[:0])

    @classmethod
    def _from_buffers(cls, grid, k, weights, log_evidence, rows, spare):
        state = cls.__new__(cls)
        state._adopt(grid, k, weights, log_evidence, rows, spare)
        return state

    def _adopt(self, grid, k, weights, log_evidence, rows, spare) -> None:
        if weights.shape != (k + 1,):
            raise ValueError("need exactly k + 1 run-length weights")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(np.sum(weights)) - 1.0) > 1e-9:
            raise ValueError("weights must be normalized")
        if weights.flags.writeable:
            weights.setflags(write=False)
        self.grid = grid
        self.k = k
        self.weights = weights
        self.log_evidence = log_evidence
        self._rows = rows
        self._spare = spare

    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is None:
            raise ValueError("run-length state was consumed by bocd_step")
        return self._rows, self._spare

    @property
    def posteriors(self) -> np.ndarray:
        rows, _ = self._buffers()
        view = rows[self.k :: -1]
        view.setflags(write=False)
        return view

    @property
    def evidence(self) -> float:
        return math.exp(self.log_evidence)

    @property
    def alpha(self) -> np.ndarray:
        """Unnormalized joint weights p(r_k = i, measurements so far)."""
        return self.weights * math.exp(self.log_evidence)

    def run_posterior(self, i: int) -> EmissionPosterior:
        row = self.posteriors[i].copy()
        row.setflags(write=False)
        return EmissionPosterior(self.grid, row)


def _capacity(n_rows: int) -> int:
    """Buffer rows for n_rows hypotheses: a power of two, at least 16."""
    return max(16, 1 << (n_rows - 1).bit_length())


def row_buffer_bytes(n_passes: int, n_points: float) -> float:
    """Bytes of the two row buffers of a stream at its longest run,
    ``n_passes`` passes on a grid of ``n_points`` rates."""
    return 2.0 * _capacity(n_passes + 1) * n_points * 8


def initial_state(grid: QGrid) -> RunLengthState:
    """Fresh state before any measurement: run length 0 with certainty."""
    flat = uniform_prior(grid).density
    return RunLengthState(
        grid=grid,
        k=0,
        weights=np.array([1.0]),
        log_evidence=0.0,
        posteriors=flat[np.newaxis, :],
    )


def _advance_rows(
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


def bocd_step(
    state: RunLengthState,
    cy: float,
    fm: ForwardModel,
    cfg: LikelihoodConfig,
    lam: float,
    method: PredictiveMethod = DEFAULT_PREDICTIVE_METHOD,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
) -> RunLengthState:
    """Advance the run-length posterior with one pass measurement.

    ``lam`` is the expected run length of the geometric run-length prior,
    so the hazard is the constant 1/lam. The full-run row of the result,
    ``run_posterior(k)``, is the rate posterior given every measurement
    since the state was initialized.

    The result takes over the buffers of ``state``, which is consumed;
    a step that raises leaves ``state`` usable. A measurement that is
    impossible under the state, including one that empties a live row
    even in log space, raises ``MeasurementIncompatibleError``.
    """
    rows, spare = state._buffers()
    k = state.k
    if spare.shape[0] < k + 2:
        spare = np.empty((_capacity(k + 2), state.grid.n_points))
    weights, step_evidence, errors = _advance_rows(
        rows[np.newaxis],
        spare[np.newaxis],
        state.weights[np.newaxis],
        np.array([cy], dtype=float),
        state.grid,
        fm,
        cfg,
        lam,
        method,
        prune_threshold,
    )
    if errors:
        raise MeasurementIncompatibleError(errors[0])
    result = RunLengthState._from_buffers(
        state.grid,
        k + 1,
        weights[0],
        state.log_evidence + math.log(step_evidence[0]),
        spare,
        rows,
    )
    state._rows = state._spare = None
    return result


def changepoint_probability(state: RunLengthState) -> float:
    """Posterior probability that a change occurred at the latest pass."""
    if state.k < 1:
        raise ValueError("no measurement has been processed yet")
    return float(state.weights[0])
