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

The rate rows are stored newest last, in a buffer that doubles its
capacity when full: buffer row j holds run length k - j. A step maps
run length i to i + 1 and keeps each row's index, so it multiplies the
rows by the likelihood into a second buffer of the same capacity,
renormalizes them there in place and appends the fresh run-length-0
row; nothing is shifted or reallocated. The result owns both buffers,
so ``bocd_step`` consumes its input state, and the consumed state
refuses to be read or stepped again.
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


def _scaled_density_at(densities: np.ndarray, grid: QGrid, cy: float, fm: ForwardModel):
    """Change-of-variables predictive density for one or many posteriors.

    Maps the measurement back to a rate q* = cy * u / D and linearly
    interpolates the rate density there; measurements mapping outside the
    grid have probability zero.
    """
    ratio = _scaling_ratio(fm)
    q_star = cy * ratio
    rows = np.atleast_2d(densities)
    if not grid.q_min <= q_star <= grid.q_max:
        out = np.zeros(rows.shape[0])
    else:
        pos = (q_star - grid.q_min) / grid.dq
        j0 = min(int(pos), grid.n_points - 2)
        frac = pos - j0
        out = (rows[:, j0] * (1.0 - frac) + rows[:, j0 + 1] * frac) * ratio
    return out if densities.ndim == 2 else float(out[0])


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
        return _scaled_density_at(run_posterior.density, run_posterior.grid, cy, fm)
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
        return EmissionPosterior(self.grid, self.posteriors[i].copy())


def _capacity(n_rows: int) -> int:
    """Buffer rows for n_rows hypotheses: a power of two, at least 16."""
    return max(16, 1 << (n_rows - 1).bit_length())


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
    a step that raises leaves ``state`` usable.

    A row whose product with the likelihood underflows on the whole grid,
    or whose grid norm is subnormal, is renormalized in log space. If even
    that is empty, the row is set flat when its hypothesis carries no
    weight; a live hypothesis raises ``MeasurementIncompatibleError``.
    """
    if not lam > 1:
        raise ValueError("expected run length lambda must exceed 1")
    rows, spare = state._buffers()
    grid = state.grid
    k = state.k
    likelihood = likelihood_vector(cy, grid, fm, cfg)
    h = 1.0 / lam
    flat = 1.0 / (grid.q_max - grid.q_min)

    if spare.shape[0] < k + 2:
        spare = np.empty((_capacity(k + 2), grid.n_points))
    # Buffer row j holds run length k - j before the step and k + 1 - j
    # after it, so each grown row keeps its index and the old rows stay
    # intact for the log-space and scaling paths below.
    old = rows[: k + 1]
    weighted = np.multiply(old, likelihood, out=spare[: k + 1])
    norms = np.sum(weighted[:, :-1], axis=1) * grid.dq
    lik_mass = float(np.sum(likelihood[:-1]) * grid.dq)

    if method == "marginal":
        pis = norms[::-1]
        pi_fresh = flat * lik_mass
    elif method == "scaling":
        pis = _scaled_density_at(old[::-1], grid, cy, fm)
        ratio = _scaling_ratio(fm)
        q_star = cy * ratio
        pi_fresh = flat * ratio if grid.q_min <= q_star <= grid.q_max else 0.0
    else:
        raise ValueError(f"unknown predictive method {method!r}")

    total_weight = float(np.sum(state.weights))
    unnormalized = np.empty(k + 2)
    unnormalized[0] = h * pi_fresh * total_weight
    unnormalized[1:] = state.weights * (1.0 - h) * pis
    step_evidence = float(np.sum(unnormalized))
    if step_evidence <= 0 or not math.isfinite(step_evidence):
        raise MeasurementIncompatibleError(
            "observation impossible under all run-length hypotheses"
        )
    weights = unnormalized / step_evidence

    weights[weights < prune_threshold] = 0.0
    weights /= np.sum(weights)

    good = norms >= NORM_FLOOR
    if good.all():
        weighted /= norms[:, np.newaxis]
    else:
        weighted[good] /= norms[good, np.newaxis]
        for j in np.flatnonzero(~good):
            revived = log_space_update(grid, old[j], likelihood)
            if revived is not None:
                weighted[j] = revived
            elif weights[k + 1 - j] > 0:
                raise MeasurementIncompatibleError(
                    "measurement incompatible with the rate grid support"
                )
            else:
                weighted[j] = flat
    # The new segment starts at this measurement, so row 0 conditions on it.
    spare[k + 1] = likelihood / lik_mass if lik_mass > 0 else flat

    result = RunLengthState._from_buffers(
        grid, k + 1, weights, state.log_evidence + math.log(step_evidence), spare, rows
    )
    state._rows = state._spare = None
    return result


def changepoint_probability(state: RunLengthState) -> float:
    """Posterior probability that a change occurred at the latest pass."""
    if state.k < 1:
        raise ValueError("no measurement has been processed yet")
    return float(state.weights[0])
