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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import MeasurementIncompatibleError
from .inference import (
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


@dataclass(frozen=True)
class RunLengthState:
    """Run-length posterior and per-hypothesis rate posteriors after k passes.

    ``weights`` is the normalized run-length distribution. ``log_evidence``
    accumulates log p(c_1..c_k), so the unnormalized joint weights are
    weights * exp(log_evidence). Row i of ``posteriors`` is the rate
    density given the newest min(i + 1, k) measurements; before any
    measurement the single row is the flat prior.
    """

    grid: QGrid
    k: int
    weights: np.ndarray = field(compare=False)
    log_evidence: float = field(compare=False)
    posteriors: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("pass count must be non-negative")
        if self.weights.shape != (self.k + 1,):
            raise ValueError("need exactly k + 1 run-length weights")
        if self.posteriors.shape != (self.k + 1, self.grid.n_points):
            raise ValueError("need one posterior row per hypothesis")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ValueError("weights must be normalized")
        for arr in (self.weights, self.posteriors):
            if arr.flags.writeable:
                arr.setflags(write=False)

    @property
    def evidence(self) -> float:
        return math.exp(self.log_evidence)

    @property
    def alpha(self) -> np.ndarray:
        """Unnormalized joint weights p(r_k = i, measurements so far)."""
        return self.weights * math.exp(self.log_evidence)

    def run_posterior(self, i: int) -> EmissionPosterior:
        return EmissionPosterior(self.grid, self.posteriors[i].copy())


def initial_state(grid: QGrid) -> RunLengthState:
    """Fresh state before any measurement: run length 0 with certainty."""
    flat = uniform_prior(grid).density
    return RunLengthState(
        grid=grid,
        k=0,
        weights=np.array([1.0]),
        log_evidence=0.0,
        posteriors=flat[np.newaxis, :].copy(),
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

    A row whose product with the likelihood underflows on the whole grid
    is renormalized in log space. If even that is empty, the row is set
    flat when its hypothesis carries no weight; a live hypothesis raises
    ``MeasurementIncompatibleError``.
    """
    if not lam > 1:
        raise ValueError("expected run length lambda must exceed 1")
    grid = state.grid
    likelihood = likelihood_vector(cy, grid, fm, cfg)
    h = 1.0 / lam
    flat = 1.0 / (grid.q_max - grid.q_min)

    weighted = state.posteriors * likelihood
    norms = np.sum(weighted[:, :-1], axis=1) * grid.dq
    lik_mass = float(np.sum(likelihood[:-1]) * grid.dq)

    if method == "marginal":
        pis = norms
        pi_fresh = flat * lik_mass
    elif method == "scaling":
        pis = _scaled_density_at(state.posteriors, grid, cy, fm)
        ratio = _scaling_ratio(fm)
        q_star = cy * ratio
        pi_fresh = flat * ratio if grid.q_min <= q_star <= grid.q_max else 0.0
    else:
        raise ValueError(f"unknown predictive method {method!r}")

    total_weight = float(np.sum(state.weights))
    unnormalized = np.empty(state.k + 2)
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

    posteriors = np.empty((state.k + 2, grid.n_points))
    # The new segment starts at this measurement, so row 0 conditions on it.
    posteriors[0] = likelihood / lik_mass if lik_mass > 0 else flat
    good = norms > 0
    posteriors[1:][good] = weighted[good] / norms[good, np.newaxis]
    for idx in np.nonzero(~good)[0]:
        revived = log_space_update(grid, state.posteriors[idx], likelihood)
        if revived is not None:
            posteriors[idx + 1] = revived
        elif weights[idx + 1] > 0:
            raise MeasurementIncompatibleError(
                "measurement incompatible with the rate grid support"
            )
        else:
            posteriors[idx + 1] = flat

    return RunLengthState(
        grid=grid,
        k=state.k + 1,
        weights=weights,
        log_evidence=state.log_evidence + math.log(step_evidence),
        posteriors=posteriors,
    )


def changepoint_probability(state: RunLengthState) -> float:
    """Posterior probability that a change occurred at the latest pass."""
    if state.k < 1:
        raise ValueError("no measurement has been processed yet")
    return float(state.weights[0])
