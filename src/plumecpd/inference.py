"""Grid-discretized recursive Bayesian inference of an emission rate.

The unknown source rate Q lives on a uniform grid. Starting from a flat
prior, each pass multiplies in a Gaussian likelihood centered on the
forward-model prediction and renormalizes. Integrals over the grid use a
left-Riemann sum: the points q_min .. q_max - dq each carry weight dq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, MeasurementIncompatibleError
from .transport import ForwardModel, PassMeasurement, forward_concentration

DEFAULT_Q_MIN_G_PER_S = 0.0
DEFAULT_Q_MAX_G_PER_S = 5.0
DEFAULT_DQ_G_PER_S = 0.005

# A grid norm below the smallest normal float has lost precision, and the
# quotient by it need not integrate to 1: renormalize such a product in
# log space, as if it had underflowed.
NORM_FLOOR = np.finfo(float).tiny


@dataclass(frozen=True)
class QGrid:
    """Uniformly spaced candidate emission rates, inclusive of both ends."""

    q_min: float
    q_max: float
    dq: float
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.q_min < self.q_max):
            raise ValueError("q_min must be below q_max")
        if self.dq <= 0:
            raise ValueError("dq must be positive")
        steps = (self.q_max - self.q_min) / self.dq
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("grid span must be an integer number of dq steps")
        n = int(round(steps)) + 1
        if n < 3:
            raise ValueError("grid needs at least 3 points")
        values = self.q_min + self.dq * np.arange(n)
        spacing = np.diff(values)
        if np.max(np.abs(spacing - self.dq)) > 1e-12 * self.dq:
            raise ValueError("grid spacing drifted beyond tolerance")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_points(self) -> int:
        return self.values.size


DEFAULT_GRID = QGrid(DEFAULT_Q_MIN_G_PER_S, DEFAULT_Q_MAX_G_PER_S, DEFAULT_DQ_G_PER_S)


def grid_integrate(grid: QGrid, values: np.ndarray) -> float:
    """Left-Riemann integral of grid-sampled values over [q_min, q_max]."""
    return float(np.sum(values[:-1]) * grid.dq)


def density_problems(grid: QGrid, densities: np.ndarray) -> dict[int, str]:
    """Rows of a (B, n_points) array that are not normalized grid densities.

    Maps each such row to the reason: a negative value, or a left-Riemann
    integral more than 1e-8 away from 1.
    """
    totals = densities[:, :-1].sum(axis=1) * grid.dq
    gaps = np.abs(totals - 1.0)
    if densities.min() >= 0 and gaps.max() <= 1e-8:
        return {}
    negative = densities.min(axis=1) < 0
    bad = negative | (gaps > 1e-8)
    return {
        int(b): (
            "density must be non-negative"
            if negative[b]
            else f"density integrates to {float(totals[b])!r}, not 1"
        )
        for b in np.flatnonzero(bad)
    }


@dataclass(frozen=True)
class EmissionPosterior:
    """A normalized probability density over the rate grid."""

    grid: QGrid
    density: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        density = np.asarray(self.density, dtype=float)
        if density.shape != self.grid.values.shape:
            raise ValueError("density shape must match the grid")
        problems = density_problems(self.grid, density[np.newaxis])
        if problems:
            raise ValueError(problems[0])
        if density is not self.density or density.flags.writeable:
            density = density.copy()
            density.setflags(write=False)
            object.__setattr__(self, "density", density)


@dataclass(frozen=True)
class LikelihoodConfig:
    """Gaussian measurement noise scale for integrated concentrations."""

    sigma_e: float

    def __post_init__(self) -> None:
        if not (self.sigma_e > 0 and math.isfinite(self.sigma_e)):
            raise ConfigError("sigma_e must be positive and finite")


def uniform_prior(grid: QGrid) -> EmissionPosterior:
    """Flat density 1 / (q_max - q_min) at every grid point."""
    density = np.full(grid.n_points, 1.0 / (grid.q_max - grid.q_min))
    return EmissionPosterior(grid, density)


def likelihood_vector(
    cy: float | np.ndarray, grid: QGrid, fm: ForwardModel, cfg: LikelihoodConfig
) -> np.ndarray:
    """Gaussian likelihood of a measurement at every grid rate.

    One measurement gives shape (n_points,); a 1-D array of B measurements
    gives one row per measurement, shape (B, n_points), each row equal to
    the call with that measurement alone.
    """
    cy = np.asarray(cy, dtype=float)
    if (cy < 0).any():
        raise ValueError("integrated concentration must be non-negative")
    predicted = forward_concentration(grid.values, fm)
    # Past about 1e150 noise scales z * z overflows to inf, which gives the
    # right likelihood, 0, with a warning; the linear forward map puts the
    # largest residual at an end of the grid.
    reach = float(cy.max()) + max(abs(predicted[0]), abs(predicted[-1]))
    if reach < 1e150 * cfg.sigma_e:
        return _gaussian(cy, predicted, cfg.sigma_e)
    with np.errstate(over="ignore"):
        return _gaussian(cy, predicted, cfg.sigma_e)


def _gaussian(cy: np.ndarray, predicted: np.ndarray, sigma: float) -> np.ndarray:
    z = (cy[..., np.newaxis] - predicted) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def bayes_update_from_likelihood(
    prior: EmissionPosterior, likelihood: np.ndarray
) -> EmissionPosterior:
    """Multiply a prior by a likelihood vector and renormalize.

    Falls back to a max-shifted log-space renormalization when the
    unnormalized product underflows entirely or integrates to a subnormal
    number, which can happen for very long streams even though each factor
    is representable.
    """
    weighted = prior.density * likelihood
    evidence = grid_integrate(prior.grid, weighted)
    if evidence >= NORM_FLOOR and math.isfinite(evidence):
        return EmissionPosterior(prior.grid, weighted / evidence)
    density = log_space_update(prior.grid, prior.density, likelihood)
    if density is None:
        raise MeasurementIncompatibleError(
            "measurement incompatible with the rate grid support"
        )
    return EmissionPosterior(prior.grid, density)


def log_space_update(
    grid: QGrid, density: np.ndarray, likelihood: np.ndarray
) -> np.ndarray | None:
    """Normalized density * likelihood, formed in log space with a max shift.

    Recovers the product when it underflows to zero on the whole grid.
    Returns None when no grid point has mass even in log space.
    """
    with np.errstate(divide="ignore"):
        log_weighted = np.log(density) + np.log(likelihood)
    shift = np.max(log_weighted[:-1])
    if not math.isfinite(shift):
        return None
    shifted = np.exp(log_weighted - shift)
    return shifted / grid_integrate(grid, shifted)


def bayes_update(
    prior: EmissionPosterior, cy: float, fm: ForwardModel, cfg: LikelihoodConfig
) -> EmissionPosterior:
    """One recursive posterior update with a single pass measurement."""
    return bayes_update_from_likelihood(prior, likelihood_vector(cy, prior.grid, fm, cfg))


def posterior_mode(posterior: EmissionPosterior) -> float:
    """Grid rate with the highest density; ties resolve to the smallest rate."""
    return float(posterior.grid.values[int(np.argmax(posterior.density))])


def posterior_mean_std(posterior: EmissionPosterior) -> tuple[float, float]:
    """Mean and standard deviation of the discretized posterior."""
    grid = posterior.grid
    mean = grid_integrate(grid, grid.values * posterior.density)
    second = grid_integrate(grid, (grid.values - mean) ** 2 * posterior.density)
    return mean, math.sqrt(max(second, 0.0))


def estimate_sigma_e(
    passes: Sequence[PassMeasurement] | Sequence[float],
    q_true: float,
    fms: ForwardModel | Sequence[ForwardModel],
) -> float:
    """Residual noise scale around the forward prediction at a known rate.

    Uses the N-1 normalization over residuals cy_k - predicted(q_true).
    """
    cys = [p.cy_g_per_m2 if isinstance(p, PassMeasurement) else float(p) for p in passes]
    n = len(cys)
    if n < 2:
        raise InsufficientDataError("need at least 2 passes to estimate sigma_e")
    if isinstance(fms, ForwardModel):
        fms = [fms] * n
    if len(fms) != n:
        raise ValueError("need one forward model per pass")
    residuals = [cy - forward_concentration(q_true, fm) for cy, fm in zip(cys, fms)]
    return math.sqrt(sum(r * r for r in residuals) / (n - 1))
