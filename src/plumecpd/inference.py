"""Grid-discretized recursive Bayesian inference of an emission rate.

The unknown source rate Q lives on a uniform grid. Starting from a flat
prior, each pass multiplies in a Gaussian likelihood centered on the
forward-model prediction and renormalizes. Integrals over the grid use a
left-Riemann sum: the points q_min .. q_max - dq each carry weight dq.

The forward map is linear (c = r q) and the noise Gaussian, so the
posterior of any set of passes is exp(B q - A q^2 / 2) / Z on the grid,
A = sum r^2 / sigma^2 and B = sum r c / sigma^2 (``conjugate_terms``),
with Z the row's grid integral (``log_grid_mass``).
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

# Noise scales below this overflow 1 / sigma_e^2, the precision one pass
# adds to a rate row.
MIN_SIGMA_E = 1.0 / math.sqrt(np.finfo(float).max)

# Path thresholds of ``log_grid_mass``, in row widths sigma_q and grid
# steps, and the points per block of its exact sum, which bound its memory.
INTERIOR_MIN_WIDTH = 1.5
INTERIOR_MARGIN = 8.0
EDGE_MIN_WIDTH = 10.0
EDGE_MAX_SPANS = 100.0
EDGE_REACH = 2.0
WINDOW_HALF_WIDTH = 10.0
WINDOW_BLOCK_POINTS = 2**16

LOG_MAX_FLOAT = math.log(np.finfo(float).max)
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
POSTERIOR_OVERFLOW = "rate posterior density overflows at the top of the grid"
NEGATIVE_CONCENTRATION = "integrated concentration must be non-negative"


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


@dataclass(frozen=True)
class EmissionPosterior:
    """A normalized probability density over the rate grid."""

    grid: QGrid
    density: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        density = np.asarray(self.density, dtype=float)
        if density.shape != self.grid.values.shape:
            raise ValueError("density shape must match the grid")
        if density.min() < 0:
            raise ValueError("density must be non-negative")
        total = grid_integrate(self.grid, density)
        if not abs(total - 1.0) <= 1e-8:
            raise ValueError(f"density integrates to {total!r}, not 1")
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
        if self.sigma_e < MIN_SIGMA_E:
            raise ConfigError(
                f"sigma_e must be at least {MIN_SIGMA_E:.3g}, or 1/sigma_e**2 overflows"
            )


def uniform_prior(grid: QGrid) -> EmissionPosterior:
    """Flat density 1 / (q_max - q_min) at every grid point."""
    density = np.full(grid.n_points, 1.0 / (grid.q_max - grid.q_min))
    return EmissionPosterior(grid, density)


def conjugate_terms(
    cy: float | np.ndarray, fm: ForwardModel | Sequence[ForwardModel], cfg: LikelihoodConfig
) -> tuple[float | np.ndarray, np.ndarray]:
    """(a, b) with a = r^2 / sigma^2 and b = r cy / sigma^2 (an array shaped
    like ``cy``): with the forward map c = r q, a pass's likelihood is
    exp(b q - a q^2 / 2) times a factor free of q. With one forward model
    per entry of cy's last axis, a is an array of as many."""
    cy = np.asarray(cy, dtype=float)
    if (cy < 0).any():
        raise ValueError(NEGATIVE_CONCENTRATION)
    # r as forward_concentration(1.0, fm) computes it.
    if isinstance(fm, ForwardModel):
        scale = fm.dispersion_factor_per_m / fm.advection_velocity_mps / cfg.sigma_e
        return scale * scale, scale * (cy / cfg.sigma_e)
    scales = [f.dispersion_factor_per_m / f.advection_velocity_mps / cfg.sigma_e for f in fm]
    return np.array([s * s for s in scales]), np.array(scales) * (cy / cfg.sigma_e)


def log_grid_mass(grid: QGrid, precision, mode) -> np.ndarray:
    """log Z for rows exp(-A (q - mode)^2 / 2), elementwise and broadcast.

    Z is dq times the row's sum over q_min .. q_max - dq. With the width
    sigma_q = A^-1/2, the path is:
    - interior (sigma_q >= 1.5 dq, mode 8 sigma_q inside the summed
      points): the Gaussian integral, log(2 pi / A) / 2, whose aliasing
      and tail errors are below 1e-15 relative;
    - wide near an edge (10 dq <= sigma_q <= 100 (q_max - q_min), mode
      within 2 sigma_q of [q_min, q_max]): the erf integral over
      [q_min, q_max] plus Euler-Maclaurin endpoint terms through dq^6;
    - else (narrow rows, modes far outside, A = 0): the exact log-sum-exp
      over the summed points within 10 sigma_q of the clipped mode, by
      ``window_log_mass`` on those rows together, in C order.
    """
    out, window = closed_form_log_mass(grid, precision, mode)
    if window.any():
        out[window] = window_log_mass(
            grid,
            np.broadcast_to(precision, out.shape)[window],
            np.broadcast_to(mode, out.shape)[window],
        )
    return out


def closed_form_log_mass(grid: QGrid, precision, mode) -> tuple[np.ndarray, np.ndarray]:
    """``log_grid_mass`` by its interior and edge paths alone.

    Returns log Z and a mask of the rows left to ``window_log_mass``,
    whose entries are NaN. Each entry depends on its own row only.
    """
    precision = np.asarray(precision, dtype=float)
    mode = np.asarray(mode, dtype=float)
    with np.errstate(divide="ignore"):
        width = precision**-0.5
    out = np.empty(np.broadcast_shapes(width.shape, mode.shape))
    np.add(np.log(width), HALF_LOG_2PI, out=out)
    top = grid.q_max - grid.dq
    slack = np.where(
        width >= INTERIOR_MIN_WIDTH * grid.dq,
        0.5 * (top - grid.q_min) - INTERIOR_MARGIN * width,
        -np.inf,
    )
    outside = np.abs(mode - 0.5 * (grid.q_min + top)) > slack
    if not outside.any():
        return out, outside
    width = np.broadcast_to(width, out.shape)[outside]
    mode = np.broadcast_to(mode, out.shape)[outside]
    span = grid.q_max - grid.q_min
    edge = (
        (width >= EDGE_MIN_WIDTH * grid.dq)
        & (width <= EDGE_MAX_SPANS * span)
        & (np.abs(mode - 0.5 * (grid.q_min + grid.q_max)) <= 0.5 * span + EDGE_REACH * width)
    )
    values = np.full(mode.shape, np.nan)
    if edge.any():
        values[edge] = _edge_log_mass(grid, mode[edge], width[edge])
    out[outside] = values
    window = np.zeros(out.shape, dtype=bool)
    window[outside] = ~edge
    return out, window


def _erf_gap(lo: float, hi: float) -> float:
    """erf(hi) - erf(lo) for lo <= hi with lo + hi >= 0: a difference of
    upper tails when lo >= 0, else a sum of two positive erf values, so
    neither form takes the difference of two numbers near 1."""
    if lo >= 0:
        return math.erfc(lo) - math.erfc(hi)
    return math.erf(hi) + math.erf(-lo)


# numpy has no erf; the edge path is its only caller, on few rows a step.
_erf_gaps = np.frompyfunc(_erf_gap, 2, 1)


def _edge_log_mass(grid: QGrid, mode: np.ndarray, width: np.ndarray) -> np.ndarray:
    """log Z of wide rows: the erf integral plus Euler-Maclaurin terms.

    For f(q) = exp(-t^2 / 2), t = (q - mode) / sigma_q, the left sum with
    step h over [a, b] = [q_min, q_max] is the integral plus
    h/2 (f(a) - f(b)) + h^2/12 (f'(b) - f'(a)) - h^4/720 (f^(3)(b) - f^(3)(a))
    + h^6/30240 (f^(5)(b) - f^(5)(a)), with f^(m) = (-1/sigma_q)^m He_m(t) f;
    below, h f(t) (1/2 + c1 t + c3 t^3 + c5 t^5) with r = h / sigma_q.
    """
    ends = (np.array([[grid.q_min], [grid.q_max]]) - mode) / width
    # erf(u_b) - erf(u_a), u = t / sqrt(2), reflected about the mode so
    # that the interval's middle is at or above it.
    u = ends * np.where(ends[0] + ends[1] < 0, -math.sqrt(0.5), math.sqrt(0.5))
    gap = _erf_gaps(u.min(axis=0), u.max(axis=0)).astype(float)
    r = grid.dq / width
    r3 = r**3
    r5 = r3 * r * r
    c1 = r / 12.0 + r3 / 240.0 + r5 / 2016.0
    c3 = -(r3 / 720.0 + r5 / 3024.0)
    c5 = r5 / 30240.0
    t2 = ends * ends
    terms = np.exp(-0.5 * t2) * (0.5 + ends * (c1 + t2 * (c3 + t2 * c5)))
    integral = width * math.sqrt(0.5 * math.pi) * gap
    return np.log(integral + grid.dq * (terms[0] - terms[1]))


def window_log_mass(grid: QGrid, precision: np.ndarray, mode: np.ndarray) -> np.ndarray:
    """log Z of 1-D arrays of rows by log-sum-exp over the summed points
    within 10 sigma_q of the mode clipped into the grid, widest rows first,
    in blocks of windows of one length that stay inside the summed points.

    A row's window spans the widest row of its block, so its last bits
    depend on the rows it is called with.
    """
    with np.errstate(divide="ignore"):
        width = precision**-0.5
    n_sum = grid.n_points - 1
    centre = np.rint((np.clip(mode, grid.q_min, grid.q_max - grid.dq) - grid.q_min) / grid.dq)
    half = np.minimum(np.ceil(WINDOW_HALF_WIDTH * width / grid.dq), n_sum).astype(int)
    out = np.empty(mode.shape)
    order = np.argsort(-half, kind="stable")
    while order.size:
        reach = half[order[0]]
        length = min(2 * reach + 1, n_sum)
        rows, order = np.split(order, [max(1, WINDOW_BLOCK_POINTS // length)])
        start = np.clip(centre[rows].astype(int) - reach, 0, n_sum - length)
        offset = grid.values[start[:, np.newaxis] + np.arange(length)] - mode[rows, np.newaxis]
        with np.errstate(over="ignore"):
            exponent = -0.5 * precision[rows, np.newaxis] * offset**2
        peak = exponent.max(axis=1)
        # A mode so far off the grid that offset**2 overflows: scale first.
        lost = ~np.isfinite(peak)
        if lost.any():
            scaled = offset[lost] * np.sqrt(precision[rows[lost], np.newaxis])
            exponent[lost] = -0.5 * scaled * scaled
            peak[lost] = exponent[lost].max(axis=1)
        out[rows] = peak + np.log(np.exp(exponent - peak[:, np.newaxis]).sum(axis=1) * grid.dq)
    return out


def conjugate_posterior(
    grid: QGrid, precision: float, mode: float, log_mass: float | None = None
) -> EmissionPosterior:
    """The rate posterior exp(-A (q - mode)^2 / 2) / Z of passes whose
    ``conjugate_terms`` sum to (A, B) = (``precision``, A mode).

    Raises ``MeasurementIncompatibleError`` when the density overflows at
    q_max, which no integral weights, for a narrow row piled against it.
    """
    if log_mass is None:
        log_mass = float(log_grid_mass(grid, precision, mode))
    log_density = _log_density(grid, precision, mode, log_mass)
    if not log_density.max() <= LOG_MAX_FLOAT:
        raise MeasurementIncompatibleError(POSTERIOR_OVERFLOW)
    return EmissionPosterior(grid, np.exp(log_density))


def conjugate_densities(
    grid: QGrid, precision: np.ndarray, mode: np.ndarray, log_mass: np.ndarray
) -> tuple[np.ndarray, int]:
    """The densities ``conjugate_posterior`` builds for rows given as 1-D
    arrays of (A, mode, log Z), shape (rows, n_points), and how many
    leading rows pass its checks; it raises its error for the next row."""
    log_density = _log_density(
        grid, precision[:, np.newaxis], mode[:, np.newaxis], log_mass[:, np.newaxis]
    )
    with np.errstate(over="ignore"):
        densities = np.exp(log_density)
    totals = np.sum(densities[:, :-1], axis=1) * grid.dq
    good = (
        (log_density.max(axis=1) <= LOG_MAX_FLOAT)
        & ~(densities.min(axis=1) < 0)
        & (np.abs(totals - 1.0) <= 1e-8)
    )
    return densities, good.size if good.all() else int(np.argmin(good))


def _log_density(grid: QGrid, precision, mode, log_mass) -> np.ndarray:
    # offset * offset * (-0.5 * precision) - log_mass, in place
    out = np.subtract(grid.values, mode)
    out *= out
    out *= -0.5 * precision
    out -= log_mass
    return out


def posterior_mode(posterior: EmissionPosterior) -> float:
    """Grid rate with the highest density; ties resolve to the smallest rate."""
    return float(posterior.grid.values[int(np.argmax(posterior.density))])


def posterior_mean_std(posterior: EmissionPosterior) -> tuple[float, float]:
    """Mean and standard deviation of the discretized posterior."""
    mean, std = row_moments(posterior.grid, posterior.density[np.newaxis])
    return float(mean[0]), float(std[0])


def row_moments(grid: QGrid, densities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of each row of ``densities``, (rows, n_points)."""
    # Only the summed points enter: the density at q_max may be near the
    # float range, where a product with it would overflow.
    values, densities = grid.values[:-1], densities[:, :-1]
    mean = np.sum(values * densities, axis=1) * grid.dq
    # (values - mean) ** 2 * densities, in place
    spread = np.subtract(values, mean[:, np.newaxis])
    spread *= spread
    spread *= densities
    second = np.sum(spread, axis=1) * grid.dq
    return mean, np.sqrt(np.maximum(second, 0.0))


def estimate_sigma_e(
    passes: Sequence[PassMeasurement] | Sequence[float],
    q_true: float,
    fms: ForwardModel | Sequence[ForwardModel],
) -> float:
    """Residual noise scale around the forward prediction at a known rate.

    Uses the N-1 normalization over residuals cy_k - predicted(q_true),
    and raises ``ValueError`` if the estimate overflows the float range.
    """
    cys = [p.cy_g_per_m2 if isinstance(p, PassMeasurement) else float(p) for p in passes]
    n = len(cys)
    if n < 2:
        raise InsufficientDataError("need at least 2 passes to estimate sigma_e")
    if isinstance(fms, ForwardModel):
        fms = [fms]
    elif len(fms) != n:
        raise ValueError("need one forward model per pass")
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.subtract(cys, [forward_concentration(q_true, fm) for fm in fms])
    # Summed one after the other, so the estimate does not depend on
    # numpy's summation order.
    sigma_e = math.sqrt(sum(r * r for r in residuals.tolist()) / (n - 1))
    if not math.isfinite(sigma_e):
        raise ValueError("passes too far from the prediction at q_true: sigma_e overflows")
    return sigma_e
