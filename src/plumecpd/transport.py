"""Cross-plume measurement reduction and the forward plume model.

A mobile analyzer repeatedly drives through a plume downwind of a point
source. Each traverse ("pass") yields a time series of mixing ratios that
is reduced to a single cross-plume integrated mass concentration, in
g/m^2. A candidate emission rate Q (g/s) maps to a predicted integrated
concentration through a vertical dispersion factor and a plume advection
velocity, so the forward model is linear in Q.

All quantities are SI-based: g/s, g/m^3, g/m^2, m/s, K, Pa.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputDataError

GAS_CONSTANT_J_PER_MOL_K = 8.314462618
METHANE_MOLAR_MASS_G_PER_MOL = 16.04
STANDARD_PRESSURE_PA = 101325.0

# Default measurement geometry: analyzer inlet on a vehicle roof, source
# released near ground level.
DEFAULT_SENSOR_HEIGHT_M = 1.3
DEFAULT_SOURCE_HEIGHT_M = 0.05


def _positive_finite(x: float) -> bool:
    return x > 0 and math.isfinite(x)


@dataclass(frozen=True)
class MetSummary:
    """Experiment-scale meteorological summary from a sonic anemometer.

    ``turbulent_intensity`` may be supplied redundantly with sigma_u and
    the mean velocity; it is then checked for consistency.
    """

    mean_velocity_mps: float
    sigma_u_mps: float
    sigma_w_mps: float
    friction_velocity_mps: float
    temperature_k: float
    turbulent_intensity: float | None = None
    wind_direction_deg: float | None = None
    sensible_heat_flux_w_m2: float | None = None
    stability_z_over_l: float | None = None
    obukhov_length_m: float | None = None
    surface_roughness_m: float | None = None

    def __post_init__(self) -> None:
        if not _positive_finite(self.mean_velocity_mps):
            raise ValueError("mean velocity must be positive and finite")
        if not (_positive_finite(self.sigma_u_mps) and _positive_finite(self.sigma_w_mps)):
            raise ValueError("velocity standard deviations must be positive and finite")
        if not _positive_finite(self.friction_velocity_mps):
            raise ValueError("friction velocity must be positive and finite")
        if not _positive_finite(self.temperature_k):
            raise ValueError("temperature must be positive and finite")
        if self.turbulent_intensity is not None:
            derived = self.sigma_u_mps / self.mean_velocity_mps
            if not abs(self.turbulent_intensity - derived) <= 1e-6 * derived:
                raise ValueError(
                    "turbulent intensity inconsistent with sigma_u / mean velocity"
                )

    @property
    def intensity(self) -> float:
        if self.turbulent_intensity is not None:
            return self.turbulent_intensity
        return self.sigma_u_mps / self.mean_velocity_mps


@dataclass(frozen=True)
class Geometry:
    """Source-to-road fetch and the two release/measurement heights."""

    fetch_m: float
    sensor_height_m: float = DEFAULT_SENSOR_HEIGHT_M
    source_height_m: float = DEFAULT_SOURCE_HEIGHT_M

    def __post_init__(self) -> None:
        if not _positive_finite(self.fetch_m):
            raise ValueError("fetch must be positive and finite")
        for height in (self.sensor_height_m, self.source_height_m):
            if not (height >= 0 and math.isfinite(height)):
                raise ValueError("heights must be non-negative and finite")


@dataclass(frozen=True)
class PassMeasurement:
    """One reduced pass: a cross-plume integrated concentration in g/m^2."""

    pass_index: int
    cy_g_per_m2: float
    geometry: Geometry | None = None
    met: MetSummary | None = None

    def __post_init__(self) -> None:
        if self.pass_index < 1:
            raise ValueError("pass index is 1-based")
        if self.cy_g_per_m2 < 0:
            raise ValueError("integrated concentration must be non-negative")


@dataclass(frozen=True)
class ForwardModel:
    """Linear map from emission rate to integrated concentration.

    predicted cy = Q * dispersion_factor / advection_velocity
    """

    advection_velocity_mps: float
    dispersion_factor_per_m: float

    def __post_init__(self) -> None:
        if self.advection_velocity_mps <= 0:
            raise ValueError("advection velocity must be positive")
        if self.dispersion_factor_per_m < 0:
            raise ValueError("dispersion factor must be non-negative")


def ambient_baseline(series: Sequence[float]) -> float:
    """Nearest-rank 5th percentile of a raw mixing-ratio series.

    The rank is ceil(0.05 * n) in 1-based terms, computed with integer
    arithmetic so that e.g. n = 20 gives rank 1, n = 100 gives rank 5.
    """
    values = np.asarray(series, dtype=float)
    n = values.size
    if n == 0:
        raise InputDataError("no samples")
    rank = (5 * n + 99) // 100
    return float(np.sort(values)[rank - 1])


def ppm_to_mass_concentration(
    ppm,
    temperature_k: float,
    pressure_pa: float = STANDARD_PRESSURE_PA,
    molar_mass_g_per_mol: float = METHANE_MOLAR_MASS_G_PER_MOL,
):
    """Convert a mixing ratio in ppm to a mass concentration in g/m^3.

    ``ppm`` is a float or an array; an array converts elementwise with
    the same floating-point operations as a float, so each element equals
    the scalar call.
    """
    if not (0 < temperature_k < math.inf and 0 < pressure_pa < math.inf):
        raise ValueError("temperature and pressure must be positive and finite")
    if np.any(np.less(ppm, 0)):
        raise ValueError("mixing ratio must be non-negative")
    molar_volume = GAS_CONSTANT_J_PER_MOL_K * temperature_k / pressure_pa
    return ppm * 1e-6 * molar_mass_g_per_mol / molar_volume


def cross_plume_integrate(conc, dt, speed, angle_deg, pass_lengths) -> np.ndarray:
    """Integrate above-ambient mass concentration across each of a run of passes.

    The first four arguments are equal-length per-sample columns:
    concentration (g/m^3), dt (s), vehicle speed (m/s) and road angle
    (deg). They hold the passes one after another, ``pass_lengths[i]``
    samples for pass i, and one integral is returned per pass. The
    along-road step dt * V is projected onto the cross-plume direction
    with sin(road angle). A pass's samples are summed in order, one after
    the other, so its integral depends neither on numpy's summation order
    nor on the other passes. An empty pass integrates to zero. A pass
    whose integral overflows comes out inf, or nan where an infinite step
    meets a zero concentration.
    """
    conc, dt, speed, angle_deg = columns = [
        np.asarray(column, dtype=float) for column in (conc, dt, speed, angle_deg)
    ]
    if len({column.shape for column in columns}) != 1 or conc.ndim != 1:
        raise ValueError("sample columns must be 1-D and of equal length")
    lengths = np.asarray(pass_lengths, dtype=np.intp)
    if lengths.ndim != 1 or (lengths < 0).any() or lengths.sum() != conc.size:
        raise ValueError("pass lengths must be non-negative and add up to the sample count")
    if not (dt > 0).all():
        raise ValueError("sample spacing must be positive")
    if not (speed > 0).all():
        raise ValueError("vehicle speed must be positive")
    if not ((0 < angle_deg) & (angle_deg <= 90)).all():
        raise ValueError("road angle must lie in (0, 90] degrees")
    angles, angle_of = np.unique(angle_deg, return_inverse=True)
    sines = np.array([math.sin(math.radians(a)) for a in angles.tolist()])[angle_of]
    starts = np.cumsum(lengths) - lengths
    totals = np.zeros(lengths.size)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = conc * dt * speed * sines
        # A running total per pass: row-wise cumsum over a zero-padded
        # (passes, longest pass) table, read at each pass's last sample.
        # Passes whose lengths share a power-of-two bracket share a table,
        # so padding at most doubles its size, however uneven the passes.
        bracket = np.frexp(lengths)[1]
        for b in np.unique(bracket[lengths > 0]):
            rows = np.flatnonzero(bracket == b)
            width = lengths[rows].max()
            offsets = np.arange(width)
            inside = offsets < lengths[rows, np.newaxis]
            table = np.zeros((rows.size, width))
            table[inside] = terms[(starts[rows, np.newaxis] + offsets)[inside]]
            totals[rows] = np.cumsum(table, axis=1)[np.arange(rows.size), lengths[rows] - 1]
    # Adding 0.0 turns an all-negative-zero sum into 0.0, as a running
    # total that starts from 0.0 would give.
    return totals + 0.0


class DispersionModel(abc.ABC):
    """Maps met statistics and geometry to a vertical dispersion factor."""

    @abc.abstractmethod
    def vertical_factor(self, met: MetSummary, geom: Geometry) -> float:
        """Return D_z in 1/m, evaluated at the sensor height."""


@dataclass(frozen=True)
class ReflectedGaussianDispersion(DispersionModel):
    """Gaussian vertical profile with full ground reflection.

    The vertical spread is sigma_z = spread_factor * sigma_w * fetch / u,
    a neutral-surface-layer scaling. spread_factor defaults to 1 and is
    the hook for swapping in a calibrated plume spread.
    """

    spread_factor: float = 1.0

    def __post_init__(self) -> None:
        if not _positive_finite(self.spread_factor):
            raise ValueError("spread factor must be positive and finite")

    def vertical_factor(self, met: MetSummary, geom: Geometry) -> float:
        sigma_z = (
            self.spread_factor * met.sigma_w_mps * geom.fetch_m / met.mean_velocity_mps
        )
        if not _positive_finite(sigma_z):
            raise ValueError("degenerate vertical spread")
        z, h = geom.sensor_height_m, geom.source_height_m
        try:
            direct = math.exp(-((z - h) ** 2) / (2.0 * sigma_z**2))
            image = math.exp(-((z + h) ** 2) / (2.0 * sigma_z**2))
        except ArithmeticError as exc:
            # A square that overflows, or a spread whose square underflows to 0.
            raise ValueError("vertical spread and heights leave the float range") from exc
        return (direct + image) / (math.sqrt(2.0 * math.pi) * sigma_z)


@dataclass(frozen=True)
class ConstantDispersion(DispersionModel):
    """Fixed dispersion factor, mainly for tests and controlled sweeps."""

    value_per_m: float

    def vertical_factor(self, met: MetSummary, geom: Geometry) -> float:
        if self.value_per_m < 0:
            raise ValueError("dispersion factor must be non-negative")
        return self.value_per_m


def build_forward_model(
    met: MetSummary,
    geom: Geometry,
    model: DispersionModel | None = None,
    velocity_scale: float = 1.0,
) -> ForwardModel:
    """Assemble the linear forward model for one experiment.

    The advection velocity is the mean streamwise velocity times an
    optional scale, which is the adjustment point if a plume-specific
    advection speed is ever calibrated.
    """
    if velocity_scale <= 0:
        raise ValueError("velocity scale must be positive")
    dispersion = model if model is not None else ReflectedGaussianDispersion()
    return ForwardModel(
        advection_velocity_mps=met.mean_velocity_mps * velocity_scale,
        dispersion_factor_per_m=dispersion.vertical_factor(met, geom),
    )


def forward_concentration(q_g_per_s, fm: ForwardModel):
    """Predicted integrated concentration for rate(s) Q, linear in Q.

    Accepts a scalar or an ndarray of rates.
    """
    q = np.asarray(q_g_per_s, dtype=float)
    if np.any(q < 0):
        raise ValueError("emission rate must be non-negative")
    out = q * (fm.dispersion_factor_per_m / fm.advection_velocity_mps)
    if np.isscalar(q_g_per_s) or out.ndim == 0:
        return float(out)
    return out
