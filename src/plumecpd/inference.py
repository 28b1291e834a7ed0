"""Grid-discretized recursive Bayesian inference of an emission rate.

The unknown source rate Q lives on a uniform grid. Starting from a flat
prior, each pass multiplies in a Gaussian likelihood centered on the
forward-model prediction and renormalizes. Integrals over the grid use a
left-Riemann sum: the points q_min .. q_max - dq each carry weight dq.

The forward map is linear (c = r q) and the noise Gaussian, so the
posterior of any set of passes is exp(B q - A q^2 / 2) / Z on the grid,
A = sum r^2 / sigma^2 and B = sum r c / sigma^2 (``conjugate_terms``),
with Z the row's grid integral (``log_grid_mass``). That is the one form
in which the package holds a rate posterior: (A, mode, log Z), with mode
B / A, and the flat prior (0, 0, log(q_max - q_min)). ``summarize_rows``
gives the mode, mean and std of such rows, from (A, mode, log Z) alone
for a row well inside the grid, and for the others by building them on
the grid with ``built_summaries``, which also summarizes an event's row.

The terms of log Z that depend on A alone, the width, the interior
value and its test, and the edge path's Euler-Maclaurin coefficients,
are computed once per value of A by ``row_terms``. ``log_mass_by_count``
takes rows as an index into those terms and a mode, so the run-length
state, whose rows share one A per pass count, computes each term once
per count; ``log_grid_mass`` is the same code with one entry per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .transport import ForwardModel, forward_concentration

DEFAULT_Q_MIN_G_PER_S = 0.0
DEFAULT_Q_MAX_G_PER_S = 5.0
DEFAULT_DQ_G_PER_S = 0.005
# Rounding a grid step may take, in ulps of max(|q_min|, |q_max|).
GRID_SPACING_ULPS = 4
# Largest grid, in bytes of one array of its rates; a finer grid is
# rejected from its bounds, before any array exists, instead of failing
# with a MemoryError partway through a run.
MAX_GRID_BYTES = 2**30

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
WINDOW_MIN_HALF = math.ceil(WINDOW_HALF_WIDTH * INTERIOR_MIN_WIDTH)

# Grid values a batch of rows built for ``summarize_rows`` may hold: at
# most about 8 MiB an array, and one row at a time on a grid past 2^20
# points.
REPORT_BATCH_POINTS = 2**20

LOG_MAX_FLOAT = math.log(np.finfo(float).max)
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
POSTERIOR_OVERFLOW = "rate posterior density overflows at the top of the grid"
POSTERIOR_NOT_FINITE = "rate posterior terms overflow the float range"
NEGATIVE_CONCENTRATION = "integrated concentration must be non-negative"


@dataclass(frozen=True)
class QGrid:
    """Uniformly spaced candidate emission rates, inclusive of both ends."""

    q_min: float
    q_max: float
    dq: float
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.q_min, self.q_max, self.dq))):
            raise ValueError("grid bounds and dq must be finite")
        if not (self.q_min < self.q_max):
            raise ValueError("q_min must be below q_max")
        if self.dq <= 0:
            raise ValueError("dq must be positive")
        steps = (self.q_max - self.q_min) / self.dq
        need = (steps + 1) * 8
        if need > MAX_GRID_BYTES:
            raise ValueError(
                f"a grid with dq {self.dq!r} over [{self.q_min!r}, {self.q_max!r}] needs "
                f"{need:.3g} bytes per rate array, over the {MAX_GRID_BYTES} byte limit"
            )
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("grid span must be an integer number of dq steps")
        n = int(round(steps)) + 1
        if n < 3:
            raise ValueError("grid needs at least 3 points")
        values = self.q_min + self.dq * np.arange(n)
        # Each value rounds once, so a step is dq within an ulp or two of
        # the grid's largest magnitude, however fine dq is.
        spacing = np.diff(values)
        ulp = np.spacing(max(abs(self.q_min), abs(self.q_max)))
        if np.max(np.abs(spacing - self.dq)) > GRID_SPACING_ULPS * ulp:
            raise ValueError("grid spacing drifted beyond tolerance")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_points(self) -> int:
        return self.values.size


DEFAULT_GRID = QGrid(DEFAULT_Q_MIN_G_PER_S, DEFAULT_Q_MAX_G_PER_S, DEFAULT_DQ_G_PER_S)


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


def conjugate_terms(
    cy: float | np.ndarray, fm: ForwardModel, cfg: LikelihoodConfig
) -> tuple[float, np.ndarray]:
    """(a, b) with a = r^2 / sigma^2 and b = r cy / sigma^2 (an array shaped
    like ``cy``): with the forward map c = r q, a pass's likelihood is
    exp(b q - a q^2 / 2) times a factor free of q."""
    cy = np.asarray(cy, dtype=float)
    if (cy < 0).any():
        raise ValueError(NEGATIVE_CONCENTRATION)
    scale = fm.ratio / cfg.sigma_e
    return scale * scale, scale * (cy / cfg.sigma_e)


class RowTerms(NamedTuple):
    """The terms of ``log_grid_mass`` that depend on a row's precision A
    alone, one entry per value of a 1-D array of A (``row_terms``): so a
    caller whose rows share a few precisions computes them once per
    precision, and reads them through an index.

    ``width`` is sigma_q = A^-1/2; ``log_mass`` the interior path's
    log(2 pi / A) / 2, and log(q_max - q_min) where A is not positive;
    ``slack`` how far the mode may lie from the middle of the summed
    points for the interior path, -inf below 1.5 dq and +inf for a flat
    row, which then keeps its ``log_mass``; and c1, c3 and c5 the edge
    path's Euler-Maclaurin coefficients (``_edge_log_mass``).
    """

    precision: np.ndarray
    width: np.ndarray
    log_mass: np.ndarray
    slack: np.ndarray
    c1: np.ndarray
    c3: np.ndarray
    c5: np.ndarray


def row_terms(grid: QGrid, precision: np.ndarray) -> RowTerms:
    """The ``RowTerms`` of each entry of the 1-D array ``precision``."""
    precision = np.asarray(precision, dtype=float)
    with np.errstate(divide="ignore"):
        width = precision**-0.5
    log_mass = np.add(np.log(width), HALF_LOG_2PI)
    flat = ~(precision > 0)
    np.copyto(log_mass, math.log(grid.q_max - grid.q_min), where=flat)
    slack = _slack(grid, width)
    slack[flat] = np.inf
    # Read only for rows on the edge path, at least 10 dq wide; other
    # widths may overflow here.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = grid.dq / width
        r3 = r**3
        r5 = r3 * r * r
        c1 = r / 12.0 + r3 / 240.0 + r5 / 2016.0
        c3 = -(r3 / 720.0 + r5 / 3024.0)
        c5 = r5 / 30240.0
    return RowTerms(precision, width, log_mass, slack, c1, c3, c5)


def log_grid_mass(grid: QGrid, precision, mode) -> np.ndarray:
    """log Z for rows exp(-A (q - mode)^2 / 2), elementwise and broadcast.

    Z is dq times the row's sum over q_min .. q_max - dq. With the width
    sigma_q = A^-1/2, the path is:
    - interior (sigma_q >= 1.5 dq, mode 8 sigma_q inside the summed
      points): the Gaussian integral, log(2 pi / A) / 2, whose aliasing
      and tail errors are below 1e-15 relative;
    - flat (A = 0): log(q_max - q_min), exactly;
    - wide near an edge (10 dq <= sigma_q <= 100 (q_max - q_min), mode
      within 2 sigma_q of [q_min, q_max]): the erf integral over
      [q_min, q_max] plus Euler-Maclaurin endpoint terms through dq^6;
    - else (narrow rows, modes far outside): the exact log-sum-exp over
      the summed points in a window of at least 10 sigma_q about the
      clipped mode, by ``window_log_mass``.
    Each entry depends on its own row only. The terms of each precision
    are computed once, by ``row_terms``, and the paths taken by
    ``log_mass_by_count``.
    """
    precision = np.asarray(precision, dtype=float)
    mode = np.asarray(mode, dtype=float)
    out = np.empty(np.broadcast_shapes(precision.shape, mode.shape))
    counts = np.arange(precision.size).reshape(precision.shape)
    terms = row_terms(grid, precision.reshape(-1))
    log_mass_by_count(grid, terms, counts, mode, out, np.empty(out.shape))
    return out


def log_mass_by_count(
    grid: QGrid,
    terms: RowTerms,
    counts: np.ndarray,
    mode: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Write into ``out``, a C-contiguous array, the log Z of the rows
    (A, mode) with A the precision of entry ``counts`` of ``terms``, by the
    paths of ``log_grid_mass``. ``counts`` and ``mode`` broadcast to the
    shape of ``out``; ``scratch`` is an array of that shape the call may
    overwrite.

    Every entry first takes its precision's interior value, flat rows
    included. The rows on neither path are found once, as flat indices
    into the shape of ``out``, and only their counts and modes are taken
    by those indices.
    """
    np.copyto(out, np.take(terms.log_mass, counts))
    top = grid.q_max - grid.dq
    offset = np.subtract(mode, 0.5 * (grid.q_min + top), out=scratch)
    np.abs(offset, out=offset)
    # A NaN offset is not past its slack, and keeps the interior value.
    rows = np.flatnonzero(np.greater(offset, np.take(terms.slack, counts)))
    if not rows.size:
        return
    count = np.take(np.broadcast_to(counts, out.shape), rows)
    mode = np.take(np.broadcast_to(mode, out.shape), rows)
    width = terms.width[count]
    span = grid.q_max - grid.q_min
    edge = (
        (width >= EDGE_MIN_WIDTH * grid.dq)
        & (width <= EDGE_MAX_SPANS * span)
        & (np.abs(mode - 0.5 * (grid.q_min + grid.q_max)) <= 0.5 * span + EDGE_REACH * width)
    )
    entries = out.reshape(-1)
    if not edge.all():
        window = ~edge
        entries[rows[window]] = window_log_mass(grid, terms.precision[count[window]], mode[window])
        rows, count, mode, width = rows[edge], count[edge], mode[edge], width[edge]
    if rows.size:
        entries[rows] = _edge_log_mass(
            grid, mode, width, terms.c1[count], terms.c3[count], terms.c5[count]
        )


def _slack(grid: QGrid, width) -> np.ndarray:
    """How far a row of width sigma_q may lie from the middle of the
    summed points for the interior path: 8 sigma_q inside them, or -inf
    when the row is narrower than 1.5 dq."""
    top = grid.q_max - grid.dq
    return np.where(
        width >= INTERIOR_MIN_WIDTH * grid.dq,
        0.5 * (top - grid.q_min) - INTERIOR_MARGIN * width,
        -np.inf,
    )


def _interior(grid: QGrid, width, mode) -> np.ndarray:
    """Mask of the rows, of widths sigma_q and modes broadcast together,
    that ``log_grid_mass`` takes by its interior path: sigma_q >= 1.5 dq
    and the mode 8 sigma_q inside the summed points."""
    top = grid.q_max - grid.dq
    return ~(np.abs(mode - 0.5 * (grid.q_min + top)) > _slack(grid, width))


# erfc(6) is about 2e-17, below half an ulp of 1, so erf(x) is 1.0 from here on.
ERF_IS_ONE = 6.0


def _erf_gaps(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """erf(hi) - erf(lo), elementwise for lo <= hi with lo + hi >= 0: a
    difference of upper tails where lo >= 0, else a sum of two positive
    erf values, so neither form takes the difference of two numbers near 1.

    numpy has no erf, and a block step can send the edge path thousands of
    rows: ``math.erf``/``math.erfc`` map over plain lists of only the
    arguments each form needs, with erf(hi) taken as 1.0 at hi >= 6. Rows
    near one edge of a wide grid all take the sum form with erf(hi) = 1.0,
    so when every row does, the gaps are 1.0 + erf(-lo) from one map.
    """
    tails = lo >= 0
    if not tails.any() and (hi >= ERF_IS_ONE).all():
        return 1.0 + _map(math.erf, -lo)
    out = np.empty(lo.shape)
    out[tails] = _map(math.erfc, lo[tails]) - _map(math.erfc, hi[tails])
    sums = ~tails
    lo, hi = lo[sums], hi[sums]
    erf_hi = np.ones(hi.shape)
    below = hi < ERF_IS_ONE
    erf_hi[below] = _map(math.erf, hi[below])
    out[sums] = erf_hi + _map(math.erf, -lo)
    return out


def _map(f, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _edge_log_mass(
    grid: QGrid, mode: np.ndarray, width: np.ndarray, c1: np.ndarray, c3: np.ndarray, c5: np.ndarray
) -> np.ndarray:
    """log Z of wide rows: the erf integral plus Euler-Maclaurin terms.

    For f(q) = exp(-t^2 / 2), t = (q - mode) / sigma_q, the left sum with
    step h over [a, b] = [q_min, q_max] is the integral plus
    h/2 (f(a) - f(b)) + h^2/12 (f'(b) - f'(a)) - h^4/720 (f^(3)(b) - f^(3)(a))
    + h^6/30240 (f^(5)(b) - f^(5)(a)), with f^(m) = (-1/sigma_q)^m He_m(t) f;
    below, h f(t) (1/2 + c1 t + c3 t^3 + c5 t^5), with c1, c3 and c5
    polynomials in r = h / sigma_q that ``row_terms`` computes.
    """
    # t at [q_min, q_max], one row each.
    ends = np.empty((2, mode.size))
    np.subtract(grid.q_min, mode, out=ends[0])
    np.subtract(grid.q_max, mode, out=ends[1])
    ends /= width
    # erf(u_b) - erf(u_a), u = t / sqrt(2), reflected about the mode so
    # that the interval's middle is at or above it.
    u = ends * math.sqrt(0.5)
    np.negative(u, out=u, where=ends[0] + ends[1] < 0)
    gap = _erf_gaps(np.minimum(u[0], u[1]), np.maximum(u[0], u[1]))
    # exp(-t^2 / 2) (0.5 + t (c1 + t^2 (c3 + t^2 c5))), in place
    t2 = np.multiply(ends, ends, out=u)
    poly = t2 * c5
    poly += c3
    poly *= t2
    poly += c1
    poly *= ends
    poly += 0.5
    t2 *= -0.5
    terms = np.exp(t2, out=t2)
    terms *= poly
    # width sqrt(pi / 2) gap + dq (terms_a - terms_b), in place
    integral = width * math.sqrt(0.5 * math.pi)
    integral *= gap
    tails = np.subtract(terms[0], terms[1], out=terms[0])
    tails *= grid.dq
    integral += tails
    return np.log(integral, out=integral)


def window_log_mass(grid: QGrid, precision: np.ndarray, mode: np.ndarray) -> np.ndarray:
    """log Z of 1-D arrays of rows by log-sum-exp over the summed points
    about the mode clipped into the grid, in windows that stay inside the
    summed points: a half width of 10 sigma_q in grid steps, at least 15,
    rounded up to a power of two. Widest rows come first, in blocks of
    rows whose windows have one length, so each row's bits depend on that
    row alone, not on the rows it is called with.
    """
    with np.errstate(divide="ignore"):
        width = precision**-0.5
    n_sum = grid.n_points - 1
    centre = np.rint((np.clip(mode, grid.q_min, grid.q_max - grid.dq) - grid.q_min) / grid.dq)
    # Powers of two, so that a few window lengths serve all rows; the
    # least covers every row narrower than the interior path's 1.5 dq.
    need = np.maximum(np.ceil(WINDOW_HALF_WIDTH * width / grid.dq), WINDOW_MIN_HALF)
    half = np.minimum(np.exp2(np.ceil(np.log2(need))), n_sum).astype(int)
    out = np.empty(mode.shape)
    order = np.argsort(-half, kind="stable")
    while order.size:
        reach = half[order[0]]
        length = min(2 * reach + 1, n_sum)
        alike = int(np.searchsorted(-half[order], -reach, side="right"))
        rows, order = np.split(order, [min(alike, max(1, WINDOW_BLOCK_POINTS // length))])
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


def conjugate_densities(
    grid: QGrid, precision: np.ndarray, mode: np.ndarray, log_mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The densities exp(-A (q - mode)^2 / 2) / Z of rows given as 1-D
    arrays of (A, mode, log Z), shape (rows, n_points), with each row's
    largest log density and its left-Riemann total."""
    # A narrow row's log density far from its mode is -inf, and its density 0.
    with np.errstate(over="ignore"):
        log_density = _log_density(
            grid.values, precision[:, np.newaxis], mode[:, np.newaxis], log_mass[:, np.newaxis]
        )
        densities = np.exp(log_density)
    totals = np.sum(densities[:, :-1], axis=1) * grid.dq
    return densities, log_density.max(axis=1), totals


def built_summaries(
    grid: QGrid, precision: np.ndarray, mode: np.ndarray, log_mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mode, mean and standard deviation of rows given as 1-D arrays of
    (A, mode, log Z), each built on the grid by ``conjugate_densities``,
    and the largest log density and total it gives each row. The mode is
    the grid rate of highest density, the smallest on a tie."""
    densities, peaks, totals = conjugate_densities(grid, precision, mode, log_mass)
    means, stds = row_moments(grid, densities)
    return grid.values[np.argmax(densities, axis=1)], means, stds, peaks, totals


def summarize_rows(
    grid: QGrid, precision: np.ndarray, mode: np.ndarray, log_mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, str] | None]:
    """Mode, mean and standard deviation of rows given as 1-D arrays of
    (A, mode, log Z), as ``built_summaries`` gives them, and the first row
    that is no density on the grid with the reason, or None: its mode or
    log Z is not finite, its density overflows at q_max, which no
    integral weights, for a narrow row piled against it, or its total is
    not 1 within 1e-8. A row that is not finite is not built.

    A row on the interior path of ``log_grid_mass`` is not built. Its
    grid mean and std are its mode and A^-1/2 within 1e-13 relative: less
    than 1e-15 of its mass lies past the summed points, and at
    sigma_q >= 1.5 dq the grid's aliasing error is below 1e-17. Its mode
    column is the first maximum of its densities at the grid points next
    to its mode, the values its full row holds there. Other rows are
    built on the grid, ``REPORT_BATCH_POINTS`` values at a time.
    """
    with np.errstate(divide="ignore"):
        width = precision**-0.5
    finite = np.isfinite(mode) & np.isfinite(log_mass)
    interior = _interior(grid, width, mode) & finite
    modes, means, stds = np.empty(mode.shape), mode.copy(), width.copy()
    peaks, totals = np.full(mode.shape, np.nan), np.ones(mode.shape)
    rows = np.flatnonzero(interior)
    if rows.size:
        # A row's density falls away from its mode on either side, weakly
        # in floats, and c - 1 and c + 1 lie on either side of it, with c
        # the grid point nearest the mode. So a first maximum at c or c + 1
        # is the row's. One at c - 1 might tie a point before it: such a
        # row is built. The interior margin keeps these points in range.
        nearest = np.rint((mode[rows] - grid.q_min) / grid.dq).astype(int)
        points = nearest[:, np.newaxis] + np.arange(-1, 2)
        log_density = _log_density(
            grid.values[points],
            precision[rows, np.newaxis],
            mode[rows, np.newaxis],
            log_mass[rows, np.newaxis],
        )
        with np.errstate(over="ignore"):
            first = np.argmax(np.exp(log_density), axis=1)
        modes[rows] = grid.values[nearest - 1 + first]
        # The peak is among these points. The row integrates to 1 within
        # the interior path's own error, far inside the 1e-8 check.
        peaks[rows] = log_density.max(axis=1)
        interior[rows[first == 0]] = False
    built = np.flatnonzero(~interior & finite)
    per_batch = max(1, REPORT_BATCH_POINTS // grid.n_points)
    for lo in range(0, built.size, per_batch):
        rows = built[lo : lo + per_batch]
        modes[rows], means[rows], stds[rows], peaks[rows], totals[rows] = built_summaries(
            grid, precision[rows], mode[rows], log_mass[rows]
        )
    # exp is never negative, and a NaN fails the check it enters.
    good = (peaks <= LOG_MAX_FLOAT) & (np.abs(totals - 1.0) <= 1e-8)
    if good.all():
        return modes, means, stds, None
    row = int(np.argmin(good))
    if not finite[row]:
        return modes, means, stds, (row, POSTERIOR_NOT_FINITE)
    if not peaks[row] <= LOG_MAX_FLOAT:
        return modes, means, stds, (row, POSTERIOR_OVERFLOW)
    return modes, means, stds, (row, f"density integrates to {float(totals[row])!r}, not 1")


def _log_density(values: np.ndarray, precision, mode, log_mass) -> np.ndarray:
    # offset * offset * (-0.5 * precision) - log_mass, in place
    out = np.subtract(values, mode)
    out *= out
    out *= -0.5 * precision
    out -= log_mass
    return out


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


def estimate_sigma_e(passes: Sequence[float], q_true: float, fm: ForwardModel) -> float:
    """Residual noise scale around the forward prediction at a known rate.

    Uses the N-1 normalization over residuals cy_k - predicted(q_true),
    and raises ``ValueError`` if the estimate overflows the float range.
    """
    cys = [float(p) for p in passes]
    n = len(cys)
    if n < 2:
        raise InsufficientDataError("need at least 2 passes to estimate sigma_e")
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.subtract(cys, forward_concentration(q_true, fm))
    # Summed one after the other, so the estimate does not depend on
    # numpy's summation order.
    sigma_e = math.sqrt(sum(r * r for r in residuals.tolist()) / (n - 1))
    if not math.isfinite(sigma_e):
        raise ValueError("passes too far from the prediction at q_true: sigma_e overflows")
    return sigma_e
