"""Independent reference implementations used to pin expected values.

Everything here but the step oracle recomputes results from first
principles with plain numpy, so the package under test shares no code
path with it; the synthesis oracle takes its generators from the
package's ``instance_rng``. The step oracle, ``StepOracle`` and the
detector loops over it, keeps the one-pass arithmetic of the run-length
step and calls the package's log Z once per pass: it pins the block
step's rows and reports to that arithmetic bit for bit, and its folded
weights to the one-pass weight recursion within 1e-12.

The full-grid rate posterior, ``EmissionPosterior``, lives here too. The
package holds a rate posterior only as (A, mode, log Z); tests build
such a row on the grid with ``conjugate_posterior``, which repeats the
package's arithmetic, and read it with ``posterior_mode`` and
``posterior_mean_std``, the latter through the package's ``row_moments``.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from plumecpd.bocd import FAR_SIGMAS
from plumecpd.detector import DetectionEvent, PassReport
from plumecpd.errors import DetectionError, InputDataError, PlumeCpdError
from plumecpd.inference import (
    HALF_LOG_2PI,
    LOG_MAX_FLOAT,
    POSTERIOR_OVERFLOW,
    LikelihoodConfig,
    QGrid,
    conjugate_terms,
    log_grid_mass,
    row_moments,
)
from plumecpd.synthesis import ExperimentRecord, instance_rng
from plumecpd.transport import forward_concentration


def gaussian_pdf(x: np.ndarray | float, mu: np.ndarray | float, sigma: float):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def left_riemann(values: np.ndarray, dq: float) -> float:
    return float(np.sum(values[:-1]) * dq)


def grid_integrate(grid: QGrid, values: np.ndarray) -> float:
    """Left-Riemann integral of grid-sampled values over [q_min, q_max]."""
    return left_riemann(values, grid.dq)


class MeasurementIncompatibleError(PlumeCpdError):
    """A measurement has zero probability everywhere on the rate grid, or a
    rate row built on the grid overflows: the oracles' failure, which the
    package reports as a ``DetectionError`` or a ``Steps`` error instead."""


@dataclass(frozen=True)
class EmissionPosterior:
    """A normalized probability density over the rate grid, built in full:
    the form tests check the package's (A, mode, log Z) rows against."""

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


def uniform_prior(grid: QGrid) -> EmissionPosterior:
    """Flat density 1 / (q_max - q_min) at every grid point."""
    density = np.full(grid.n_points, 1.0 / (grid.q_max - grid.q_min))
    return EmissionPosterior(grid, density)


def conjugate_posterior(
    grid: QGrid, precision: float, mode: float, log_mass: float | None = None
) -> EmissionPosterior:
    """The row exp(-A (q - mode)^2 / 2) / Z of (A, mode, log Z) =
    (``precision``, ``mode``, ``log_mass``) built on the grid, log Z from
    ``log_grid_mass`` when left out, with the package's arithmetic, so
    that it has the bits of the rows the package builds.

    Raises ``MeasurementIncompatibleError`` when the density overflows at
    q_max, which no integral weights, for a narrow row piled against it.
    """
    if log_mass is None:
        log_mass = float(log_grid_mass(grid, precision, mode))
    offset = grid.values - mode
    log_density = offset * offset * (-0.5 * precision) - log_mass
    if not log_density.max() <= LOG_MAX_FLOAT:
        raise MeasurementIncompatibleError(POSTERIOR_OVERFLOW)
    return EmissionPosterior(grid, np.exp(log_density))


def posterior_mode(posterior: EmissionPosterior) -> float:
    """Grid rate with the highest density; ties resolve to the smallest rate."""
    return float(posterior.grid.values[int(np.argmax(posterior.density))])


def posterior_mean_std(posterior: EmissionPosterior) -> tuple[float, float]:
    """Mean and standard deviation of the discretized posterior, by the
    package's ``row_moments``."""
    mean, std = row_moments(posterior.grid, posterior.density[np.newaxis])
    return float(mean[0]), float(std[0])


def segment_marginal(
    cys: list[float], q_values: np.ndarray, dq: float, ratio: float, sigma_e: float
) -> float:
    """Marginal likelihood of one constant-rate segment under a flat prior.

    ``ratio`` is the forward factor mapping a rate to an expected
    measurement (dispersion over advection velocity).
    """
    prior = 1.0 / (q_values[-1] - q_values[0])
    prod = np.full(q_values.shape, prior)
    for cy in cys:
        prod = prod * gaussian_pdf(cy, q_values * ratio, sigma_e)
    return left_riemann(prod, dq)


def brute_force_alpha(
    cys: list[float],
    q_values: np.ndarray,
    dq: float,
    ratio: float,
    sigma_e: float,
    lam: float,
) -> np.ndarray:
    """Joint run-length weights by explicit enumeration of change patterns.

    A pattern is the set of passes that begin a new segment (pass 1
    always does). Each measurement belongs to the segment that starts at
    or before it, every segment is scored by its flat-prior marginal
    likelihood, and each pass after the first contributes a hazard
    factor 1/lam when flagged and 1 - 1/lam otherwise. A pattern with
    its last segment starting at pass s yields run length k - s; when no
    pass past the first is flagged, the unobservable "restart at pass 1
    versus initial segment" split contributes to run lengths k - 1 and k
    with hazard weights 1/lam and 1 - 1/lam.
    """
    k = len(cys)
    h = 1.0 / lam
    alpha = np.zeros(k + 1)
    for flags in itertools.product([False, True], repeat=k - 1):
        starts = [1] + [j + 2 for j, on in enumerate(flags) if on]
        hazard_weight = math.prod(h if on else 1.0 - h for on in flags)
        bounds = starts + [k + 1]
        marginal = math.prod(
            segment_marginal(cys[a - 1 : b - 1], q_values, dq, ratio, sigma_e)
            for a, b in zip(bounds, bounds[1:])
        )
        joint = hazard_weight * marginal
        s_last = starts[-1]
        if s_last >= 2:
            alpha[k - s_last] += joint
        else:
            alpha[k - 1] += h * joint
            alpha[k] += (1.0 - h) * joint
    return alpha


def direct_posterior(
    cys: list[float], q_values: np.ndarray, dq: float, ratio: float, sigma_e: float
) -> np.ndarray:
    """Flat-prior posterior over the rate grid from a likelihood product,
    summed in log space so no grid point underflows."""
    log_prod = np.zeros(q_values.shape)
    for cy in cys:
        log_prod -= 0.5 * ((cy - q_values * ratio) / sigma_e) ** 2
    prod = np.exp(log_prod - log_prod[:-1].max())
    return prod / left_riemann(prod, dq)


def erf_gap(lo: float, hi: float) -> float:
    """erf(hi) - erf(lo) for lo <= hi with lo + hi >= 0, one pair at a
    time: a difference of upper tails when lo >= 0, else a sum of two
    positive erf values, so neither form takes the difference of two
    numbers near 1."""
    if lo >= 0:
        return math.erfc(lo) - math.erfc(hi)
    return math.erf(hi) + math.erf(-lo)


def grid_moments(density: np.ndarray, q_values: np.ndarray, dq: float):
    mean = float(np.sum(q_values[:-1] * density[:-1]) * dq)
    var = float(np.sum((q_values[:-1] - mean) ** 2 * density[:-1]) * dq)
    return mean, math.sqrt(max(var, 0.0))


# A grid norm below the smallest normal float has lost precision, and the
# quotient by it need not integrate to 1: renormalize such a product in
# log space, as if it had underflowed.
NORM_FLOOR = np.finfo(float).tiny


def likelihood_vector(cy, grid, fm, cfg) -> np.ndarray:
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
    with np.errstate(over="ignore" if reach >= 1e150 * cfg.sigma_e else "warn"):
        z = (cy[..., np.newaxis] - predicted) / cfg.sigma_e
        return np.exp(-0.5 * z * z) / (cfg.sigma_e * math.sqrt(2.0 * math.pi))


def log_space_update(grid, density: np.ndarray, likelihood: np.ndarray) -> np.ndarray | None:
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


def bayes_update_from_likelihood(prior: EmissionPosterior, likelihood: np.ndarray) -> EmissionPosterior:
    """Multiply a prior by a likelihood vector and renormalize, in log
    space when the product underflows or integrates to a subnormal number."""
    weighted = prior.density * likelihood
    evidence = grid_integrate(prior.grid, weighted)
    if evidence >= NORM_FLOOR and math.isfinite(evidence):
        return EmissionPosterior(prior.grid, weighted / evidence)
    density = log_space_update(prior.grid, prior.density, likelihood)
    if density is None:
        raise MeasurementIncompatibleError("measurement incompatible with the rate grid support")
    return EmissionPosterior(prior.grid, density)


def bayes_update(prior: EmissionPosterior, cy: float, fm, cfg) -> EmissionPosterior:
    """One recursive posterior update with a single pass measurement,
    formed on the grid."""
    return bayes_update_from_likelihood(prior, likelihood_vector(cy, prior.grid, fm, cfg))


def _raw_field(path, line: int, row: dict, key: str, kind):
    try:
        return kind(row[key])
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"{path}:{line}: bad {key} value {row.get(key)!r}") from exc


def read_raw_rows(path) -> dict:
    """Row-at-a-time raw.csv reader: {exp: {pass: [(time, ppm, speed, angle)]}}.

    Each row is read through ``csv.DictReader``, parsed field by field and
    checked in that order; a pass's samples are then sorted by time.
    """
    grouped: dict = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [
            c
            for c in ["experiment_id", "pass_index", "time_s", "mixing_ratio_ppm",
                      "vehicle_speed_mps", "road_angle_deg"]
            if c not in header
        ]
        if missing:
            raise InputDataError(f"{path}: missing columns {missing}")
        for line, row in enumerate(reader, start=2):
            exp = row["experiment_id"]
            if not exp:
                raise InputDataError(f"{path}:{line}: empty experiment_id")
            time_s, ppm, speed, angle = (
                _raw_field(path, line, row, key, float)
                for key in ["time_s", "mixing_ratio_ppm", "vehicle_speed_mps", "road_angle_deg"]
            )
            problem = None
            if not math.isfinite(time_s):
                problem = "sample time must be finite"
            elif not math.isfinite(ppm) or ppm < 0:
                problem = "mixing ratio must be finite and non-negative"
            elif not math.isfinite(speed) or speed <= 0:
                problem = "vehicle speed must be finite and positive"
            elif not 0 < angle <= 90:
                problem = "road angle must lie in (0, 90] degrees"
            if problem:
                raise InputDataError(f"{path}:{line}: {problem}")
            pass_index = _raw_field(path, line, row, "pass_index", int)
            if pass_index < 1:
                raise InputDataError(f"{path}:{line}: pass_index must be at least 1, got {pass_index}")
            grouped.setdefault(exp, {}).setdefault(pass_index, []).append(
                (time_s, ppm, speed, angle)
            )
    for passes in grouped.values():
        for samples in passes.values():
            samples.sort(key=lambda s: s[0])
    return grouped


def read_passes_rows(path) -> dict:
    """Row-at-a-time passes.csv reader: {exp: [(pass_index, cy)]}, each
    list sorted by pass index.

    Each row is read through ``csv.DictReader``, parsed field by field and
    checked in that order: the experiment id is not empty, cy parses and
    is finite and non-negative, the pass index parses and is at least 1,
    and (exp, pass index) is new.
    """
    grouped: dict = {}
    seen: set = set()
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in ["experiment_id", "pass_index", "cy_g_per_m2"] if c not in header]
        if missing:
            raise InputDataError(f"{path}: missing columns {missing}")
        for line, row in enumerate(reader, start=2):
            exp = row["experiment_id"]
            if not exp:
                raise InputDataError(f"{path}:{line}: empty experiment_id")
            cy = _raw_field(path, line, row, "cy_g_per_m2", float)
            if not math.isfinite(cy):
                raise InputDataError(f"{path}:{line}: non-finite cy_g_per_m2")
            if cy < 0:
                raise InputDataError(f"{path}:{line}: negative cy_g_per_m2")
            pass_index = _raw_field(path, line, row, "pass_index", int)
            if pass_index < 1:
                raise InputDataError(
                    f"{path}:{line}: pass_index must be at least 1, got {pass_index}"
                )
            if (exp, pass_index) in seen:
                raise InputDataError(
                    f"{path}:{line}: duplicate pass_index {pass_index} for experiment {exp!r}"
                )
            seen.add((exp, pass_index))
            grouped.setdefault(exp, []).append((pass_index, cy))
    for passes in grouped.values():
        passes.sort()
    return grouped


def csv_field(text: str) -> str:
    """``text`` as one field of a row that ``csv.writer`` writes with its
    default, minimal quoting."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow([text])
    return buffer.getvalue()[:-2]


def ingest_passes_csv(path, temperature_k: dict, pressure_pa: float) -> str:
    """``passes.csv`` text that ``ingest`` writes for a raw.csv, one sample at a time.

    Nearest-rank 5th-percentile baseline per experiment, ppm to g/m^3 at
    the experiment's temperature, then a running sum of
    conc * dt * speed * sin(angle) per pass, where the first sample takes
    the first gap as its dt. Ids are written as ``csv_field`` quotes them.
    """
    grouped = read_raw_rows(path)
    lines = ["experiment_id,pass_index,cy_g_per_m2"]
    for exp in sorted(grouped):
        if exp not in temperature_k:
            raise InputDataError(f"no met row for experiment {exp!r}")
        field = csv_field(exp)
        all_ppm = sorted(s[1] for samples in grouped[exp].values() for s in samples)
        baseline = all_ppm[(5 * len(all_ppm) + 99) // 100 - 1]
        # R = 8.314462618 J/(mol K), methane molar mass 16.04 g/mol
        molar_volume = 8.314462618 * temperature_k[exp] / pressure_pa
        for pass_index in sorted(grouped[exp]):
            samples = grouped[exp][pass_index]
            if len(samples) < 2:
                raise InputDataError(
                    f"experiment {exp!r} pass {pass_index}: need at least 2 samples"
                )
            times = [s[0] for s in samples]
            dts = [t1 - t0 for t0, t1 in zip(times, times[1:])]
            if any(dt <= 0 for dt in dts):
                raise InputDataError(
                    f"experiment {exp!r} pass {pass_index}: non-increasing sample times"
                )
            total = 0.0
            for (_, ppm, speed, angle), dt in zip(samples, [dts[0]] + dts):
                above = max(ppm - baseline, 0.0)
                conc = above * 1e-6 * 16.04 / molar_volume
                total += conc * dt * speed * math.sin(math.radians(angle))
            lines.append(f"{field},{pass_index},{total!r}")
    return "\n".join(lines) + "\n"


def synthesize_instances(
    exp: ExperimentRecord, lrr: float, n_instances: int, master_seed: int, start_index: int = 0
) -> np.ndarray:
    """Shuffle-and-scale instances built one at a time and stacked: each is
    ``rng.permutation`` of the series, then of the series times lrr."""
    instances = []
    for i in range(start_index, start_index + n_instances):
        rng = instance_rng(master_seed, exp.experiment_id, lrr, i)
        first = rng.permutation(exp.cy_series)
        second = rng.permutation(exp.cy_series * lrr)
        instances.append(np.concatenate([first, second]))
    return np.stack(instances)


class OutcomeLabel(enum.Enum):
    TP = "TP"
    DTP = "DTP"
    FN = "FN"
    FP = "FP"


def classify_outcome(
    events: Sequence[int], true_cp_index: int, n_passes: int
) -> OutcomeLabel:
    """Label one instance from the pass indices of its detection events."""
    if not 1 <= true_cp_index < n_passes:
        raise ValueError("true changepoint must lie strictly inside the stream")
    passes = sorted(int(e) for e in events)
    if any(p < 1 or p > n_passes for p in passes):
        raise ValueError("event pass index outside the stream")
    if not passes:
        return OutcomeLabel.FN
    if passes[0] <= true_cp_index:
        return OutcomeLabel.FP
    if passes[0] == true_cp_index + 1:
        return OutcomeLabel.TP
    return OutcomeLabel.DTP


@dataclass(frozen=True)
class LabelReport:
    tp: int
    dtp: int
    fn: int
    fp: int
    recall: float
    detection_recall: float
    false_positive_rate: float
    detection_delay: float | None


def compute_metrics(
    labels: Sequence[OutcomeLabel], delays: Sequence[float] = ()
) -> LabelReport:
    """Aggregate labels (and delays of detected instances) into metrics.

    ``delays`` must hold one entry per TP or DTP instance. The mean delay
    is only reported when every true change was detected, because a
    partially detected batch would bias it toward the easy instances.
    """
    if not labels:
        raise ValueError("no instances to score")
    tp = sum(1 for l in labels if l is OutcomeLabel.TP)
    dtp = sum(1 for l in labels if l is OutcomeLabel.DTP)
    fn = sum(1 for l in labels if l is OutcomeLabel.FN)
    fp = sum(1 for l in labels if l is OutcomeLabel.FP)
    detected = tp + dtp
    denom = detected + fn
    if denom == 0:
        raise ValueError("recall undefined: every instance was a false positive")
    if len(delays) != detected:
        raise ValueError("need exactly one delay per detected instance")
    detection_recall = detected / denom
    delay = float(np.mean(delays)) if detected and detection_recall == 1.0 else None
    return LabelReport(
        tp=tp,
        dtp=dtp,
        fn=fn,
        fp=fp,
        recall=tp / denom,
        detection_recall=detection_recall,
        false_positive_rate=fp / len(labels),
        detection_delay=delay,
    )


def label_first_alarms(alarms, n_passes: int) -> LabelReport:
    """Score first alarms through the label path: one label per instance
    of a 2N-pass stream whose change follows pass N, one delay per
    detected instance, then ``compute_metrics``."""
    labels, delays = [], []
    for first in np.asarray(alarms).tolist():
        label = classify_outcome([first] if first else [], n_passes, 2 * n_passes)
        labels.append(label)
        if label in (OutcomeLabel.TP, OutcomeLabel.DTP):
            delays.append(first - n_passes)
    return compute_metrics(labels, delays)


class StepOracle:
    """The run-length state of B streams stepped one pass at a time: the
    arithmetic of the package's block step, one pass per call, with the
    weights renormalized after every pass.

    Layout as ``bocd.RunLengthState``: slot j of ``precision`` (shared),
    ``mode`` and ``log_mass`` is run length k - j, slots k + 1 on hold the
    flat prior, and ``sums[:, i]`` and ``errs[:, i]`` are each stream's
    sum of b over its first i passes and the sum of that sum's rounding
    errors, each added one pass at a time by TwoSum. A slot's mode is its
    window of them, passes max(j, 1) .. k, over its precision. Each call
    computes log Z of the pass's hypotheses in one ``log_grid_mass``
    call, and their marginal predictives, for every stream.
    """

    def __init__(self, n_streams: int, n_passes: int, grid) -> None:
        self.grid = grid
        self.precision = np.zeros(n_passes + 2)
        self.sums = np.zeros((n_streams, n_passes + 1))
        self.errs = np.zeros((n_streams, n_passes + 1))
        self.mode = np.zeros((n_streams, n_passes + 2))
        self.log_mass = np.full((n_streams, n_passes + 2), math.log(grid.q_max - grid.q_min))
        self.weights = np.ones((n_streams, 1))

    def select(self, keep: np.ndarray) -> None:
        self.sums, self.errs, self.mode = self.sums[keep], self.errs[keep], self.mode[keep]
        self.log_mass, self.weights = self.log_mass[keep], self.weights[keep]

    def full_run_row(self) -> tuple[float, float, float]:
        """(A, mode, log Z) of stream 0's full run: the flat prior before its first pass."""
        return float(self.precision[0]), float(self.mode[0, 0]), float(self.log_mass[0, 0])

    def advance(self, cys, fm, cfg, lam) -> dict[int, str]:
        """Fold one measurement per stream; the reason of each stream that
        fails, whose new state is then meaningless. Raises ``ValueError``
        for a configuration no stream can run."""
        if not lam > 1:
            raise ValueError("expected run length lambda must exceed 1")
        grid, k = self.grid, self.weights.shape[1] - 1
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
        total = self.sums[:, k] + b
        part = total - self.sums[:, k]
        error = (self.sums[:, k] - (total - part)) + (b - part)
        self.sums[:, k + 1] = total
        self.errs[:, k + 1] = self.errs[:, k] + error
        if a > 0:
            starts = np.maximum(np.arange(k + 2) - 1, 0)
            window = total[:, np.newaxis] - self.sums[:, starts]
            window_error = self.errs[:, k + 1, np.newaxis] - self.errs[:, starts]
            new_mode = (window + window_error) / new_precision
            new_log_mass = log_grid_mass(grid, new_precision, new_mode)
            half_shrink = 0.5 * precision / new_precision
        else:
            new_mode, new_log_mass, half_shrink = mode, log_mass, 0.5
        z = (cys[:, np.newaxis] - ratio * mode) / sigma
        log_pis = new_log_mass - log_mass - half_shrink * z * z
        pis = np.exp(log_pis - (math.log(sigma) + HALF_LOG_2PI))
        pis[far] = 0.0

        h = 1.0 / lam
        unnormalized = np.empty((cys.size, k + 2))
        unnormalized[:, 0] = h * pis[:, k + 1] * self.weights.sum(axis=1)
        unnormalized[:, 1:] = self.weights * (1.0 - h) * pis[:, k::-1]
        evidence = unnormalized.sum(axis=1)
        errors: dict[int, str] = {}
        possible = (evidence > 0) & np.isfinite(evidence)
        if not possible.all():
            impossible = "observation impossible under all run-length hypotheses"
            errors = dict.fromkeys(np.flatnonzero(~possible).tolist(), impossible)
            unnormalized[~possible] = 1.0
            evidence[~possible] = 1.0
        weights = unnormalized / evidence[:, np.newaxis]
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
        return errors


def step_oracle_detect(cys, fm, cfg, pass_indices=None):
    """``detect_series`` stepping ``StepOracle`` one pass at a time and
    building each report's row on its own."""
    cys = np.asarray(cys, dtype=float)
    if pass_indices is None:
        pass_indices = range(1, cys.size + 1)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = StepOracle(1, cys.size, cfg.grid)
    reports, events = [], []
    for idx, cy in zip(pass_indices, cys[:, np.newaxis]):
        previous = state.full_run_row()
        try:
            errors = state.advance(cy, fm, lik_cfg, cfg.lam)
            if errors:
                raise MeasurementIncompatibleError(errors[0])
            posterior = conjugate_posterior(cfg.grid, *state.full_run_row())
        except (MeasurementIncompatibleError, ValueError) as exc:
            raise DetectionError(f"pass {idx}: {exc}") from exc
        cp = float(state.weights[0, 0])
        mean, std = posterior_mean_std(posterior)
        reports.append(
            PassReport(int(idx), float(cy[0]), cp, posterior_mode(posterior), mean, std)
        )
        if cp >= cfg.threshold:
            events.append(DetectionEvent(int(idx), cp, previous, len(events) + 1))
            state = StepOracle(1, cys.size, cfg.grid)
            lik_cfg = LikelihoodConfig(cfg.sigma_e_initial * cfg.sigma_e_post_factor)
    return reports, events


def step_oracle_first_alarms(cys, fm, cfg):
    """``first_alarms`` stepping ``StepOracle`` one pass at a time."""
    cys = np.asarray(cys, dtype=float)
    n_streams, n_passes = cys.shape
    passes = np.zeros(n_streams, dtype=int)
    cps = np.zeros(n_streams)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = StepOracle(n_streams, n_passes, cfg.grid)
    live = np.arange(n_streams)
    failures: dict[int, str] = {}
    for k in range(n_passes):
        try:
            errors = state.advance(cys[live, k], fm, lik_cfg, cfg.lam)
        except ValueError as exc:
            failures.update(dict.fromkeys(live.tolist(), f"pass {k + 1}: {exc}"))
            break
        cp = state.weights[:, 0]
        failed = np.zeros(live.size, dtype=bool)
        for b, reason in errors.items():
            failures[int(live[b])] = f"pass {k + 1}: {reason}"
            failed[b] = True
        alarm = (cp >= cfg.threshold) & ~failed
        passes[live[alarm]] = k + 1
        cps[live[alarm]] = cp[alarm]
        keep = ~(alarm | failed)
        if not keep.all():
            live = live[keep]
            if live.size == 0:
                break
            state.select(keep)
    if failures:
        row = min(failures)
        raise DetectionError(failures[row], instance=row)
    return passes, cps
