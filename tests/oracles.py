"""Independent reference implementations used to pin expected values.

Everything here but the step oracle recomputes results from first
principles with plain numpy, so the package under test shares no code
path with it. The step oracle, ``StepOracle`` and the detector loops over
it, keeps the one-pass arithmetic of the run-length step and calls the
package's log Z and row builders once per pass: it pins the block step's
batching to that arithmetic, bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from plumecpd.bocd import DEFAULT_PRUNE_THRESHOLD, FAR_SIGMAS
from plumecpd.detector import DetectionEvent, PassReport
from plumecpd.errors import DetectionError, InputDataError, MeasurementIncompatibleError
from plumecpd.inference import (
    HALF_LOG_2PI,
    LOG_MAX_FLOAT,
    POSTERIOR_OVERFLOW,
    EmissionPosterior,
    LikelihoodConfig,
    conjugate_posterior,
    conjugate_terms,
    grid_integrate,
    log_grid_mass,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
)
from plumecpd.transport import ForwardModel, forward_concentration


def gaussian_pdf(x: np.ndarray | float, mu: np.ndarray | float, sigma: float):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def left_riemann(values: np.ndarray, dq: float) -> float:
    return float(np.sum(values[:-1]) * dq)


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


def ingest_passes_csv(path, temperature_k: dict, pressure_pa: float) -> str:
    """``passes.csv`` text that ``ingest`` writes for a raw.csv, one sample at a time.

    Nearest-rank 5th-percentile baseline per experiment, ppm to g/m^3 at
    the experiment's temperature, then a running sum of
    conc * dt * speed * sin(angle) per pass, where the first sample takes
    the first gap as its dt.
    """
    grouped = read_raw_rows(path)
    lines = ["experiment_id,pass_index,cy_g_per_m2"]
    for exp in sorted(grouped):
        if exp not in temperature_k:
            raise InputDataError(f"no met row for experiment {exp!r}")
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
            lines.append(f"{exp},{pass_index},{total!r}")
    return "\n".join(lines) + "\n"


class StepOracle:
    """The run-length state of B streams stepped one pass at a time: the
    arithmetic of the package's block step, one pass per call.

    Layout as ``bocd.RunLengthState``: slot j of ``precision`` (shared),
    ``mode`` and ``log_mass`` is run length k - j, slots k + 1 on hold the
    flat prior. Each call computes log Z of the pass's hypotheses in one
    ``log_grid_mass`` call, and both predictives, for every stream.
    """

    def __init__(self, n_streams: int, n_passes: int, grid) -> None:
        self.grid = grid
        self.precision = np.zeros(n_passes + 2)
        self.mode = np.zeros((n_streams, n_passes + 2))
        self.log_mass = np.full((n_streams, n_passes + 2), math.log(grid.q_max - grid.q_min))
        self.weights = np.ones((n_streams, 1))

    def select(self, keep: np.ndarray) -> None:
        self.mode, self.log_mass, self.weights = self.mode[keep], self.log_mass[keep], self.weights[keep]

    def full_run_posterior(self) -> EmissionPosterior:
        return conjugate_posterior(self.grid, self.precision[0], self.mode[0, 0], self.log_mass[0, 0])

    def advance(self, cys, fm, cfg, lam, method, prune_threshold) -> dict[int, str]:
        """Fold one measurement per stream; the reason of each stream that
        fails, whose new state is then meaningless. Raises ``ValueError``
        for a configuration no stream can run."""
        if not lam > 1:
            raise ValueError("expected run length lambda must exceed 1")
        if method not in ("scaling", "marginal"):
            raise ValueError(f"unknown predictive method {method!r}")
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
        if a > 0:
            new_mode = (precision * mode + b[:, np.newaxis]) / new_precision
            new_log_mass = log_grid_mass(grid, new_precision, new_mode)
            half_shrink = 0.5 * precision / new_precision
        else:
            new_mode, new_log_mass, half_shrink = mode, log_mass, 0.5
        if method == "marginal":
            z = (cys[:, np.newaxis] - ratio * mode) / sigma
            log_pis = new_log_mass - log_mass - half_shrink * z * z
            pis = np.exp(log_pis - (math.log(sigma) + HALF_LOG_2PI))
        else:
            if fm.dispersion_factor_per_m <= 0:
                raise ValueError("scaling predictive needs a positive dispersion factor")
            inverse = fm.advection_velocity_mps / fm.dispersion_factor_per_m
            q_star = cys * inverse
            inside = (grid.q_min <= q_star) & (q_star <= grid.q_max)
            pos = np.where(inside, (q_star - grid.q_min) / grid.dq, 0.0)
            j0 = np.minimum(pos.astype(int), grid.n_points - 2)
            frac = (pos - j0)[:, np.newaxis]
            offset = grid.values[np.stack([j0, j0 + 1])][..., np.newaxis] - mode
            with np.errstate(over="ignore", invalid="ignore"):
                lo, hi = np.exp(-0.5 * precision * offset * offset - log_mass)
                pis = (lo * (1.0 - frac) + hi * frac) * inverse
            pis[~(inside & np.isfinite(pis).all(axis=1))] = 0.0
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
        weights[weights < prune_threshold] = 0.0
        weights /= weights.sum(axis=1, keepdims=True)
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


def step_oracle_detect(cys, fms, cfg, pass_indices=None):
    """``detect_series`` stepping ``StepOracle`` one pass at a time and
    building each report's row on its own."""
    cys = np.asarray(cys, dtype=float)
    fms = [fms] * cys.size if isinstance(fms, ForwardModel) else fms
    if pass_indices is None:
        pass_indices = range(1, cys.size + 1)
    flat = uniform_prior(cfg.grid)
    lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
    state = StepOracle(1, cys.size, cfg.grid)
    posterior = flat
    reports, events = [], []
    for idx, cy, fm in zip(pass_indices, cys[:, np.newaxis], fms):
        previous = posterior
        try:
            errors = state.advance(
                cy, fm, lik_cfg, cfg.lam, cfg.predictive_method, DEFAULT_PRUNE_THRESHOLD
            )
            if errors:
                raise MeasurementIncompatibleError(errors[0])
            posterior = state.full_run_posterior()
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
            posterior = flat
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
            errors = state.advance(
                cys[live, k], fm, lik_cfg, cfg.lam, cfg.predictive_method, DEFAULT_PRUNE_THRESHOLD
            )
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
