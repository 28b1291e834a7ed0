"""Independent reference implementations used to pin expected values.

Everything here recomputes results from first principles with plain
numpy so the package under test shares no code path with the oracle.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from plumecpd.errors import InputDataError


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
    """Flat-prior posterior over the rate grid from a likelihood product."""
    prior = 1.0 / (q_values[-1] - q_values[0])
    prod = np.full(q_values.shape, prior)
    for cy in cys:
        prod = prod * gaussian_pdf(cy, q_values * ratio, sigma_e)
    return prod / left_riemann(prod, dq)


def grid_moments(density: np.ndarray, q_values: np.ndarray, dq: float):
    mean = float(np.sum(q_values[:-1] * density[:-1]) * dq)
    var = float(np.sum((q_values[:-1] - mean) ** 2 * density[:-1]) * dq)
    return mean, math.sqrt(max(var, 0.0))


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
