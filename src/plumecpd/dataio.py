"""CSV and JSON schemas used by the command line tools.

Readers raise ``InputDataError`` with file and line context on schema
problems. Writers format floats with ``repr`` so files round-trip
exactly and rerunning a command reproduces byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .detector import DetectionEvent, PassReport
from .errors import InputDataError
from .metrics import PerformanceReport
from .synthesis import ExperimentRecord, SynthesizedInstance
from .transport import MetSummary, RawSample

RAW_COLUMNS = [
    "experiment_id",
    "pass_index",
    "time_s",
    "mixing_ratio_ppm",
    "vehicle_speed_mps",
    "road_angle_deg",
]
PASS_COLUMNS = ["experiment_id", "pass_index", "cy_g_per_m2"]
MET_REQUIRED = [
    "experiment_id",
    "x_m",
    "u_mean_mps",
    "sigma_u_mps",
    "sigma_w_mps",
    "u_star_mps",
    "temperature_K",
]
MET_OPTIONAL = [
    "n_passes",
    "doy",
    "turb_intensity",
    "wind_dir_deg",
    "heat_flux_w_m2",
    "z_over_l",
    "obukhov_length_m",
    "z0_m",
]
REPORT_COLUMNS = [
    "experiment_id",
    "x_m",
    "lrr_or_jnr",
    "threshold",
    "recall",
    "recall_lo",
    "recall_hi",
    "det_recall",
    "det_recall_lo",
    "det_recall_hi",
    "det_delay",
    "fpr",
    "fpr_lo",
    "fpr_hi",
]
PASS_REPORT_COLUMNS = [
    "experiment_id",
    "pass_index",
    "cy_g_per_m2",
    "changepoint_probability",
    "mode_g_per_s",
    "mean_g_per_s",
    "std_g_per_s",
]
INSTANCE_COLUMNS = [
    "experiment_id",
    "lrr",
    "instance_index",
    "pass_index",
    "cy_g_per_m2",
    "is_post_change",
]


def sweep_row(
    exp: ExperimentRecord, axis_value: float, threshold: float, report: PerformanceReport
) -> dict:
    """One ``report.csv`` row: a sweep cell's scores keyed by REPORT_COLUMNS."""
    return {
        "experiment_id": exp.experiment_id,
        "x_m": exp.fetch_m,
        "lrr_or_jnr": axis_value,
        "threshold": threshold,
        "recall": report.recall,
        "recall_lo": report.recall_ci[0],
        "recall_hi": report.recall_ci[1],
        "det_recall": report.detection_recall,
        "det_recall_lo": report.detection_recall_ci[0],
        "det_recall_hi": report.detection_recall_ci[1],
        "det_delay": report.detection_delay,
        "fpr": report.false_positive_rate,
        "fpr_lo": report.false_positive_rate_ci[0],
        "fpr_hi": report.false_positive_rate_ci[1],
    }


def _fmt(value: float) -> str:
    return repr(float(value))


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see
    a half-written file and interrupted runs can be resumed."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _open_rows(path: Path, required: Sequence[str]):
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise InputDataError(f"{path}: missing columns {missing}")
        for line, row in enumerate(reader, start=2):
            yield line, row


def _parse_float(path: Path, line: int, row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"{path}:{line}: bad {key} value {row.get(key)!r}") from exc


def _parse_int(path: Path, line: int, row: dict, key: str) -> int:
    try:
        return int(row[key])
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"{path}:{line}: bad {key} value {row.get(key)!r}") from exc


def read_raw_samples(path: Path) -> dict[str, dict[int, list[RawSample]]]:
    """Raw analyzer samples grouped by experiment and pass, time-ordered."""
    grouped: dict[str, dict[int, list[RawSample]]] = {}
    for line, row in _open_rows(path, RAW_COLUMNS):
        exp = row["experiment_id"]
        if not exp:
            raise InputDataError(f"{path}:{line}: empty experiment_id")
        try:
            sample = RawSample(
                time_s=_parse_float(path, line, row, "time_s"),
                mixing_ratio_ppm=_parse_float(path, line, row, "mixing_ratio_ppm"),
                vehicle_speed_mps=_parse_float(path, line, row, "vehicle_speed_mps"),
                road_angle_deg=_parse_float(path, line, row, "road_angle_deg"),
            )
        except ValueError as exc:
            raise InputDataError(f"{path}:{line}: {exc}") from exc
        grouped.setdefault(exp, {}).setdefault(
            _parse_int(path, line, row, "pass_index"), []
        ).append(sample)
    for passes in grouped.values():
        for samples in passes.values():
            samples.sort(key=lambda s: s.time_s)
    return grouped


@dataclass(frozen=True)
class MetRow:
    experiment_id: str
    x_m: float
    met: MetSummary
    n_passes: int | None = None


def read_met(path: Path) -> dict[str, MetRow]:
    rows: dict[str, MetRow] = {}
    for line, row in _open_rows(path, MET_REQUIRED):
        exp = row["experiment_id"]
        if exp in rows:
            raise InputDataError(f"{path}:{line}: duplicate experiment_id {exp!r}")

        def opt(key: str) -> float | None:
            raw = row.get(key)
            if raw is None or raw == "":
                return None
            return _parse_float(path, line, row, key)

        try:
            met = MetSummary(
                mean_velocity_mps=_parse_float(path, line, row, "u_mean_mps"),
                sigma_u_mps=_parse_float(path, line, row, "sigma_u_mps"),
                sigma_w_mps=_parse_float(path, line, row, "sigma_w_mps"),
                friction_velocity_mps=_parse_float(path, line, row, "u_star_mps"),
                temperature_k=_parse_float(path, line, row, "temperature_K"),
                turbulent_intensity=opt("turb_intensity"),
                wind_direction_deg=opt("wind_dir_deg"),
                sensible_heat_flux_w_m2=opt("heat_flux_w_m2"),
                stability_z_over_l=opt("z_over_l"),
                obukhov_length_m=opt("obukhov_length_m"),
                surface_roughness_m=opt("z0_m"),
            )
        except ValueError as exc:
            raise InputDataError(f"{path}:{line}: {exc}") from exc
        n_passes = row.get("n_passes")
        rows[exp] = MetRow(
            experiment_id=exp,
            x_m=_parse_float(path, line, row, "x_m"),
            met=met,
            n_passes=_parse_int(path, line, row, "n_passes") if n_passes else None,
        )
    return rows


def read_passes(path: Path) -> dict[str, list[tuple[int, float]]]:
    """Reduced passes per experiment, sorted by pass index."""
    grouped: dict[str, list[tuple[int, float]]] = {}
    for line, row in _open_rows(path, PASS_COLUMNS):
        exp = row["experiment_id"]
        cy = _parse_float(path, line, row, "cy_g_per_m2")
        if not math.isfinite(cy):
            raise InputDataError(f"{path}:{line}: non-finite cy_g_per_m2")
        if cy < 0:
            raise InputDataError(f"{path}:{line}: negative cy_g_per_m2")
        grouped.setdefault(exp, []).append((_parse_int(path, line, row, "pass_index"), cy))
    for passes in grouped.values():
        passes.sort()
    return grouped


def experiments_from_passes(
    passes: dict[str, list[tuple[int, float]]], met_rows: dict[str, MetRow]
) -> list[ExperimentRecord]:
    records = []
    for exp_id in sorted(passes):
        if exp_id not in met_rows:
            raise InputDataError(f"no met row for experiment {exp_id!r}")
        row = met_rows[exp_id]
        records.append(
            ExperimentRecord(
                experiment_id=exp_id,
                fetch_m=row.x_m,
                cy_series=np.array([cy for _, cy in passes[exp_id]]),
                met=row.met,
            )
        )
    return records


def write_passes_csv(path: Path, rows: Iterable[tuple[str, int, float]]) -> None:
    lines = [",".join(PASS_COLUMNS)]
    lines += [f"{exp},{idx},{_fmt(cy)}" for exp, idx, cy in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_pass_reports_csv(path: Path, rows: Iterable[tuple[str, PassReport]]) -> None:
    lines = [",".join(PASS_REPORT_COLUMNS)]
    for exp, r in rows:
        lines.append(
            ",".join(
                [
                    exp,
                    str(r.pass_index),
                    _fmt(r.cy_g_per_m2),
                    _fmt(r.changepoint_probability),
                    _fmt(r.mode_g_per_s),
                    _fmt(r.mean_g_per_s),
                    _fmt(r.std_g_per_s),
                ]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_events_json(path: Path, rows: Iterable[tuple[str, DetectionEvent, float, float]]) -> None:
    """Events with the retained posterior summarized by its mode and std."""
    payload = [
        {
            "experiment_id": exp,
            "pass_index": event.pass_index,
            "changepoint_probability": event.changepoint_probability,
            "regime_index": event.regime_index,
            "retained_mode": mode,
            "retained_std": std,
        }
        for exp, event, mode, std in rows
    ]
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_instances_csv(
    path: Path, rows: Iterable[tuple[str, SynthesizedInstance, int]]
) -> None:
    lines = [",".join(INSTANCE_COLUMNS)]
    for exp, inst, index in rows:
        for k, cy in enumerate(inst.series, start=1):
            post = int(k > inst.true_cp_index)
            lines.append(
                f"{exp},{_fmt(inst.lrr)},{index},{k},{_fmt(cy)},{post}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report_csv(path: Path, rows: Iterable[dict]) -> None:
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        cells = []
        for col in REPORT_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, str):
                cells.append(value)
            elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                cells.append(str(value))
            else:
                cells.append(_fmt(value))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_pass_reports_csv(path: Path) -> list[tuple[str, PassReport]]:
    rows = []
    for line, row in _open_rows(path, PASS_REPORT_COLUMNS):
        rows.append(
            (
                row["experiment_id"],
                PassReport(
                    pass_index=_parse_int(path, line, row, "pass_index"),
                    cy_g_per_m2=_parse_float(path, line, row, "cy_g_per_m2"),
                    changepoint_probability=_parse_float(
                        path, line, row, "changepoint_probability"
                    ),
                    mode_g_per_s=_parse_float(path, line, row, "mode_g_per_s"),
                    mean_g_per_s=_parse_float(path, line, row, "mean_g_per_s"),
                    std_g_per_s=_parse_float(path, line, row, "std_g_per_s"),
                ),
            )
        )
    return rows


def read_events_json(path: Path) -> list[dict]:
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, list):
        raise InputDataError(f"{path}: expected a JSON array")
    return payload


def read_instances_csv(path: Path) -> list[dict]:
    rows = []
    for line, row in _open_rows(path, INSTANCE_COLUMNS):
        rows.append(
            {
                "experiment_id": row["experiment_id"],
                "lrr": _parse_float(path, line, row, "lrr"),
                "instance_index": _parse_int(path, line, row, "instance_index"),
                "pass_index": _parse_int(path, line, row, "pass_index"),
                "cy_g_per_m2": _parse_float(path, line, row, "cy_g_per_m2"),
                "is_post_change": _parse_int(path, line, row, "is_post_change"),
            }
        )
    return rows


def read_report_csv(path: Path) -> list[dict]:
    rows = []
    for line, row in _open_rows(path, REPORT_COLUMNS):
        parsed: dict = {"experiment_id": row["experiment_id"]}
        for col in REPORT_COLUMNS[1:]:
            parsed[col] = (
                None if row[col] == "" else _parse_float(path, line, row, col)
            )
        rows.append(parsed)
    return rows
