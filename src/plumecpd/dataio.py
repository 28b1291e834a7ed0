"""CSV and JSON schemas used by the command line tools.

Readers raise ``InputDataError`` with file and line context on schema
problems. Writers format floats with ``repr`` so files round-trip
exactly and rerunning a command reproduces byte-identical output.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .detector import DetectionEvent, PassReport
from .errors import InputDataError
from .metrics import PerformanceReport
from .synthesis import ExperimentRecord
from .transport import MetSummary

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
    a half-written file and interrupted runs can be resumed. A failure
    is raised naming ``path`` and leaves no temp file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        # Where the temp file could not be made, removing it fails too.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


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


# Rows parsed per chunk of raw.csv. Parsing a chunk at a time bounds the
# memory the parsers hold, as Python strings and row buffers, to one
# chunk, whatever the file size.
RAW_BLOCK_ROWS = 4096

# One raw sample; read_raw_samples returns arrays of this dtype.
RAW_SAMPLE_DTYPE = np.dtype([(name, float) for name in RAW_COLUMNS[2:]])

# One raw.csv row as numpy's reader parses it, fields in RAW_COLUMNS order.
_RAW_ROW_DTYPE = np.dtype(
    [("experiment_id", object), ("pass_index", int), *RAW_SAMPLE_DTYPE.descr]
)


def _open_csv(path: Path):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc


def _header_columns(path: Path, handle, columns: Sequence[str]) -> list[int]:
    """Position of each of ``columns`` in the header row of an open CSV
    file, which is left at the first data row."""
    header = next(csv.reader(handle), [])
    missing = [c for c in columns if c not in header]
    if missing:
        raise InputDataError(f"{path}: missing columns {missing}")
    # A repeated column name reads as its last occurrence, as in DictReader.
    column = {name: i for i, name in enumerate(header)}
    return [column[name] for name in columns]


def _experiment_codes(ids: Sequence, exp_codes: dict) -> np.ndarray:
    """Code of each experiment id; ids new to ``exp_codes`` are added to
    it, numbered in order of first appearance."""
    ids = np.asarray(ids, dtype=object)
    # Rows of one experiment mostly come together: look up each run once.
    new_run = np.ones(ids.size, bool)
    new_run[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new_run)
    run_ids = ids[starts].tolist()
    for exp in dict.fromkeys(run_ids):
        exp_codes.setdefault(exp, len(exp_codes))
    codes = np.fromiter(map(exp_codes.__getitem__, run_ids), np.intp, len(run_ids))
    return np.repeat(codes, np.diff(np.r_[starts, ids.size]))


def _sample_checks(time_s, ppm, speed, angle) -> list[tuple[np.ndarray, str]]:
    """Mask of the samples failing each value check, with its message, in
    check order."""
    return [
        (~np.isfinite(time_s), "sample time must be finite"),
        (~(np.isfinite(ppm) & (ppm >= 0)), "mixing ratio must be finite and non-negative"),
        (~(np.isfinite(speed) & (speed > 0)), "vehicle speed must be finite and positive"),
        (~((0 < angle) & (angle <= 90)), "road angle must lie in (0, 90] degrees"),
    ]


def _parse_raw_rows(handle, where: list[int]) -> tuple[list, list[np.ndarray]] | None:
    """The rows left in an open raw.csv, parsed by numpy's C reader
    RAW_BLOCK_ROWS rows at a time, as ``_read_raw_checked`` returns them;
    None if a row does not parse or fails a check."""
    exp_codes: dict = {}
    blocks = []
    with warnings.catch_warnings():
        # loadtxt warns of blank lines under max_rows and of a chunk
        # with no rows; blank lines are skipped, as csv.DictReader does.
        warnings.simplefilter("ignore", UserWarning)
        while True:
            try:
                chunk = np.loadtxt(
                    handle, dtype=_RAW_ROW_DTYPE, delimiter=",", quotechar='"',
                    comments=None, usecols=where, max_rows=RAW_BLOCK_ROWS, ndmin=1,
                )
            except ValueError:
                return None
            codes = _experiment_codes(chunk["experiment_id"], exp_codes)
            # Copies, so that the chunk and its id strings can be freed.
            pass_index, *floats = (chunk[name].copy() for name in RAW_COLUMNS[1:])
            if "" in exp_codes or (pass_index < 1).any():
                return None
            if any(mask.any() for mask, _ in _sample_checks(*floats)):
                return None
            blocks.append([codes, pass_index, *floats])
            if len(chunk) < RAW_BLOCK_ROWS:
                break
    return list(exp_codes), [np.concatenate(parts) for parts in zip(*blocks)]


def _parse_column(values: Sequence, kind: type) -> tuple[np.ndarray, np.ndarray | None]:
    """Strings parsed with ``kind`` (int or float) into an array of that
    type, and a mask of the ones that do not parse (None when all do)."""
    try:
        return np.fromiter(map(kind, values), kind, len(values)), None
    except (TypeError, ValueError, OverflowError):
        parsed = np.zeros(len(values), kind)
        bad = np.zeros(len(values), bool)
        for i, text in enumerate(values):
            try:
                parsed[i] = kind(text)
            except (TypeError, ValueError, OverflowError):
                bad[i] = True
        return parsed, bad


def _raw_block(path: Path, first_line: int, rows: list[list[str]], where: list[int],
               exp_codes: dict) -> list[np.ndarray]:
    """Parse and check one block of raw rows into columns: experiment code,
    pass index, then the RAW_SAMPLE_DTYPE fields.

    Raises for the earliest bad row; within that row the checks run in the
    order listed below, which is the order in which a row is read.
    """
    width = max(where) + 1
    if min(map(len, rows)) < width:
        rows = [row + [None] * (width - len(row)) for row in rows]
    columns = list(zip(*rows))
    ids, pass_text, *float_text = (columns[i] for i in where)
    codes = _experiment_codes(ids, exp_codes)
    empty_id = np.isin(codes, [exp_codes[e] for e in ("", None) if e in exp_codes])
    floats, parse_checks = [], []
    for name, text in zip(RAW_COLUMNS[2:], float_text):
        values, bad = _parse_column(text, float)
        floats.append(values)
        parse_checks.append((bad, lambda i, name=name, text=text: f"bad {name} value {text[i]!r}"))
    pass_index, bad_pass = _parse_column(pass_text, int)
    checks = [
        (empty_id, lambda i: "empty experiment_id"),
        *parse_checks,
        *((mask, lambda i, message=message: message) for mask, message in _sample_checks(*floats)),
        (bad_pass, lambda i: f"bad pass_index value {pass_text[i]!r}"),
        (pass_index < 1, lambda i: f"pass_index must be at least 1, got {pass_index[i]}"),
    ]
    firsts = [(int(np.argmax(mask)), order) for order, (mask, _) in enumerate(checks)
              if mask is not None and mask.any()]
    if firsts:
        i, order = min(firsts)
        raise InputDataError(f"{path}:{first_line + i}: {checks[order][1](i)}")
    return [codes, pass_index, *floats]


def _read_raw_checked(path: Path) -> tuple[list[str], list[np.ndarray]]:
    """raw.csv read a block of rows at a time with Python's csv, float and
    int parsers, each row checked as it is read: the experiment ids, and
    the columns (experiment code, pass index, then the RAW_SAMPLE_DTYPE
    fields), an experiment's code being its position among the ids.

    Raises ``InputDataError`` for the earliest bad row, naming its line,
    where blank lines are not counted, as ``csv.DictReader`` counts.
    """
    exp_codes: dict = {}
    blocks = []
    with _open_csv(path) as handle:
        where = _header_columns(path, handle, RAW_COLUMNS)
        rows = filter(None, csv.reader(handle))
        line = 2
        while block := list(islice(rows, RAW_BLOCK_ROWS)):
            blocks.append(_raw_block(path, line, block, where, exp_codes))
            line += len(block)
    columns = [np.concatenate(parts) for parts in zip(*blocks)] or [np.empty(0)] * 6
    return list(exp_codes), columns


def read_raw_samples(path: Path) -> dict[str, dict[int, np.ndarray]]:
    """Raw analyzer samples grouped by experiment and pass, time-ordered.

    Each pass is a RAW_SAMPLE_DTYPE array view, its samples in time order
    (ties keep file order). numpy's C reader parses the file a chunk of
    RAW_BLOCK_ROWS rows at a time. A file it cannot parse, or with a value
    that fails a check, is read again by a reader built on Python's csv,
    float and int parsers, the one that defines what the file means: it
    raises ``InputDataError`` for the earliest bad row, naming its line,
    where blank lines are not counted, as ``csv.DictReader`` counts.
    """
    with _open_csv(path) as handle:
        where = _header_columns(path, handle, RAW_COLUMNS)
        parsed = _parse_raw_rows(handle, where)
    names, (codes, pass_index, *floats) = parsed or _read_raw_checked(path)
    if not codes.size:
        return {}
    order = np.lexsort((floats[0], pass_index, codes))
    samples = np.empty(order.size, RAW_SAMPLE_DTYPE)
    for name, values in zip(RAW_SAMPLE_DTYPE.names, floats):
        samples[name] = values[order]
    codes, pass_index = codes[order], pass_index[order]
    starts = np.flatnonzero(
        np.r_[True, (codes[1:] != codes[:-1]) | (pass_index[1:] != pass_index[:-1])]
    )
    stops = np.r_[starts[1:], order.size]
    grouped: dict[str, dict[int, np.ndarray]] = {}
    for start, stop, code, index in zip(
        starts.tolist(), stops.tolist(), codes[starts].tolist(), pass_index[starts].tolist()
    ):
        grouped.setdefault(names[code], {})[index] = samples[start:stop]
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


# One passes.csv row as numpy's reader parses it, fields in PASS_COLUMNS order.
_PASS_ROW_DTYPE = np.dtype(
    [("experiment_id", object), ("pass_index", int), ("cy_g_per_m2", float)]
)


def read_passes(path: Path) -> dict[str, list[tuple[int, float]]]:
    """Reduced passes per experiment, sorted by pass index.

    Pass indices are 1-based and unique within an experiment. numpy's C
    reader parses the file. A file it cannot parse, or with a row that
    fails a check, is read again row by row with Python's csv, float and
    int parsers, which define what the file means: that reader raises
    ``InputDataError`` for the first bad row, naming its line, where blank
    lines are not counted, as ``csv.DictReader`` counts.
    """
    with _open_csv(path) as handle:
        where = _header_columns(path, handle, PASS_COLUMNS)
        parsed = _parse_passes(handle, where)
    return _read_passes_checked(path) if parsed is None else parsed


def _parse_passes(handle, where: list[int]) -> dict[str, list[tuple[int, float]]] | None:
    """The rows left in an open passes.csv, parsed by numpy's C reader and
    grouped as ``read_passes`` returns them; None if a row does not parse
    or fails a check."""
    with warnings.catch_warnings():
        # loadtxt warns of a file with no rows.
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(
                handle, dtype=_PASS_ROW_DTYPE, delimiter=",", quotechar='"',
                comments=None, usecols=where, ndmin=1,
            )
        except ValueError:
            return None
    exp_codes: dict = {}
    codes = _experiment_codes(rows["experiment_id"], exp_codes)
    order = np.lexsort((rows["pass_index"], codes))
    codes, pass_index, cy = codes[order], rows["pass_index"][order], rows["cy_g_per_m2"][order]
    same_exp = codes[1:] == codes[:-1]
    if (
        not (np.isfinite(cy) & (cy >= 0)).all()
        or (pass_index < 1).any()
        or (same_exp & (pass_index[1:] == pass_index[:-1])).any()
    ):
        return None
    splits = np.flatnonzero(~same_exp) + 1
    return {
        exp: list(zip(indices.tolist(), values.tolist()))
        for exp, indices, values in zip(
            exp_codes, np.split(pass_index, splits), np.split(cy, splits)
        )
    }


def _read_passes_checked(path: Path) -> dict[str, list[tuple[int, float]]]:
    """``read_passes`` a row at a time through ``csv.DictReader``, each row
    checked as it is read."""
    grouped: dict[str, list[tuple[int, float]]] = {}
    seen: set[tuple[str, int]] = set()
    for line, row in _open_rows(path, PASS_COLUMNS):
        exp = row["experiment_id"]
        cy = _parse_float(path, line, row, "cy_g_per_m2")
        if not math.isfinite(cy):
            raise InputDataError(f"{path}:{line}: non-finite cy_g_per_m2")
        if cy < 0:
            raise InputDataError(f"{path}:{line}: negative cy_g_per_m2")
        pass_index = _parse_int(path, line, row, "pass_index")
        if pass_index < 1:
            raise InputDataError(f"{path}:{line}: pass_index must be at least 1, got {pass_index}")
        if (exp, pass_index) in seen:
            raise InputDataError(
                f"{path}:{line}: duplicate pass_index {pass_index} for experiment {exp!r}"
            )
        seen.add((exp, pass_index))
        grouped.setdefault(exp, []).append((pass_index, cy))
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


def write_instances_csv(path: Path, batches: Iterable[tuple[str, float, np.ndarray]]) -> None:
    """Every pass of (experiment id, lrr, instances) batches, the instances
    numbered from 0 as the rows of a ``synthesize_batch`` array: 2N passes
    each, the change after pass N."""
    lines = [",".join(INSTANCE_COLUMNS)]
    for exp, lrr, instances in batches:
        n = instances.shape[1] // 2
        for index, series in enumerate(instances):
            for k, cy in enumerate(series, start=1):
                lines.append(f"{exp},{_fmt(lrr)},{index},{k},{_fmt(cy)},{int(k > n)}")
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
