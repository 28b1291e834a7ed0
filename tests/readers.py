"""Readers of the files the command line tools write, for tests that check
those files: each parses one schema of ``plumecpd.dataio`` and raises
``InputDataError`` with file and line context on schema problems.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from plumecpd.dataio import (
    INSTANCE_COLUMNS,
    PASS_REPORT_COLUMNS,
    REPORT_COLUMNS,
    _open_rows,
    _parse_float,
    read_raw_samples,
)
from plumecpd.detector import PassReport
from plumecpd.errors import InputDataError


def _parse_int(path: Path, line: int, row: dict, key: str) -> int:
    try:
        return int(row[key])
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"{path}:{line}: bad {key} value {row.get(key)!r}") from exc


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


def read_raw_grouped(path: Path) -> dict[str, dict[int, np.ndarray]]:
    """raw.csv's samples by experiment id, then pass index: each pass a
    view of the ``RawTable`` that ``read_raw_samples`` returns."""
    table = read_raw_samples(path)
    return dict(zip(table.experiment_ids, table.values()))
