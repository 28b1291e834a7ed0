"""CSV and JSON schemas used by the command line tools.

Each file's columns are listed once. Readers raise ``InputDataError``
with file and line context on schema problems. One writer writes every
CSV file from its column list, floats with ``repr``, so files round-trip
exactly and rerunning a command reproduces byte-identical output.
"""

from __future__ import annotations

import contextlib
import csv
import json
import operator
import os
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .detector import DetectionEvent, PassReports
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
    """One ``report.csv`` row: a sweep cell's scores keyed by REPORT_COLUMNS,
    None for a score the report leaves undefined."""
    recall_lo, recall_hi = report.recall_ci or (None, None)
    det_recall_lo, det_recall_hi = report.detection_recall_ci or (None, None)
    return {
        "experiment_id": exp.experiment_id,
        "x_m": exp.fetch_m,
        "lrr_or_jnr": axis_value,
        "threshold": threshold,
        "recall": report.recall,
        "recall_lo": recall_lo,
        "recall_hi": recall_hi,
        "det_recall": report.detection_recall,
        "det_recall_lo": det_recall_lo,
        "det_recall_hi": det_recall_hi,
        "det_delay": report.detection_delay,
        "fpr": report.false_positive_rate,
        "fpr_lo": report.false_positive_rate_ci[0],
        "fpr_hi": report.false_positive_rate_ci[1],
    }


# The encoding of every file the package writes, and of every CSV file it reads.
CSV_ENCODING = "utf-8"


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` in ``CSV_ENCODING`` via a sibling temp file and
    rename, so readers never see a half-written file and interrupted runs
    can be resumed. Any failure leaves no temp file behind; an ``OSError``
    is raised naming ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding=CSV_ENCODING)
        os.replace(tmp, path)
    except BaseException as exc:
        # Where the temp file could not be made, removing it fails too.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


class _CsvIds(dict):
    """Experiment ids as CSV fields, each quoted once, as csv's minimal
    quoting does: in double quotes, with each quote doubled, where it holds
    a comma, a double quote, CR or LF, and as it is otherwise."""

    def __missing__(self, exp_id: str) -> str:
        field = exp_id
        if any(c in exp_id for c in ',"\r\n'):
            field = '"' + exp_id.replace('"', '""') + '"'
        self[exp_id] = field
        return field


def _open_csv(path: Path):
    try:
        return open(path, newline="", encoding=CSV_ENCODING)
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def _decoding(path: Path):
    """Raise ``InputDataError`` naming ``path`` for bytes in it that do not decode."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: {exc}") from exc


def _open_rows(path: Path, required: Sequence[str]):
    with _open_csv(path) as handle, _decoding(path):
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


# Rows per chunk of the csv reader, which parses raw.csv and passes.csv
# a chunk at a time, so that it holds one chunk's Python strings and row
# buffers at once. The fast path parses the whole file in one call.
RAW_BLOCK_ROWS = 4096

# One raw sample; a RawTable holds its samples in an array of this dtype.
RAW_SAMPLE_DTYPE = np.dtype([(name, float) for name in RAW_COLUMNS[2:]])

# Suffixes by which np.loadtxt, given a path, decompresses the file.
_COMPRESSED_SUFFIXES = {".gz", ".bz2", ".xz", ".lzma"}


def _header_columns(path: Path, header: list[str], columns: Sequence[str]) -> list[int]:
    """Position of each of ``columns`` in a CSV file's header row."""
    missing = [c for c in columns if c not in header]
    if missing:
        raise InputDataError(f"{path}: missing columns {missing}")
    # A repeated column name reads as its last occurrence, as in DictReader.
    column = {name: i for i, name in enumerate(header)}
    return [column[name] for name in columns]


class _Codes(dict):
    """Experiment codes by id: looking up a new id numbers it, so ids are
    numbered in order of first appearance."""

    def __missing__(self, exp_id: str) -> int:
        self[exp_id] = code = len(self)
        return code


def _parse_column(values: Sequence, kind: type) -> tuple[np.ndarray, np.ndarray | None]:
    """Strings parsed with ``kind`` (int or float) into an array of that
    type, and a mask of the ones that do not parse (None when all do).
    Ints come back as Python ints in an object array where one does not
    parse or is past the int64 range, so that such a pass index is kept."""
    try:
        return np.fromiter(map(kind, values), kind, len(values)), None
    except (TypeError, ValueError, OverflowError):
        parsed = []
        bad = np.zeros(len(values), bool)
        for i, text in enumerate(values):
            try:
                parsed.append(kind(text))
            except (TypeError, ValueError):
                parsed.append(kind())
                bad[i] = True
        return np.array(parsed, object if kind is int else kind), bad if bad.any() else None


def _has_line_end(texts: Iterable[str]) -> bool:
    return any("\r" in text or "\n" in text for text in texts)


def _loadtxt_table(path: Path, header: list[str], where: list[int], columns: Sequence[str]):
    """The whole table parsed by one call of numpy's C reader on the file's
    path (its file mode, which reads in large blocks), as ``_csv_table``
    returns it with no unparsed values and no decode error. Ids are coded
    as they are read, so the parsed rows hold no strings.

    Raises ValueError for a file that reader cannot parse, and for one
    that file mode could read otherwise than the csv reader: one whose
    name numpy decompresses, or with a CR or LF in a header field or an
    id (file mode reads any line end as LF, inside quotes too).
    """
    if os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES or _has_line_end(header):
        raise ValueError("file mode could read the file otherwise")
    exp_codes = _Codes()
    dtype = np.dtype([("code", np.intp), (columns[1], int), *((c, float) for c in columns[2:])])
    with warnings.catch_warnings():
        # loadtxt warns of a file with no rows.
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(
            str(path), dtype=dtype, delimiter=",", quotechar='"', comments=None,
            skiprows=1, usecols=where, ndmin=1, encoding=CSV_ENCODING,
            converters={where[0]: exp_codes.__getitem__},
        )
    if _has_line_end(exp_codes):
        raise ValueError("an id holds a line end")
    return {"exp_codes": exp_codes, **{name: rows[name].copy() for name in dtype.names}}, {}, None


def _csv_table(handle, where: list[int], columns: Sequence[str]):
    """The rows left in an open table, read RAW_BLOCK_ROWS at a time with
    Python's csv, int and float parsers, up to the end of the first chunk
    with a value that does not parse, or up to the chunk whose bytes do
    not decode: (columns by name, with each row's experiment code as
    "code" and the codes of the ids as "exp_codes"; the first (row, text)
    of each number column that does not parse; the UnicodeDecodeError, or
    None). Blank lines are not rows; a missing field reads as None."""
    width = max(where) + 1
    rows = filter(None, csv.reader(handle))
    exp_codes = _Codes()
    kinds = [np.intp, int] + [float] * (len(columns) - 2)
    blocks = [[np.empty(0, kind) for kind in kinds]]
    bad: dict = {}
    error = None
    start = 0
    while not bad:
        try:
            block = list(islice(rows, RAW_BLOCK_ROWS))
        except UnicodeDecodeError as exc:
            error = exc
            break
        if not block:
            break
        if min(map(len, block)) < width:
            block = [row + [None] * (width - len(row)) for row in block]
        fields = list(zip(*block))
        ids = fields[where[0]]
        parsed = [np.fromiter(map(exp_codes.__getitem__, ids), np.intp, len(ids))]
        for name, i, kind in zip(columns[1:], where[1:], kinds[1:]):
            values, unparsed = _parse_column(fields[i], kind)
            parsed.append(values)
            if unparsed is not None:
                row = int(np.argmax(unparsed))
                bad[name] = (start + row, fields[i][row])
        blocks.append(parsed)
        start += len(block)
    parts = (np.concatenate(part) for part in zip(*blocks))
    return {"exp_codes": exp_codes, **dict(zip(["code", *columns[1:]], parts))}, bad, error


def _read_table(path: Path, columns: Sequence[str], checks: Sequence
                ) -> tuple[list, np.ndarray, np.ndarray, list[np.ndarray]]:
    """A CSV table of ``columns`` (experiment id, pass index, then float
    columns), each row put through ``checks`` in order: the experiment
    ids in order of first appearance, and arrays of each row's code (its
    experiment's position among the ids), pass index and float columns.

    A check is the name of a number column, whose values must parse, or a
    (mask, message) pair: ``mask(table)`` flags the rows that fail, where
    ``table`` holds the parsed columns by name, each row's experiment
    code as "code" and the codes of the ids as "exp_codes". ``message``
    is formatted with the failing row's columns.

    The fast path parses the whole file with one call of numpy's C reader
    (``_loadtxt_table``), so it holds the file's parsed rows at once:
    ``plumecpd ingest`` of a 400,000-row raw.csv (21.9 MB) peaks at about
    80 MB of resident memory. A file that path cannot read as the csv
    reader would is parsed by ``_csv_table``, the parser that defines what
    the file means. The checks run once, over whichever table was parsed:
    the earliest bad row raises ``InputDataError`` naming its line, where
    blank lines are not counted, as ``csv.DictReader`` counts; within a
    row the first failing check wins. Bytes that are not valid text raise
    ``InputDataError`` naming the file, unless a row before them fails.
    """
    with _open_csv(path) as handle, _decoding(path):
        header = next(csv.reader(handle), [])
        where = _header_columns(path, header, columns)
        try:
            table, bad, error = _loadtxt_table(path, header, where, columns)
        except ValueError:
            # The handle is still at the first data row.
            table, bad, error = _csv_table(handle, where, columns)
    firsts = []
    for order, check in enumerate(checks):
        if isinstance(check, str):
            if check in bad:
                firsts.append((bad[check][0], order))
        elif (mask := check[0](table)).any():
            firsts.append((int(np.argmax(mask)), order))
    if firsts:
        i, order = min(firsts)
        check = checks[order]
        if isinstance(check, str):
            problem = f"bad {check} value {bad[check][1]!r}"
        else:
            exp_id = list(table["exp_codes"])[table["code"][i]]
            problem = check[1].format(experiment_id=exp_id, **{name: table[name][i] for name in columns[1:]})
        raise InputDataError(f"{path}:{i + 2}: {problem}")
    if error is not None:
        raise InputDataError(f"{path}: {error}") from error
    return list(table["exp_codes"]), table["code"], table["pass_index"], [table[name] for name in columns[2:]]


def _repeated_pairs(table: dict) -> np.ndarray:
    """Rows whose (experiment_id, pass_index) an earlier row of the file
    has: a stable sort by (code, pass_index) puts each pair's rows
    together in file order, so every row after the first is a repeat."""
    codes, index = table["code"], table["pass_index"]
    order = np.lexsort((index, codes))
    codes_sorted, index_sorted = codes[order], index[order]
    same = (codes_sorted[1:] == codes_sorted[:-1]) & (index_sorted[1:] == index_sorted[:-1])
    repeated = np.zeros(codes.size, bool)
    repeated[order[1:][same]] = True
    return repeated


_PASS_INDEX_CHECKS = [
    "pass_index",
    (lambda t: t["pass_index"] < 1, "pass_index must be at least 1, got {pass_index}"),
]

_ID_CHECK = (lambda t: np.array([not e for e in t["exp_codes"]], bool)[t["code"]], "empty experiment_id")

# Each file's checks in the order in which a row is read.
_RAW_CHECKS = [
    _ID_CHECK,
    *RAW_COLUMNS[2:],
    (lambda t: ~np.isfinite(t["time_s"]), "sample time must be finite"),
    (
        lambda t: ~(np.isfinite(t["mixing_ratio_ppm"]) & (t["mixing_ratio_ppm"] >= 0)),
        "mixing ratio must be finite and non-negative",
    ),
    (
        lambda t: ~(np.isfinite(t["vehicle_speed_mps"]) & (t["vehicle_speed_mps"] > 0)),
        "vehicle speed must be finite and positive",
    ),
    (
        lambda t: ~((0 < t["road_angle_deg"]) & (t["road_angle_deg"] <= 90)),
        "road angle must lie in (0, 90] degrees",
    ),
    *_PASS_INDEX_CHECKS,
]
_PASS_CHECKS = [
    _ID_CHECK,
    "cy_g_per_m2",
    (lambda t: ~np.isfinite(t["cy_g_per_m2"]), "non-finite cy_g_per_m2"),
    (lambda t: t["cy_g_per_m2"] < 0, "negative cy_g_per_m2"),
    *_PASS_INDEX_CHECKS,
    (_repeated_pairs, "duplicate pass_index {pass_index} for experiment {experiment_id!r}"),
]


@dataclass(frozen=True)
class RawTable:
    """The passes of raw.csv, sorted by experiment id, then pass index.

    ``experiment_ids`` lists the experiment ids in sorted order. Per pass,
    ``experiment`` holds its id's position in that list, ``pass_index``
    its index and ``lengths`` its sample count. ``samples``
    (RAW_SAMPLE_DTYPE) holds the passes' samples one pass after another,
    each pass's in time order (ties keep file order).
    """

    experiment_ids: list[str]
    experiment: np.ndarray
    pass_index: np.ndarray
    lengths: np.ndarray
    samples: np.ndarray

    def values(self) -> list[dict[int, np.ndarray]]:
        """Per experiment, in ``experiment_ids`` order, its passes' samples
        by pass index, as views of ``samples``."""
        stops = np.cumsum(self.lengths)
        grouped: list[dict[int, np.ndarray]] = [{} for _ in self.experiment_ids]
        for code, index, start, stop in zip(
            self.experiment.tolist(), self.pass_index.tolist(),
            (stops - self.lengths).tolist(), stops.tolist(),
        ):
            grouped[code][index] = self.samples[start:stop]
        return grouped


def read_raw_samples(path: Path) -> RawTable:
    """Raw analyzer samples as one table of passes.

    Rows are read and checked as ``_read_table`` describes, the whole file
    at once on its fast path: a bad row raises ``InputDataError`` naming
    its line.
    """
    names, codes, pass_index, floats = _read_table(path, RAW_COLUMNS, _RAW_CHECKS)
    # Renumber the codes to the experiments' sorted order.
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), np.intp)
    rank[by_name] = np.arange(len(names))
    codes = rank[codes]
    order = np.lexsort((floats[0], pass_index, codes))
    samples = np.empty(order.size, RAW_SAMPLE_DTYPE)
    for name, values in zip(RAW_SAMPLE_DTYPE.names, floats):
        samples[name] = values[order]
    codes, pass_index = codes[order], pass_index[order]
    new_pass = np.ones(order.size, bool)
    new_pass[1:] = (codes[1:] != codes[:-1]) | (pass_index[1:] != pass_index[:-1])
    starts = np.flatnonzero(new_pass)
    return RawTable(
        experiment_ids=[names[i] for i in by_name],
        experiment=codes[starts],
        pass_index=pass_index[starts],
        lengths=np.diff(np.r_[starts, order.size]),
        samples=samples,
    )


@dataclass(frozen=True)
class MetRow:
    experiment_id: str
    x_m: float
    met: MetSummary


def read_met(path: Path) -> dict[str, MetRow]:
    """Met rows per experiment: the ``MET_REQUIRED`` columns and an
    optional ``turb_intensity``. Any other column is ignored."""
    rows: dict[str, MetRow] = {}
    for line, row in _open_rows(path, MET_REQUIRED):
        exp = row["experiment_id"]
        if not exp:
            raise InputDataError(f"{path}:{line}: empty experiment_id")
        if exp in rows:
            raise InputDataError(f"{path}:{line}: duplicate experiment_id {exp!r}")
        try:
            met = MetSummary(
                mean_velocity_mps=_parse_float(path, line, row, "u_mean_mps"),
                sigma_u_mps=_parse_float(path, line, row, "sigma_u_mps"),
                sigma_w_mps=_parse_float(path, line, row, "sigma_w_mps"),
                friction_velocity_mps=_parse_float(path, line, row, "u_star_mps"),
                temperature_k=_parse_float(path, line, row, "temperature_K"),
                turbulent_intensity=(
                    _parse_float(path, line, row, "turb_intensity")
                    if row.get("turb_intensity")
                    else None
                ),
            )
        except ValueError as exc:
            raise InputDataError(f"{path}:{line}: {exc}") from exc
        rows[exp] = MetRow(exp, _parse_float(path, line, row, "x_m"), met)
    return rows


def read_passes(path: Path) -> dict[str, list[tuple[int, float]]]:
    """Reduced passes per experiment, sorted by pass index.

    Pass indices are 1-based and unique within an experiment. Rows are
    read and checked as ``_read_table`` describes: a bad row raises
    ``InputDataError`` naming its line.
    """
    names, codes, pass_index, (cy,) = _read_table(path, PASS_COLUMNS, _PASS_CHECKS)
    order = np.lexsort((pass_index, codes))
    codes, pass_index, cy = codes[order], pass_index[order], cy[order]
    splits = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    return {
        exp: list(zip(indices.tolist(), values.tolist()))
        for exp, indices, values in zip(names, np.split(pass_index, splits), np.split(cy, splits))
    }


def experiments_from_passes(
    passes: dict[str, list[tuple[int, float]]], met_rows: dict[str, MetRow]
) -> list[ExperimentRecord]:
    records = []
    for exp_id in sorted(passes):
        if exp_id not in met_rows:
            raise InputDataError(f"no met row for experiment {exp_id!r}")
        series = np.array([cy for _, cy in passes[exp_id]])
        try:
            records.append(ExperimentRecord(exp_id, met_rows[exp_id].x_m, series))
        except ValueError as exc:
            raise InputDataError(f"experiment {exp_id!r}: {exc}") from exc
    return records


# Column formatters: each turns a column's values into CSV fields.
def _ints(values: Iterable) -> Iterable[str]:
    return map(str, values)


def _floats(values: Iterable) -> Iterable[str]:
    return map(repr, map(float, values))


def _scores(values: Iterable) -> Iterable[str]:
    """Floats, with a None score as an empty field."""
    return ("" if value is None else repr(float(value)) for value in values)


def _write_csv(path: Path, columns: Sequence[str], values: Iterable[Sequence], formats: Sequence) -> None:
    """Write a CSV file of ``columns`` from ``values``, one sequence per
    column: the first holds experiment ids, quoted as ``_CsvIds`` quotes
    them, and each other is turned into fields by its entry of
    ``formats``."""
    values = list(values) or [()] * len(columns)
    fields = [map(_CsvIds().__getitem__, values[0]), *(fmt(v) for fmt, v in zip(formats, values[1:]))]
    lines = [",".join(columns), *map(",".join, zip(*fields))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_passes_csv(path: Path, rows: Iterable[tuple[str, int, float]]) -> None:
    _write_csv(path, PASS_COLUMNS, zip(*rows), [_ints, _floats])


def write_pass_reports_csv(path: Path, rows: Iterable[tuple[str, PassReports]]) -> None:
    """The reports of (experiment id, ``PassReports``) pairs, in order."""
    values: list[list] = [[] for _ in PASS_REPORT_COLUMNS]
    for exp, reports in rows:
        values[0] += [exp] * len(reports)
        for column, name in zip(values[1:], PASS_REPORT_COLUMNS[1:]):
            column += getattr(reports, name)
    _write_csv(path, PASS_REPORT_COLUMNS, values, [_ints] + [_floats] * 5)


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
    values: list[list] = [[] for _ in INSTANCE_COLUMNS]
    for exp, lrr, instances in batches:
        m, width = instances.shape
        n = width // 2
        values[0] += [exp] * instances.size
        values[1] += [lrr] * instances.size
        values[2] += np.repeat(np.arange(m), width).tolist()
        values[3] += list(range(1, width + 1)) * m
        values[4] += instances.ravel().tolist()
        values[5] += ([0] * n + [1] * (width - n)) * m
    _write_csv(path, INSTANCE_COLUMNS, values, [_floats, _ints, _ints, _floats, _ints])


def write_report_csv(path: Path, rows: Iterable[dict]) -> None:
    """Rows keyed by REPORT_COLUMNS; a None score is written blank."""
    values = zip(*map(operator.itemgetter(*REPORT_COLUMNS), rows))
    _write_csv(path, REPORT_COLUMNS, values, [_scores] * (len(REPORT_COLUMNS) - 1))
