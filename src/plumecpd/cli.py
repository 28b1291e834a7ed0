"""Command line front end.

Subcommands mirror the processing chain: ``ingest`` reduces raw analyzer
samples to per-pass integrated concentrations, ``calibrate`` estimates
the measurement noise scale from a known release rate, ``detect`` runs
the online detector over recorded passes, ``synth`` materializes
shuffled changepoint instances, and ``sweep`` scores detection
performance over a grid of jump sizes and thresholds.

Exit codes: 0 on success, 1 on evaluation/domain failures, 2 on missing
or malformed inputs and configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio
from .bocd import DEFAULT_LAMBDA
from .detector import DEFAULT_SIGMA_E_POST_FACTOR, DEFAULT_THRESHOLD, DetectorConfig, detect_series
from .errors import ConfigError, InputDataError, PlumeCpdError
from .inference import DEFAULT_GRID, MIN_SIGMA_E, QGrid, built_summaries, estimate_sigma_e
from .metrics import evaluate_cell
from .synthesis import ExperimentRecord, signal_stats, synthesize_batch
from .transport import (
    DEFAULT_SENSOR_HEIGHT_M,
    DEFAULT_SOURCE_HEIGHT_M,
    STANDARD_PRESSURE_PA,
    Geometry,
    build_forward_model,
    ambient_baseline,
    cross_plume_integrate,
    ppm_to_mass_concentration,
)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _add_geometry_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sensor-height", type=float, default=DEFAULT_SENSOR_HEIGHT_M)
    sub.add_argument("--source-height", type=float, default=DEFAULT_SOURCE_HEIGHT_M)


def _check_q_true(q_true: float) -> None:
    if not (q_true >= 0 and math.isfinite(q_true)):
        raise ConfigError(f"--q-true must be non-negative and finite, got {q_true!r}")


def _forward_model(met_row: dataio.MetRow, args: argparse.Namespace):
    """The experiment's forward model under the geometry flags; a fetch or
    flag the model cannot use is a configuration error."""
    try:
        geom = Geometry(met_row.x_m, args.sensor_height, args.source_height)
        return build_forward_model(met_row.met, geom)
    except ValueError as exc:
        raise ConfigError(f"experiment {met_row.experiment_id!r}: {exc}") from exc


def _sigma_e(exp: ExperimentRecord, q_true: float, fm) -> float:
    """The experiment's noise estimate at ``q_true``. An estimate below
    MIN_SIGMA_E, 0 included, is one no detector takes: it fails the
    experiment, as one that overflows does, naming it."""
    try:
        sigma_e = estimate_sigma_e(list(exp.cy_series), q_true, fm)
    except ValueError as exc:
        raise ValueError(f"experiment {exp.experiment_id!r}: {exc}") from exc
    if sigma_e < MIN_SIGMA_E:
        raise ValueError(
            f"experiment {exp.experiment_id!r}: sigma_e {sigma_e!r} is below {MIN_SIGMA_E:.3g}: "
            "passes too close to the prediction at q_true"
        )
    return sigma_e


def _sample_spacings(times: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Each sample's time step, for passes held one after another, and the
    position of the first pass with fewer than 2 samples or with sample
    times that do not increase (the pass count if there is none). The
    first sample of a pass takes the pass's first gap as its spacing;
    spacings hold for the passes before the first bad one."""
    starts = np.cumsum(lengths) - lengths
    with np.errstate(over="ignore"):
        gaps = np.diff(times)
    # A gap that ends at a pass's first sample spans two passes.
    within = np.ones(gaps.size, bool)
    within[starts[1:] - 1] = False
    short = np.flatnonzero(lengths < 2)[:1].tolist()
    unordered = np.searchsorted(starts, np.flatnonzero(within & ~(gaps > 0))[:1], "right") - 1
    bad = min(short + unordered.tolist(), default=lengths.size)
    spacings = np.r_[gaps[:1], gaps]
    spacings[starts[:bad]] = gaps[starts[:bad]]
    return spacings, bad


def cmd_ingest(args: argparse.Namespace) -> int:
    """Reduce raw.csv to passes.csv. Each experiment's baseline is
    subtracted and its samples converted at its temperature, then every
    pass is integrated in one call. The error raised is the first that
    the experiments meet, taken in sorted order: within one, its missing
    met row, then its first pass with fewer than 2 samples or with sample
    times that do not increase, then its first non-finite integral."""
    if not 0 < args.pressure < math.inf:
        raise ConfigError(f"--pressure must be positive and finite, got {args.pressure!r}")
    raw = dataio.read_raw_samples(Path(args.raw))
    met_rows = dataio.read_met(Path(args.met))
    ids, experiment, lengths, samples = raw.experiment_ids, raw.experiment, raw.lengths, raw.samples
    dts, bad_pass = _sample_spacings(samples["time_s"], lengths)
    no_met = next((code for code, exp_id in enumerate(ids) if exp_id not in met_rows), len(ids))
    # Only the experiments before the first with a missing met row or a bad
    # pass are integrated: an overflow among them is raised first.
    stop = min(no_met, int(experiment[bad_pass]) if bad_pass < lengths.size else len(ids))
    first_pass = np.searchsorted(experiment, np.arange(stop + 1))
    bounds = np.r_[0, np.cumsum(lengths)][first_pass]
    ppm = samples["mixing_ratio_ppm"]
    conc = np.empty(bounds[-1])
    for exp_id, lo, hi in zip(ids, bounds[:-1].tolist(), bounds[1:].tolist()):
        above = ppm[lo:hi] - ambient_baseline(ppm[lo:hi])
        above[above < 0] = 0.0
        # An overflow here shows as a non-finite integral, raised below.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            conc[lo:hi] = ppm_to_mass_concentration(
                above, met_rows[exp_id].met.temperature_k, args.pressure
            )
    n = conc.size
    cys = cross_plume_integrate(
        conc, dts[:n], samples["vehicle_speed_mps"][:n], samples["road_angle_deg"][:n],
        lengths[: first_pass[-1]],
    )
    overflows = np.flatnonzero(~np.isfinite(cys))
    if overflows.size:
        k = overflows[0]
        raise ValueError(
            f"experiment {ids[experiment[k]]!r} pass {raw.pass_index[k]}: cross-plume integral "
            "overflows the float range"
        )
    if stop < no_met:
        problem = "need at least 2 samples" if lengths[bad_pass] < 2 else "non-increasing sample times"
        raise InputDataError(f"experiment {ids[stop]!r} pass {raw.pass_index[bad_pass]}: {problem}")
    if stop < len(ids):
        raise InputDataError(f"no met row for experiment {ids[stop]!r}")
    out_ids = [ids[code] for code in experiment.tolist()]
    dataio.write_passes_csv(Path(args.out), zip(out_ids, raw.pass_index.tolist(), cys.tolist()))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    _check_q_true(args.q_true)
    passes = dataio.read_passes(Path(args.passes))
    met_rows = dataio.read_met(Path(args.met))
    sigma = {}
    for exp in dataio.experiments_from_passes(passes, met_rows):
        fm = _forward_model(met_rows[exp.experiment_id], args)
        sigma[exp.experiment_id] = _sigma_e(exp, args.q_true, fm)
    payload = {"q_true": args.q_true, "sigma_e": sigma}
    dataio.atomic_write_text(
        Path(args.out), json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return 0


# Config keys whose values are JSON numbers; 'sigma_e' may also map
# experiment ids to numbers.
_NUMBER_KEYS = {"q_min", "q_max", "dq", "sigma_e", "threshold", "lambda", "sigma_e_post_factor"}


def _check_number(path: Path, key: str, value: object) -> None:
    """Reject a config value that is not a JSON number: float() would read
    a string such as "0.0027", and a boolean, an int subclass, as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: config key {key} must be a number, got {value!r}")
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: config key {key} is past the float range, got {value!r}")


def _load_detect_config(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key, value in raw.items():
        if key not in _NUMBER_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        elif key == "sigma_e" and isinstance(value, dict):
            for exp_id, entry in value.items():
                _check_number(path, f"'sigma_e' entry {exp_id!r}", entry)
        else:
            _check_number(path, repr(key), value)
    if "sigma_e" not in raw:
        raise ConfigError(f"{path}: missing required key 'sigma_e'")
    return raw


def _detector_config(raw: dict, sigma_e: object, source: str) -> DetectorConfig:
    try:
        grid = QGrid(
            float(raw.get("q_min", DEFAULT_GRID.q_min)),
            float(raw.get("q_max", DEFAULT_GRID.q_max)),
            float(raw.get("dq", DEFAULT_GRID.dq)),
        )
        return DetectorConfig(
            threshold=float(raw.get("threshold", DEFAULT_THRESHOLD)),
            sigma_e_initial=float(sigma_e),
            lam=float(raw.get("lambda", DEFAULT_LAMBDA)),
            sigma_e_post_factor=float(raw.get("sigma_e_post_factor", DEFAULT_SIGMA_E_POST_FACTOR)),
            grid=grid,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def cmd_detect(args: argparse.Namespace) -> int:
    passes = dataio.read_passes(Path(args.passes))
    met_rows = dataio.read_met(Path(args.met))
    raw_cfg = _load_detect_config(Path(args.config))
    sigma_raw = raw_cfg["sigma_e"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    event_rows, report_rows = [], []
    for exp in dataio.experiments_from_passes(passes, met_rows):
        exp_id = exp.experiment_id
        if isinstance(sigma_raw, dict):
            if exp_id not in sigma_raw:
                raise ConfigError(f"config key 'sigma_e' has no entry for {exp_id!r}")
            sigma_e = sigma_raw[exp_id]
        else:
            sigma_e = sigma_raw
        cfg = _detector_config(raw_cfg, sigma_e, args.config)
        fm = _forward_model(met_rows[exp_id], args)
        indices = [idx for idx, _ in passes[exp_id]]
        reports, events = detect_series(
            exp.cy_series, fm, cfg, pass_indices=indices
        )
        report_rows.append((exp_id, reports))
        for event in events:
            # detect_series has checked the row: it is the previous pass's
            # report row, or the flat prior.
            row = np.array(event.pre_change_row)[:, np.newaxis]
            modes, _, stds, _, _ = built_summaries(cfg.grid, *row)
            event_rows.append((exp_id, event, float(modes[0]), float(stds[0])))
    dataio.write_events_json(out_dir / "events.json", event_rows)
    dataio.write_pass_reports_csv(out_dir / "passes_report.csv", report_rows)
    return 0


def _check_lrr(lrr: float, source: str) -> None:
    if not (lrr > 0 and math.isfinite(lrr)):
        raise ConfigError(f"{source} must be positive and finite, got {lrr!r}")


def cmd_synth(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {args.instances}")
    for lrr in args.lrr:
        _check_lrr(lrr, "--lrr")
    passes = dataio.read_passes(Path(args.passes))
    experiments = [
        ExperimentRecord(exp_id, 1.0, np.array([cy for _, cy in passes[exp_id]]))
        for exp_id in sorted(passes)
    ]
    batches = [
        (exp.experiment_id, lrr, synthesize_batch(exp, lrr, args.instances, args.seed))
        for exp in experiments
        for lrr in args.lrr
    ]
    dataio.write_instances_csv(Path(args.out), batches)
    return 0


def _canonical(value):
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.init
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@functools.cache
def _source_digests() -> list[list[str]]:
    """The sha256 of each of the package's modules, with its path relative
    to the package's parent, in sorted order: read once per process."""
    package = Path(__file__).resolve().parent
    return [
        [path.relative_to(package.parent).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest()]
        for path in sorted(package.glob("*.py"))
    ]


def _cell_key(payload: tuple) -> str:
    """Digest of everything a sweep cell's row depends on, for the resume
    cache: the cell's inputs and the package's source, so that no edit to
    the code outlives a cached row."""
    blob = json.dumps([_source_digests(), [_canonical(v) for v in payload]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sweep_cell_worker(payload: tuple) -> dict:
    exp, fm, cfg, lrr, axis_value, n_instances, n_repetitions, seed, n_boot = payload
    report = evaluate_cell(
        exp,
        lrr,
        cfg,
        n_instances=n_instances,
        n_repetitions=n_repetitions,
        master_seed=seed,
        fm=fm,
        n_boot=n_boot,
    )
    return dataio.sweep_row(exp, axis_value, cfg.threshold, report)


def _cached_row(cell_path: Path, key: str) -> dict | None:
    """The report row a sweep cell file holds for ``key``, or None for a
    cache miss: no file, or one that is not UTF-8 JSON of an object with
    that key and a row with the report's columns."""
    try:
        stored = json.loads(cell_path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):  # no file, not UTF-8, or not JSON
        return None
    if not (isinstance(stored, dict) and stored.get("key") == key):
        return None
    row = stored.get("row")
    if not (isinstance(row, dict) and row.keys() == set(dataio.REPORT_COLUMNS)):
        return None
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.lrr is not None and args.jnr is not None:
        raise ConfigError("pass at most one of --lrr or --jnr")
    if args.lrr is None and args.jnr is None:
        args.lrr = [1.5 + i for i in range(7)]
    for lrr in args.lrr or ():
        _check_lrr(lrr, "--lrr")
    for flag in ("instances", "repetitions", "boot", "workers"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    _check_q_true(args.q_true)
    passes = dataio.read_passes(Path(args.passes))
    met_rows = dataio.read_met(Path(args.met))
    experiments = dataio.experiments_from_passes(passes, met_rows)
    out_dir = Path(args.out)
    cell_dir = out_dir / "cells"
    cell_dir.mkdir(parents=True, exist_ok=True)

    try:
        grid = QGrid(args.q_min, args.q_max, args.dq)
        # One config per threshold, checked before any cell runs; each
        # experiment replaces the placeholder sigma_e with its own estimate.
        templates = [
            DetectorConfig(
                threshold=threshold,
                sigma_e_initial=1.0,
                lam=args.lam,
                grid=grid,
            )
            for threshold in args.threshold
        ]
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    cells = []
    for exp in experiments:
        fm = _forward_model(met_rows[exp.experiment_id], args)
        sigma_e = _sigma_e(exp, args.q_true, fm)
        axis = args.jnr if args.jnr is not None else args.lrr
        # Only --jnr needs the CV, which a constant experiment lacks.
        try:
            cv = signal_stats(exp.cy_series, 1.0).cv if args.jnr is not None else None
        except ValueError as exc:
            raise ValueError(f"experiment {exp.experiment_id!r}: {exc}") from exc
        for axis_value in axis:
            if args.jnr is not None:
                lrr = 1.0 + axis_value * cv
                source = f"experiment {exp.experiment_id!r}: the lrr of --jnr {axis_value!r}"
                _check_lrr(lrr, source)
            else:
                lrr = axis_value
            for template in templates:
                cfg = dataclasses.replace(template, sigma_e_initial=sigma_e)
                payload = (
                    exp,
                    fm,
                    cfg,
                    lrr,
                    axis_value,
                    args.instances,
                    args.repetitions,
                    args.seed,
                    args.boot,
                )
                cells.append((_cell_key(payload), payload))

    rows: list[dict | None] = [None] * len(cells)
    pending = []
    for i, (key, payload) in enumerate(cells):
        cell_path = cell_dir / f"cell_{i:05d}.json"
        rows[i] = _cached_row(cell_path, key)
        if rows[i] is None:
            pending.append((i, key, payload, cell_path))

    def store(i: int, key: str, row: dict, cell_path: Path) -> None:
        rows[i] = row
        dataio.atomic_write_text(
            cell_path, json.dumps({"key": key, "row": row}, sort_keys=True) + "\n"
        )

    if args.workers > 1 and pending:
        # The pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(args.workers, len(pending))) as pool:
            results = pool.map(_sweep_cell_worker, [p for _, _, p, _ in pending])
            for (i, key, _, cell_path), row in zip(pending, results):
                store(i, key, row, cell_path)
    else:
        for i, key, payload, cell_path in pending:
            store(i, key, _sweep_cell_worker(payload), cell_path)

    dataio.write_report_csv(out_dir / "report.csv", rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: a parse reads it
    and never changes it, and building it costs more than most parses."""
    parser = argparse.ArgumentParser(
        prog="plumecpd",
        description="Emission-rate estimation and online changepoint detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="reduce raw samples to per-pass cy values")
    ingest.add_argument("--raw", required=True)
    ingest.add_argument("--met", required=True)
    ingest.add_argument("--out", required=True)
    ingest.add_argument("--pressure", type=float, default=STANDARD_PRESSURE_PA)

    calibrate = sub.add_parser("calibrate", help="estimate sigma_e from a known rate")
    calibrate.add_argument("--passes", required=True)
    calibrate.add_argument("--met", required=True)
    calibrate.add_argument("--q-true", type=float, required=True)
    calibrate.add_argument("--out", required=True)
    _add_geometry_flags(calibrate)

    detect = sub.add_parser("detect", help="run the detector over recorded passes")
    detect.add_argument("--passes", required=True)
    detect.add_argument("--met", required=True)
    detect.add_argument("--config", required=True)
    detect.add_argument("--out", required=True)
    _add_geometry_flags(detect)

    synth = sub.add_parser("synth", help="write shuffled changepoint instances")
    synth.add_argument("--passes", required=True)
    synth.add_argument("--lrr", type=_float_list, required=True)
    synth.add_argument("--instances", type=int, default=10)
    synth.add_argument("--seed", type=_seed, default=0)
    synth.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="score detection over a jump-size grid")
    sweep.add_argument("--passes", required=True)
    sweep.add_argument("--met", required=True)
    sweep.add_argument("--q-true", type=float, required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--seed", type=_seed, default=0)
    sweep.add_argument("--lrr", type=_float_list)
    sweep.add_argument("--jnr", type=_float_list)
    sweep.add_argument("--threshold", type=_float_list, default=(DEFAULT_THRESHOLD,))
    sweep.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    sweep.add_argument("--instances", type=int, default=1000)
    sweep.add_argument("--repetitions", type=int, default=100)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--boot", type=int, default=10_000)
    sweep.add_argument("--q-min", type=float, default=DEFAULT_GRID.q_min)
    sweep.add_argument("--q-max", type=float, default=DEFAULT_GRID.q_max)
    sweep.add_argument("--dq", type=float, default=DEFAULT_GRID.dq)
    _add_geometry_flags(sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so that a handler replaced after the parser
    # was built is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (InputDataError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PlumeCpdError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
