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
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, dataio
from .detector import DetectorConfig, detect_series
from .errors import ConfigError, InputDataError, PlumeCpdError
from .inference import QGrid, estimate_sigma_e, posterior_mean_std, posterior_mode
from .metrics import evaluate_cell
from .synthesis import signal_stats, synthesize_batch
from .transport import (
    DEFAULT_SENSOR_HEIGHT_M,
    DEFAULT_SOURCE_HEIGHT_M,
    STANDARD_PRESSURE_PA,
    Geometry,
    ReflectedGaussianDispersion,
    build_forward_model,
    ambient_baseline,
    cross_plume_integrate,
    ppm_to_mass_concentration,
)


# Largest grid, in bytes of one array of its rates; a finer grid is
# rejected as a configuration error up front instead of failing with a
# MemoryError partway through a run.
MAX_GRID_BYTES = 2**30


def _check_grid_size(q_min: float, q_max: float, dq: float, source: str) -> None:
    """Reject, from its bounds alone, a grid whose rates would take more
    than ``MAX_GRID_BYTES``; bounds that QGrid rejects are left to it."""
    if not dq > 0:
        return
    need = ((q_max - q_min) / dq + 1) * 8
    if need > MAX_GRID_BYTES:
        raise ConfigError(
            f"{source}: a grid with dq {dq!r} over [{q_min!r}, {q_max!r}] needs "
            f"{need:.3g} bytes per rate array, over the {MAX_GRID_BYTES} byte limit"
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
    sub.add_argument("--spread-factor", type=float, default=1.0)


def _check_q_true(q_true: float) -> None:
    if not (q_true >= 0 and math.isfinite(q_true)):
        raise ConfigError(f"--q-true must be non-negative and finite, got {q_true!r}")


def _forward_model(met_row: dataio.MetRow, args: argparse.Namespace):
    """The experiment's forward model under the geometry flags; a fetch or
    flag the model cannot use is a configuration error."""
    try:
        geom = Geometry(met_row.x_m, args.sensor_height, args.source_height)
        return build_forward_model(
            met_row.met, geom, model=ReflectedGaussianDispersion(args.spread_factor)
        )
    except ValueError as exc:
        raise ConfigError(f"experiment {met_row.experiment_id!r}: {exc}") from exc


def _sample_spacings(exp_id: str, pass_order: list[int], times: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
    """Each sample's time step, for passes held one after another; the
    first sample of a pass takes the pass's first gap as its spacing.
    Raises for the first pass with fewer than 2 samples or with sample
    times that do not increase."""
    starts = np.cumsum(lengths) - lengths
    with np.errstate(over="ignore"):
        gaps = np.diff(times)
    # A gap that ends at a pass's first sample spans two passes.
    within = np.ones(gaps.size, bool)
    within[starts[1:] - 1] = False
    short = np.flatnonzero(lengths < 2)[:1].tolist()
    unordered = np.searchsorted(starts, np.flatnonzero(within & ~(gaps > 0))[:1], "right") - 1
    if short or unordered.size:
        k = min(short + unordered.tolist())
        problem = "need at least 2 samples" if lengths[k] < 2 else "non-increasing sample times"
        raise InputDataError(f"experiment {exp_id!r} pass {pass_order[k]}: {problem}")
    spacings = np.r_[gaps[:1], gaps]
    spacings[starts] = gaps[starts]
    return spacings


def cmd_ingest(args: argparse.Namespace) -> int:
    if not 0 < args.pressure < math.inf:
        raise ConfigError(f"--pressure must be positive and finite, got {args.pressure!r}")
    raw = dataio.read_raw_samples(Path(args.raw))
    met_rows = dataio.read_met(Path(args.met))
    out_rows = []
    for exp_id in sorted(raw):
        if exp_id not in met_rows:
            raise InputDataError(f"no met row for experiment {exp_id!r}")
        passes = raw[exp_id]
        pass_order = sorted(passes)
        samples = np.concatenate([passes[p] for p in pass_order], dtype=dataio.RAW_SAMPLE_DTYPE)
        lengths = np.array([len(passes[p]) for p in pass_order])
        dts = _sample_spacings(exp_id, pass_order, samples["time_s"], lengths)
        ppm = samples["mixing_ratio_ppm"]
        above = ppm - ambient_baseline(ppm)
        above[above < 0] = 0.0
        # An overflow here shows as a non-finite integral, raised below.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            conc = ppm_to_mass_concentration(
                above, met_rows[exp_id].met.temperature_k, args.pressure
            )
        cys = cross_plume_integrate(
            conc, dts, samples["vehicle_speed_mps"], samples["road_angle_deg"], lengths
        )
        for pass_index, cy in zip(pass_order, cys.tolist()):
            if not math.isfinite(cy):
                raise ValueError(
                    f"experiment {exp_id!r} pass {pass_index}: cross-plume integral "
                    "overflows the float range"
                )
            out_rows.append((exp_id, pass_index, cy))
    dataio.write_passes_csv(Path(args.out), out_rows)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    _check_q_true(args.q_true)
    passes = dataio.read_passes(Path(args.passes))
    met_rows = dataio.read_met(Path(args.met))
    sigma = {}
    for exp in dataio.experiments_from_passes(passes, met_rows):
        fm = _forward_model(met_rows[exp.experiment_id], args)
        sigma[exp.experiment_id] = estimate_sigma_e(
            list(exp.cy_series), args.q_true, fm
        )
    payload = {"q_true": args.q_true, "sigma_e": sigma}
    dataio.atomic_write_text(
        Path(args.out), json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return 0


def _load_detect_config(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    known = {
        "q_min",
        "q_max",
        "dq",
        "sigma_e",
        "threshold",
        "lambda",
        "sigma_e_post_factor",
        "predictive",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    if "sigma_e" not in raw:
        raise ConfigError(f"{path}: missing required key 'sigma_e'")
    return raw


def _detector_config(raw: dict, sigma_e: object, source: str) -> DetectorConfig:
    try:
        bounds = (
            float(raw.get("q_min", 0.0)),
            float(raw.get("q_max", 5.0)),
            float(raw.get("dq", 0.005)),
        )
        _check_grid_size(*bounds, source)
        grid = QGrid(*bounds)
        return DetectorConfig(
            threshold=float(raw.get("threshold", 0.8)),
            sigma_e_initial=float(sigma_e),
            lam=float(raw.get("lambda", 15.0)),
            sigma_e_post_factor=float(raw.get("sigma_e_post_factor", 10.0)),
            grid=grid,
            predictive_method=raw.get("predictive", "marginal"),
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
        report_rows += [(exp_id, r) for r in reports]
        for event in events:
            mean, std = posterior_mean_std(event.pre_change_posterior)
            mode = posterior_mode(event.pre_change_posterior)
            event_rows.append((exp_id, event, mode, std))
    dataio.write_events_json(out_dir / "events.json", event_rows)
    dataio.write_pass_reports_csv(out_dir / "passes_report.csv", report_rows)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {args.instances}")
    for lrr in args.lrr:
        if not (lrr > 0 and math.isfinite(lrr)):
            raise ConfigError(f"--lrr must be positive and finite, got {lrr!r}")
    passes = dataio.read_passes(Path(args.passes))
    met_rows = dataio.read_met(Path(args.met)) if args.met else None
    if met_rows is not None:
        experiments = dataio.experiments_from_passes(passes, met_rows)
    else:
        from .synthesis import ExperimentRecord

        experiments = [
            ExperimentRecord(exp_id, 1.0, np.array([cy for _, cy in passes[exp_id]]))
            for exp_id in sorted(passes)
        ]
    rows = []
    for exp in experiments:
        for lrr in args.lrr:
            for i, inst in enumerate(
                synthesize_batch(exp, lrr, args.instances, args.seed)
            ):
                rows.append((exp.experiment_id, inst, i))
    dataio.write_instances_csv(Path(args.out), rows)
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


def _cell_key(payload: tuple) -> str:
    """Digest of everything a sweep cell's row depends on, for the resume cache."""
    blob = json.dumps([__version__, [_canonical(v) for v in payload]], sort_keys=True)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.lrr is not None and args.jnr is not None:
        raise ConfigError("pass at most one of --lrr or --jnr")
    if args.lrr is None and args.jnr is None:
        args.lrr = [1.5 + i for i in range(7)]
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

    _check_grid_size(args.q_min, args.q_max, args.dq, "sweep")
    try:
        grid = QGrid(args.q_min, args.q_max, args.dq)
        # One config per threshold, checked before any cell runs; each
        # experiment replaces the placeholder sigma_e with its own estimate.
        templates = [
            DetectorConfig(
                threshold=threshold,
                sigma_e_initial=1.0,
                lam=args.lam,
                sigma_e_post_factor=args.sigma_post_factor,
                grid=grid,
                predictive_method=args.predictive,
            )
            for threshold in args.threshold
        ]
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    cells = []
    for exp in experiments:
        fm = _forward_model(met_rows[exp.experiment_id], args)
        sigma_e = estimate_sigma_e(list(exp.cy_series), args.q_true, fm)
        axis = args.jnr if args.jnr is not None else args.lrr
        cv = signal_stats(exp.cy_series, 1.0).cv
        for axis_value in axis:
            lrr = 1.0 + axis_value * cv if args.jnr is not None else axis_value
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
        if cell_path.exists():
            stored = json.loads(cell_path.read_text())
            if stored.get("key") == key:
                rows[i] = stored["row"]
                continue
        pending.append((i, key, payload, cell_path))

    def store(i: int, key: str, row: dict, cell_path: Path) -> None:
        rows[i] = row
        dataio.atomic_write_text(
            cell_path, json.dumps({"key": key, "row": row}, sort_keys=True) + "\n"
        )

    if args.workers > 1 and pending:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = pool.map(_sweep_cell_worker, [p for _, _, p, _ in pending])
            for (i, key, _, cell_path), row in zip(pending, results):
                store(i, key, row, cell_path)
    else:
        for i, key, payload, cell_path in pending:
            store(i, key, _sweep_cell_worker(payload), cell_path)

    dataio.write_report_csv(out_dir / "report.csv", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    ingest.set_defaults(func=cmd_ingest)

    calibrate = sub.add_parser("calibrate", help="estimate sigma_e from a known rate")
    calibrate.add_argument("--passes", required=True)
    calibrate.add_argument("--met", required=True)
    calibrate.add_argument("--q-true", type=float, required=True)
    calibrate.add_argument("--out", required=True)
    _add_geometry_flags(calibrate)
    calibrate.set_defaults(func=cmd_calibrate)

    detect = sub.add_parser("detect", help="run the detector over recorded passes")
    detect.add_argument("--passes", required=True)
    detect.add_argument("--met", required=True)
    detect.add_argument("--config", required=True)
    detect.add_argument("--out", required=True)
    _add_geometry_flags(detect)
    detect.set_defaults(func=cmd_detect)

    synth = sub.add_parser("synth", help="write shuffled changepoint instances")
    synth.add_argument("--passes", required=True)
    synth.add_argument("--met")
    synth.add_argument("--lrr", type=_float_list, required=True)
    synth.add_argument("--instances", type=int, default=10)
    synth.add_argument("--seed", type=_seed, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    sweep = sub.add_parser("sweep", help="score detection over a jump-size grid")
    sweep.add_argument("--passes", required=True)
    sweep.add_argument("--met", required=True)
    sweep.add_argument("--q-true", type=float, required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--seed", type=_seed, default=0)
    sweep.add_argument("--lrr", type=_float_list)
    sweep.add_argument("--jnr", type=_float_list)
    sweep.add_argument("--threshold", type=_float_list, default=[0.8])
    sweep.add_argument("--lambda", dest="lam", type=float, default=15.0)
    sweep.add_argument("--instances", type=int, default=1000)
    sweep.add_argument("--repetitions", type=int, default=100)
    sweep.add_argument("--predictive", choices=["scaling", "marginal"], default="marginal")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--boot", type=int, default=10_000)
    sweep.add_argument("--q-min", type=float, default=0.0)
    sweep.add_argument("--q-max", type=float, default=5.0)
    sweep.add_argument("--dq", type=float, default=0.005)
    sweep.add_argument("--sigma-post-factor", type=float, default=10.0)
    _add_geometry_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputDataError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PlumeCpdError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
