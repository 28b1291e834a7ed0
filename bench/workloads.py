"""The benchmark's workloads: seeded inputs, the CLI commands of one op,
and the check every op's output must pass.

Each workload writes its inputs into a directory during set-up. One op
runs one or two ``plumecpd`` subcommands in-process through
``plumecpd.cli.main`` into a fresh output directory, and ``check`` then
reads the outputs back with the benchmark's own parsing (not
``plumecpd.dataio``), so a reader defect cannot hide a writer defect.
Inputs depend on the seed only; the program never sees the seed except
as the ``--seed`` flag of ``sweep``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plumecpd import cli
from plumecpd.inference import estimate_sigma_e
from plumecpd.surrogate import DEFAULT_SURROGATE_MET, make_surrogate_experiment
from plumecpd.transport import (
    Geometry,
    build_forward_model,
    forward_concentration,
    ppm_to_mass_concentration,
)

SURROGATE_PASSES = 14
SURROGATE_CV = 0.5
SURROGATE_Q_TRUE = 0.5
SURROGATE_FETCH_M = 30.0
THRESHOLD = 0.8

MET_HEADER = "experiment_id,x_m,u_mean_mps,sigma_u_mps,sigma_w_mps,u_star_mps,temperature_K"
PASS_REPORT_HEADER = [
    "experiment_id",
    "pass_index",
    "cy_g_per_m2",
    "changepoint_probability",
    "mode_g_per_s",
    "mean_g_per_s",
    "std_g_per_s",
]
REPORT_HEADER = [
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

# Criteria 3 and 4 bounds: detection recall at a tripled rate, and the
# false-positive rate with no change at threshold 0.8.
MIN_DET_RECALL_LRR3 = 0.90
MAX_FPR_LRR1 = 0.02

# Raw transects, in the shape of scripts/make_demo_data.py: 40 samples
# at 2 Hz per pass over a Gaussian crossing profile.
SAMPLES_PER_PASS = 40
SAMPLE_HZ = 2.0
AMBIENT_PPM = 1.9
CROSSING_SIGMA_S = 2.5
PPM_NOISE = 0.001
PASS_SCATTER_CV = 0.35
# Ingested cy may differ from the generated target by the baseline
# residue of the ppm noise and the crossing's truncated tails; both stay
# near 1 % at these settings.
CY_REL_TOL = 0.05


class CheckFailed(Exception):
    """An op exited non-zero, or its output is missing, malformed or out of bounds."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    stream_shuffles: int  # long_stream passes = 14 * stream_shuffles
    sweep_instances: int  # per repetition, per cell
    sweep_repetitions: int
    campaign_experiments: int
    campaign_passes: int


FULL = Sizes(
    stream_shuffles=32,
    sweep_instances=40,
    sweep_repetitions=2,
    campaign_experiments=16,
    campaign_passes=60,
)
TINY = Sizes(
    stream_shuffles=2,
    sweep_instances=5,
    sweep_repetitions=1,
    campaign_experiments=2,
    campaign_passes=3,
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _met_line(exp_id: str, x_m: float) -> str:
    met = DEFAULT_SURROGATE_MET
    return (
        f"{exp_id},{x_m!r},{met.mean_velocity_mps!r},{met.sigma_u_mps!r},"
        f"{met.sigma_w_mps!r},{met.friction_velocity_mps!r},{met.temperature_k!r}"
    )


def _write_passes(path: Path, exp_id: str, series) -> None:
    lines = ["experiment_id,pass_index,cy_g_per_m2"]
    lines += [f"{exp_id},{i},{float(cy)!r}" for i, cy in enumerate(series, start=1)]
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path: Path, header: list[str]) -> list[dict]:
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != header:
            raise CheckFailed(f"{path.name}: header {reader.fieldnames}")
        return list(reader)


def _finite(path: Path, row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: bad {key} {row[key]!r}") from exc
    if not math.isfinite(value):
        raise CheckFailed(f"{path.name}: non-finite {key} {row[key]!r}")
    return value


class Workload:
    """One op's commands, its output check and the work it represents.

    ``work`` counts what one op processes: ``passes`` (transect passes),
    ``instances`` (independent series) and ``samples`` (input CSV data
    rows parsed).
    """

    name = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.inputs: Path | None = None

    def prepare(self, inputs: Path) -> None:
        raise NotImplementedError

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path) -> dict[str, str]:
        """Raise ``CheckFailed`` on a bad output; else return file digests."""
        raise NotImplementedError

    @property
    def work(self) -> dict[str, int]:
        raise NotImplementedError

    def run(self, out: Path) -> None:
        for argv in self.commands(out):
            code = cli.main(argv)
            if code != 0:
                raise CheckFailed(f"plumecpd {argv[0]} exited {code}")


class LongStream(Workload):
    """``detect`` over one long stationary experiment, reports on."""

    name = "long_stream"

    def prepare(self, inputs: Path) -> None:
        self.inputs = inputs
        exp, fm = make_surrogate_experiment(
            "E1", SURROGATE_PASSES, SURROGATE_CV, SURROGATE_Q_TRUE, SURROGATE_FETCH_M
        )
        rng = np.random.default_rng(self.seed)
        series = np.concatenate(
            [rng.permutation(exp.cy_series) for _ in range(self.sizes.stream_shuffles)]
        )
        self.n_passes = series.size
        _write_passes(inputs / "passes.csv", "E1", series)
        (inputs / "met.csv").write_text(
            f"{MET_HEADER}\n{_met_line('E1', SURROGATE_FETCH_M)}\n"
        )
        sigma_e = estimate_sigma_e(list(exp.cy_series), SURROGATE_Q_TRUE, fm)
        (inputs / "config.json").write_text(
            json.dumps({"sigma_e": sigma_e, "threshold": THRESHOLD}) + "\n"
        )

    def commands(self, out: Path) -> list[list[str]]:
        i = self.inputs
        return [
            [
                "detect",
                "--passes", str(i / "passes.csv"),
                "--met", str(i / "met.csv"),
                "--config", str(i / "config.json"),
                "--out", str(out),
            ]
        ]

    def check(self, out: Path) -> dict[str, str]:
        report = out / "passes_report.csv"
        rows = _read_csv(report, PASS_REPORT_HEADER)
        if len(rows) != self.n_passes:
            raise CheckFailed(f"{len(rows)} report rows for {self.n_passes} passes")
        for expected, row in enumerate(rows, start=1):
            if row["experiment_id"] != "E1" or row["pass_index"] != str(expected):
                raise CheckFailed(f"report row {expected} is for pass {row['pass_index']}")
            values = {key: _finite(report, row, key) for key in PASS_REPORT_HEADER[2:]}
            if not 0.0 <= values["changepoint_probability"] <= 1.0:
                raise CheckFailed(f"pass {expected}: changepoint probability out of [0, 1]")
            if values["std_g_per_s"] < 0:
                raise CheckFailed(f"pass {expected}: negative std")
        events_path = out / "events.json"
        if not events_path.is_file():
            raise CheckFailed("events.json was not written")
        if json.loads(events_path.read_text()) != []:
            raise CheckFailed("alarm raised on a stationary stream")
        return {"passes_report.csv": sha256(report), "events.json": sha256(events_path)}

    @property
    def work(self) -> dict[str, int]:
        return {"passes": self.n_passes, "instances": 1, "samples": self.n_passes}


def _file_stamps(directory: Path) -> dict[str, tuple[int, int]]:
    stamps = {}
    for path in directory.glob("*.json"):
        st = path.stat()
        stamps[path.name] = (st.st_ino, st.st_mtime_ns)
    return stamps


class SweepGrid(Workload):
    """``sweep --workers 1`` over an lrr 1 and an lrr 3 cell."""

    name = "sweep_grid"
    LRRS = (1.0, 3.0)

    def prepare(self, inputs: Path) -> None:
        self.inputs = inputs
        exp, _ = make_surrogate_experiment(
            "E1", SURROGATE_PASSES, SURROGATE_CV, SURROGATE_Q_TRUE, SURROGATE_FETCH_M
        )
        # Synthesis shuffles the passes itself; the stored order is seeded
        # only so that the input file, too, follows from the seed.
        series = np.random.default_rng(self.seed).permutation(exp.cy_series)
        _write_passes(inputs / "passes.csv", "E1", series)
        (inputs / "met.csv").write_text(
            f"{MET_HEADER}\n{_met_line('E1', SURROGATE_FETCH_M)}\n"
        )
        self.cache_hits = 0

    def commands(self, out: Path) -> list[list[str]]:
        i, s = self.inputs, self.sizes
        return [
            [
                "sweep",
                "--passes", str(i / "passes.csv"),
                "--met", str(i / "met.csv"),
                "--q-true", repr(SURROGATE_Q_TRUE),
                "--out", str(out),
                "--seed", str(self.seed),
                "--lrr", ",".join(repr(lrr) for lrr in self.LRRS),
                "--threshold", repr(THRESHOLD),
                "--instances", str(s.sweep_instances),
                "--repetitions", str(s.sweep_repetitions),
                "--workers", "1",
            ]
        ]

    def run(self, out: Path) -> None:
        """Run the op, counting cells served from the ``cells/`` resume cache.

        A hit is a cell file that existed before the op and that the op
        did not rewrite (``cmd_sweep`` stores every cell it computes by
        writing a new file and renaming it over the old one).
        """
        before = _file_stamps(out / "cells")
        super().run(out)
        after = _file_stamps(out / "cells")
        self.cache_hits = sum(1 for name, stamp in before.items() if after.get(name) == stamp)

    def check(self, out: Path) -> dict[str, str]:
        if self.cache_hits:
            raise CheckFailed(f"{self.cache_hits} cell(s) served from the resume cache")
        report = out / "report.csv"
        rows = _read_csv(report, REPORT_HEADER)
        if len(rows) != len(self.LRRS):
            raise CheckFailed(f"{len(rows)} report rows for {len(self.LRRS)} cells")
        by_lrr = {}
        for row in rows:
            for key in ("recall", "det_recall", "fpr"):
                if not 0.0 <= _finite(report, row, key) <= 1.0:
                    raise CheckFailed(f"report.csv: {key} out of [0, 1]")
            by_lrr[_finite(report, row, "lrr_or_jnr")] = row
        if sorted(by_lrr) != list(self.LRRS):
            raise CheckFailed(f"report.csv cells {sorted(by_lrr)}")
        det_recall = float(by_lrr[3.0]["det_recall"])
        if det_recall < MIN_DET_RECALL_LRR3:
            raise CheckFailed(f"lrr 3 det_recall {det_recall} < {MIN_DET_RECALL_LRR3}")
        fpr = float(by_lrr[1.0]["fpr"])
        if fpr > MAX_FPR_LRR1:
            raise CheckFailed(f"lrr 1 fpr {fpr} > {MAX_FPR_LRR1}")
        digests = {"report.csv": sha256(report)}
        for cell in sorted((out / "cells").glob("*.json")):
            digests[f"cells/{cell.name}"] = sha256(cell)
        return digests

    @property
    def work(self) -> dict[str, int]:
        s = self.sizes
        instances = len(self.LRRS) * s.sweep_instances * s.sweep_repetitions
        return {
            "passes": instances * 2 * SURROGATE_PASSES,
            "instances": instances,
            "samples": SURROGATE_PASSES,
        }


class IngestCampaign(Workload):
    """``ingest`` then ``calibrate`` on a generated multi-experiment campaign."""

    name = "ingest_campaign"

    def prepare(self, inputs: Path) -> None:
        self.inputs = inputs
        s = self.sizes
        met = DEFAULT_SURROGATE_MET
        rng = np.random.default_rng(self.seed)
        per_ppm = ppm_to_mass_concentration(1.0, met.temperature_k)
        t = np.arange(SAMPLES_PER_PASS) / SAMPLE_HZ
        raw = [",".join(cli.dataio.RAW_COLUMNS)]
        met_lines = [MET_HEADER]
        self.targets: dict[tuple[str, str], float] = {}
        for e in range(1, s.campaign_experiments + 1):
            exp_id = f"X{e:03d}"
            x_m = float(rng.integers(20, 61))
            met_lines.append(_met_line(exp_id, x_m))
            fm = build_forward_model(met, Geometry(x_m))
            mean_cy = forward_concentration(SURROGATE_Q_TRUE, fm)
            for k in range(1, s.campaign_passes + 1):
                cy = mean_cy * float(rng.lognormal(0.0, PASS_SCATTER_CV))
                speed = float(rng.uniform(2.5, 4.0))
                center = t.mean() + rng.normal(0.0, 0.5)
                profile = np.exp(-0.5 * ((t - center) / CROSSING_SIGMA_S) ** 2)
                peak = cy / (speed * CROSSING_SIGMA_S * math.sqrt(2.0 * math.pi))
                ppm = (AMBIENT_PPM + peak * profile / per_ppm) * (
                    1.0 + rng.normal(0.0, PPM_NOISE, size=t.size)
                )
                start = 60.0 * k
                raw += [
                    f"{exp_id},{k},{start + float(ti)!r},{float(c)!r},{speed!r},90"
                    for ti, c in zip(t, ppm)
                ]
                self.targets[(exp_id, str(k))] = cy
        (inputs / "raw.csv").write_text("\n".join(raw) + "\n")
        (inputs / "met.csv").write_text("\n".join(met_lines) + "\n")

    def commands(self, out: Path) -> list[list[str]]:
        i = self.inputs
        return [
            [
                "ingest",
                "--raw", str(i / "raw.csv"),
                "--met", str(i / "met.csv"),
                "--out", str(out / "passes.csv"),
            ],
            [
                "calibrate",
                "--passes", str(out / "passes.csv"),
                "--met", str(i / "met.csv"),
                "--q-true", repr(SURROGATE_Q_TRUE),
                "--out", str(out / "calibration.json"),
            ],
        ]

    def run(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        super().run(out)

    def check(self, out: Path) -> dict[str, str]:
        passes = out / "passes.csv"
        rows = _read_csv(passes, ["experiment_id", "pass_index", "cy_g_per_m2"])
        seen = set()
        for row in rows:
            key = (row["experiment_id"], row["pass_index"])
            if key not in self.targets or key in seen:
                raise CheckFailed(f"passes.csv: unexpected row {key}")
            seen.add(key)
            cy = _finite(passes, row, "cy_g_per_m2")
            target = self.targets[key]
            if cy < 0 or abs(cy - target) > CY_REL_TOL * target:
                raise CheckFailed(f"passes.csv: {key} cy {cy!r}, generated {target!r}")
        if len(seen) != len(self.targets):
            raise CheckFailed(f"{len(seen)} pass rows for {len(self.targets)} passes")
        calibration = out / "calibration.json"
        if not calibration.is_file():
            raise CheckFailed("calibration.json was not written")
        sigma = json.loads(calibration.read_text()).get("sigma_e", {})
        experiments = {exp_id for exp_id, _ in self.targets}
        if set(sigma) != experiments:
            raise CheckFailed(f"calibration.json covers {sorted(sigma)}")
        for exp_id, value in sigma.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise CheckFailed(f"calibration.json: sigma_e {value!r} for {exp_id}")
        return {"passes.csv": sha256(passes), "calibration.json": sha256(calibration)}

    @property
    def work(self) -> dict[str, int]:
        return {
            "passes": len(self.targets),
            "instances": self.sizes.campaign_experiments,
            "samples": len(self.targets) * SAMPLES_PER_PASS,
        }


WORKLOADS = {w.name: w for w in (LongStream, SweepGrid, IngestCampaign)}
