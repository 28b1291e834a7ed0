import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumecpd import cli, dataio
from plumecpd.cli import build_parser, main
from plumecpd.dataio import (
    read_events_json,
    read_instances_csv,
    read_pass_reports_csv,
    read_passes,
    read_report_csv,
    write_passes_csv,
)
from plumecpd.detector import DetectorConfig, detect_series
from plumecpd.errors import ConfigError, DetectionError, InputDataError
from plumecpd.inference import QGrid, estimate_sigma_e
from plumecpd.metrics import evaluate_cell
from plumecpd.surrogate import make_surrogate_experiment
from plumecpd.synthesis import synthesize_batch
from plumecpd.transport import forward_concentration

MET_HEADER = "experiment_id,x_m,u_mean_mps,sigma_u_mps,sigma_w_mps,u_star_mps,temperature_K"
MET_ROW_4 = "4,30,2.72,1.15,0.30,0.24,293.15"
RAW_HEADER = "experiment_id,pass_index,time_s,mixing_ratio_ppm,vehicle_speed_mps,road_angle_deg"


@pytest.fixture
def met_csv(tmp_path):
    path = tmp_path / "met.csv"
    path.write_text(MET_HEADER + "\n" + MET_ROW_4 + "\n")
    return path


@pytest.fixture
def exp4():
    return make_surrogate_experiment("4", 12, 0.4, 0.083)


def write_series(path, series, exp_id="4"):
    write_passes_csv(path, [(exp_id, i + 1, cy) for i, cy in enumerate(series)])


class TestIngest:
    def test_constant_ppm_gives_zero_cy(self, tmp_path, met_csv):
        raw = tmp_path / "raw.csv"
        lines = [RAW_HEADER]
        for pass_index in (1, 2):
            for i in range(3):
                lines.append(f"4,{pass_index},{i * 0.5},1.9,3.0,90")
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "passes.csv"
        assert main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(out)]) == 0
        passes = read_passes(out)
        assert [cy for _, cy in passes["4"]] == [0.0, 0.0]

    def test_hand_built_pass_matches_hand_integration(self, tmp_path, met_csv):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            RAW_HEADER + "\n"
            "4,1,0.0,2.0,2.0,90\n"
            "4,1,0.5,3.0,3.0,30\n"
            "4,1,1.1,4.0,4.0,90\n"
        )
        out = tmp_path / "passes.csv"
        assert main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(out)]) == 0
        cy = read_passes(out)["4"][0][1]
        # baseline is the minimum of the 3 samples (2.0 ppm); dt for the
        # first sample copies the first gap
        per_ppm = 1e-6 * 16.04 * 101325.0 / (8.314462618 * 293.15)
        expected = (
            0.0
            + (1.0 * per_ppm) * 0.5 * 3.0 * math.sin(math.radians(30.0))
            + (2.0 * per_ppm) * 0.6 * 4.0 * 1.0
        )
        assert cy == pytest.approx(expected, rel=1e-12)

    def test_missing_met_row_names_experiment(self, tmp_path, met_csv, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + "\n9,1,0.0,2.0,3.0,90\n9,1,0.5,2.1,3.0,90\n")
        out = tmp_path / "passes.csv"
        assert main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(out)]) == 2
        assert "'9'" in capsys.readouterr().err

    def test_single_sample_pass_rejected(self, tmp_path, met_csv, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + "\n4,1,0.0,2.0,3.0,90\n")
        assert (
            main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(tmp_path / "p.csv")])
            == 2
        )
        assert "at least 2 samples" in capsys.readouterr().err

    def test_non_increasing_times_rejected(self, tmp_path, met_csv, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + "\n4,1,0.5,2.0,3.0,90\n4,1,0.5,2.1,3.0,90\n")
        assert (
            main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(tmp_path / "p.csv")])
            == 2
        )
        assert "non-increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("ppm, speed", [("nan", "3.0"), ("2.0", "inf"), ("inf", "3.0")])
    def test_non_finite_sample_exits_two(self, tmp_path, met_csv, capsys, ppm, speed):
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + f"\n4,1,0.0,2.0,3.0,90\n4,1,0.5,{ppm},{speed},90\n")
        out = tmp_path / "passes.csv"
        assert main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(out)]) == 2
        assert "raw.csv:3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pressure", ["0", "-1", "nan", "inf"])
    def test_bad_pressure_exits_two_before_reading(self, tmp_path, met_csv, capsys, pressure):
        out = tmp_path / "passes.csv"
        argv = ["ingest", "--raw", str(tmp_path / "missing.csv"), "--met", str(met_csv), "--out", str(out)]
        with mock.patch.object(cli.dataio, "read_raw_samples", side_effect=AssertionError("read")):
            assert main(argv + ["--pressure", pressure]) == 2
        assert "--pressure must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pass_index", ["0", "-3"])
    def test_pass_index_below_one_exits_two(self, tmp_path, met_csv, capsys, pass_index):
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + f"\n4,{pass_index},0.0,2.0,3.0,90\n4,{pass_index},0.5,2.1,3.0,90\n")
        out = tmp_path / "passes.csv"
        assert main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(out)]) == 2
        assert "raw.csv:2: pass_index must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_integral_exits_one_before_writing(self, tmp_path, met_csv, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + "\n4,1,0.0,1e308,1e300,90\n4,1,1.0,0.0,1e300,90\n")
        out = tmp_path / "passes.csv"
        assert main(["ingest", "--raw", str(raw), "--met", str(met_csv), "--out", str(out)]) == 1
        assert "experiment '4' pass 1: cross-plume integral overflows" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "calibrate"])
def test_missing_output_directory_is_reported_for_the_target(tmp_path, met_csv, capsys, command):
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW_HEADER + "\n4,1,0.0,2.0,3.0,90\n4,1,0.5,2.1,3.0,90\n")
    passes = tmp_path / "passes.csv"
    write_series(passes, [0.007] * 4)
    out = tmp_path / "missing" / "out.csv"
    argv = {
        "ingest": ["ingest", "--raw", str(raw)],
        "calibrate": ["calibrate", "--passes", str(passes), "--q-true", "0.083"],
    }[command]
    assert main(argv + ["--met", str(met_csv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".tmp" not in err
    assert not out.parent.exists()


# Field values that break one check of the raw reader, by column.
CORRUPT_VALUES = {
    "experiment_id": [""],
    "pass_index": ["0", "-3", "1.5", "x", ""],
    "time_s": ["nan", "inf", "-inf", "x", ""],
    "mixing_ratio_ppm": ["-0.5", "nan", "inf", "x"],
    "vehicle_speed_mps": ["0", "-2.5", "nan", "inf", "x"],
    "road_angle_deg": ["0", "-5", "90.5", "nan", "x"],
}


def _with_digits(digits: str):
    return lambda text: text.translate(str.maketrans("0123456789", digits))


# Spellings of a numeric field that Python's float() and int() and
# numpy's parsers may read differently: NBSP padding, an underscore
# between digits, Arabic-Indic and fullwidth digits.
RESPELLINGS = [
    lambda text: "\xa0" + text + "\xa0",
    lambda text: re.sub(r"(\d)(\d)", r"\1_\2", text, count=1),
    _with_digits("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"),
    _with_digits("\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"),
]
# Mantissas of 17 digits and more.
FLOAT_RESPELLINGS = [
    lambda text: format(float(text), ".25g"),
    lambda text: text + "00000000000000000001" if "." in text and "e" not in text else text,
]
PASS_INDEX_RESPELLINGS = [lambda text: text + ".0", lambda text: "+" + text, lambda text: f" {text} "]


@st.composite
def raw_campaigns(draw):
    """A raw.csv text, the temperature per experiment and the parse block size.

    Several experiments and passes, rows in shuffled order, oblique road
    angles, subnormal mixing ratios, blank lines, an extra column, a
    quoted header, LF, CRLF or CR line ends, numbers spelled in ways numpy
    and Python may parse differently, and sometimes one corrupted,
    truncated or duplicated row.
    """
    temperature = {}
    rows = []
    for exp in draw(st.lists(st.sampled_from(["4", "A", "x 9", "exp,2", 'q"x']), min_size=1, max_size=3, unique=True)):
        temperature[exp] = draw(st.floats(250.0, 320.0))
        for pass_index in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True)):
            t = draw(st.floats(0.0, 100.0))
            for _ in range(draw(st.integers(2, 20))):
                t += draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
                ppm = draw(st.one_of(
                    st.floats(0.0, 40.0), st.just(-0.0), st.sampled_from([1.9, 2.0, 5e-324]),
                    st.floats(0.0, 2.2250738585072014e-308),
                ))
                speed = draw(st.floats(0.5, 20.0))
                angle = draw(st.one_of(st.just("90"), st.floats(1.0, 90.0).map(repr)))
                rows.append({
                    "experiment_id": exp, "pass_index": str(pass_index), "time_s": repr(t),
                    "mixing_ratio_ppm": repr(ppm), "vehicle_speed_mps": repr(speed),
                    "road_angle_deg": angle, "note": "n",
                })
    rows = draw(st.permutations(rows))
    respell = draw(st.booleans())
    for row in rows:
        if respell and draw(st.integers(0, 7)) == 0:
            column = draw(st.sampled_from(RAW_HEADER.split(",")[1:]))
            spellings = RESPELLINGS + (
                PASS_INDEX_RESPELLINGS if column == "pass_index" else FLOAT_RESPELLINGS
            )
            row[column] = draw(st.sampled_from(spellings))(row[column])
    fault = draw(st.sampled_from([None, None, "field", "short", "duplicate"]))
    if fault is not None:
        i = draw(st.integers(0, len(rows) - 1))
        row = dict(rows[i])
        if fault == "field":
            column = draw(st.sampled_from(sorted(CORRUPT_VALUES)))
            row[column] = draw(st.sampled_from(CORRUPT_VALUES[column]))
        rows.insert(i, row)
        if fault != "duplicate":
            del rows[i + 1]
    columns = draw(st.permutations(RAW_HEADER.split(",") + ["note"]))
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    buffer = io.StringIO()
    header_quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(buffer, lineterminator=line_end, quoting=header_quoting).writerow(columns)
    writer = csv.writer(buffer, lineterminator=line_end)
    for row in rows:
        cells = [row[c] for c in columns]
        if fault == "short" and row is rows[i]:
            cells = cells[: draw(st.integers(1, len(cells) - 1))]
        writer.writerow(cells)
        if draw(st.integers(0, 9)) == 0:
            buffer.write(line_end)
    return buffer.getvalue(), temperature, draw(st.sampled_from([1, 2, 5, dataio.RAW_BLOCK_ROWS]))


def run_ingest(raw_text: str, temperature: dict, pressure: str = "101325.0"):
    """Exit code, stderr and passes.csv text (None if not written) of ``ingest``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "raw.csv").write_text(raw_text)
        met = io.StringIO()
        writer = csv.writer(met, lineterminator="\n")
        writer.writerow(MET_HEADER.split(","))
        for exp, t in temperature.items():
            writer.writerow([exp, 30, 2.72, 1.15, 0.30, 0.24, repr(t)])
        (tmp / "met.csv").write_text(met.getvalue())
        out = tmp / "passes.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([
                "ingest", "--raw", str(tmp / "raw.csv"), "--met", str(tmp / "met.csv"),
                "--out", str(out), "--pressure", pressure,
            ])
        expected = expected_error = None
        try:
            expected = oracles.ingest_passes_csv(tmp / "raw.csv", temperature, float(pressure))
        except InputDataError as exc:
            expected_error = f"error: {exc}\n"
        written = out.read_text() if out.exists() else None
    return rc, err.getvalue(), written, expected, expected_error


class TestIngestMatchesRowReader:
    @settings(max_examples=150, deadline=None)
    @given(raw_campaigns(), st.sampled_from(["101325.0", "87000.5"]))
    def test_same_bytes_or_same_error(self, campaign, pressure):
        raw_text, temperature, block_rows = campaign
        with mock.patch.object(dataio, "RAW_BLOCK_ROWS", block_rows):
            rc, err, written, expected, expected_error = run_ingest(raw_text, temperature, pressure)
        if expected_error is None:
            assert (rc, err, written) == (0, "", expected)
        else:
            assert (rc, err, written) == (2, expected_error, None)

    @pytest.mark.parametrize("bad_line", [None, 2, 4097, 4900])
    def test_file_longer_than_one_block(self, bad_line):
        rng = np.random.default_rng(3)
        rows = [
            f"E{e},{k},{60.0 * k + 0.1 * i!r},{1.9 + rng.exponential(1.0)!r},{rng.uniform(2, 4)!r},{rng.uniform(20, 90)!r}"
            for e in range(3) for k in range(1, 41) for i in range(41)
        ]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        assert len(rows) > dataio.RAW_BLOCK_ROWS
        if bad_line is not None:
            rows[bad_line - 2] = rows[bad_line - 2].rsplit(",", 1)[0] + ",91"
        rc, err, written, expected, expected_error = run_ingest(
            RAW_HEADER + "\n" + "\n".join(rows) + "\n", {f"E{e}": 290.0 for e in range(3)}
        )
        if bad_line is None:
            assert (rc, err, expected_error) == (0, "", None)
            assert written == expected
        else:
            assert f"raw.csv:{bad_line}: road angle" in err
            assert (rc, err, written) == (2, expected_error, None)


class TestCalibrate:
    def test_perfect_model_gives_zero(self, tmp_path, met_csv, exp4):
        exp, fm = exp4
        predicted = forward_concentration(0.083, fm)
        passes = tmp_path / "passes.csv"
        write_series(passes, [predicted] * 12)
        out = tmp_path / "cal.json"
        assert (
            main(
                ["calibrate", "--passes", str(passes), "--met", str(met_csv), "--q-true", "0.083", "--out", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["q_true"] == 0.083
        assert payload["sigma_e"]["4"] == 0.0

    def test_recovers_injected_noise_scale(self, tmp_path, met_csv, exp4):
        exp, fm = exp4
        predicted = forward_concentration(0.083, fm)
        scale = 0.25 * predicted
        rng = np.random.default_rng(42)
        noisy = np.clip(predicted + scale * rng.standard_normal(12), 0.0, None)
        passes = tmp_path / "passes.csv"
        write_series(passes, noisy)
        out = tmp_path / "cal.json"
        assert (
            main(
                ["calibrate", "--passes", str(passes), "--met", str(met_csv), "--q-true", "0.083", "--out", str(out)]
            )
            == 0
        )
        estimate = json.loads(out.read_text())["sigma_e"]["4"]
        assert abs(estimate - scale) / scale <= 0.30

    def test_single_pass_is_an_input_error(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.005])
        assert (
            main(
                ["calibrate", "--passes", str(passes), "--met", str(met_csv), "--q-true", "0.083", "--out", str(tmp_path / "cal.json")]
            )
            == 2
        )
        assert "2 passes" in capsys.readouterr().err

    @pytest.mark.parametrize("q_true", ["nan", "inf", "-1"])
    def test_bad_q_true_exits_two_before_reading(self, tmp_path, met_csv, capsys, q_true):
        out = tmp_path / "cal.json"
        argv = ["calibrate", "--passes", str(tmp_path / "p.csv"), "--met", str(met_csv), "--out", str(out)]
        with mock.patch.object(cli.dataio, "read_passes", side_effect=AssertionError("read")):
            assert main(argv + ["--q-true", q_true]) == 2
        assert "--q-true must be non-negative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_that_overflows_exits_one(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [1.5e308, 0.0])
        out = tmp_path / "cal.json"
        argv = ["calibrate", "--passes", str(passes), "--met", str(met_csv), "--q-true", "0.083", "--out", str(out)]
        assert main(argv) == 1
        assert "sigma_e overflows" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sensor-height", "nan", "heights must be non-negative and finite"),
        ("--source-height", "inf", "heights must be non-negative and finite"),
        ("--spread-factor", "0", "spread factor must be positive and finite"),
        ("--sensor-height", "1e200", "vertical spread and heights leave the float range"),
    ],
)
@pytest.mark.parametrize("command", ["calibrate", "detect", "sweep"])
def test_geometry_the_model_cannot_use_exits_two(tmp_path, met_csv, capsys, command, flag, value, message):
    passes = tmp_path / "passes.csv"
    write_series(passes, [0.007, 0.008, 0.006, 0.007])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sigma_e": 0.001}))
    out = tmp_path / "out"
    argv = {
        "calibrate": ["calibrate", "--q-true", "0.083", "--out", str(out / "cal.json")],
        "detect": ["detect", "--config", str(config), "--out", str(out)],
        "sweep": [
            "sweep", "--q-true", "0.083", "--lrr", "2.0", "--instances", "2", "--repetitions", "1",
            "--boot", "10", "--out", str(out),
        ],
    }[command]
    assert main(argv + ["--passes", str(passes), "--met", str(met_csv), flag, value]) == 2
    assert f"experiment '4': {message}" in capsys.readouterr().err
    assert not [path for path in out.rglob("*") if path.is_file()]


class TestDetect:
    def _config(self, tmp_path, sigma_e, **extra):
        cfg = {"sigma_e": sigma_e}
        cfg.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_step_change_walkthrough(self, tmp_path, met_csv, exp4):
        exp, fm = exp4
        inst = synthesize_batch(exp, 4.0, 1, master_seed=7)[0]
        passes = tmp_path / "passes.csv"
        write_series(passes, inst.series)
        sigma_e = estimate_sigma_e(list(exp.cy_series), 0.083, fm)
        config = self._config(tmp_path, sigma_e)
        out = tmp_path / "out"
        assert (
            main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(out)])
            == 0
        )
        events = read_events_json(out / "events.json")
        assert len(events) == 1
        assert 13 <= events[0]["pass_index"] <= 15
        assert events[0]["changepoint_probability"] >= 0.8
        assert events[0]["regime_index"] == 1
        assert abs(events[0]["retained_mode"] - 0.083) <= 0.005
        reports = read_pass_reports_csv(out / "passes_report.csv")
        assert [r.pass_index for _, r in reports] == list(range(1, 25))

    def test_constant_input_writes_empty_events(self, tmp_path, met_csv):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 10)
        config = self._config(tmp_path, 0.001)
        out = tmp_path / "out"
        assert (
            main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(out)])
            == 0
        )
        assert read_events_json(out / "events.json") == []

    def test_jump_beyond_posterior_support_alarms(self, tmp_path, met_csv, exp4):
        # The third pass lies so far outside the posterior of the first two
        # that their product underflows even in log space.
        _, fm = exp4
        ratio = forward_concentration(1.0, fm)
        passes = tmp_path / "passes.csv"
        write_series(passes, [ratio, ratio, 3.0 * ratio])
        config = self._config(tmp_path, 0.03 * ratio)
        out = tmp_path / "out"
        assert (
            main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(out)])
            == 0
        )
        events = read_events_json(out / "events.json")
        assert [e["pass_index"] for e in events] == [3]
        reports = read_pass_reports_csv(out / "passes_report.csv")
        assert all(math.isfinite(r.mean_g_per_s) for _, r in reports)

    def test_unknown_predictive_method_exits_two(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = self._config(tmp_path, 0.001, predictive="bogus")
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_grid_too_fine_exits_two_before_any_grid(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = self._config(tmp_path, 0.001, dq=1e-12)
        with mock.patch.object(cli, "QGrid", side_effect=AssertionError("grid built")):
            rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "byte limit" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = self._config(tmp_path, 0.001, treshold=0.9)
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "treshold" in capsys.readouterr().err

    def test_missing_sigma_exits_two(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": 0.8}))
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "sigma_e" in capsys.readouterr().err

    def test_non_object_config_exits_two(self, tmp_path, met_csv):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_sigma_map_missing_experiment_exits_two(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = self._config(tmp_path, {"other": 0.001})
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'4'" in capsys.readouterr().err

    def test_bad_config_json_exits_two(self, tmp_path, met_csv):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = tmp_path / "config.json"
        config.write_text("{broken")
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sigma_e", math.nan, "sigma_e_initial must be positive and finite"),
            ("sigma_e_post_factor", math.nan, "sigma_e_post_factor must be at least 1"),
            ("lambda", math.inf, "lambda must exceed 1 and be finite"),
        ],
    )
    def test_non_finite_config_value_exits_two(self, tmp_path, met_csv, capsys, key, value, message):
        # A constant stream raises no alarm, so before these checks a NaN
        # post-alarm factor went unnoticed and an infinite lambda wrote
        # cp 0 on every pass.
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma_e": 0.001, key: value}))
        out = tmp_path / "o"
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "passes_report.csv").exists()

    def test_sigma_whose_precision_overflows_exits_two(self, tmp_path, met_csv, capsys):
        # 1 / sigma_e**2 and the likelihood peak overflow; before this check
        # every pass failed as impossible, with numpy warnings, and exit 1.
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma_e": 5e-324}))
        out = tmp_path / "o"
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert "1/sigma_e**2 overflows" in capsys.readouterr().err
        assert not (out / "passes_report.csv").exists()

    @pytest.mark.parametrize("sigma_e", ["abc", None, {"4": "x"}, {"4": None}])
    def test_non_numeric_sigma_exits_two(self, tmp_path, met_csv, capsys, sigma_e):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = self._config(tmp_path, sigma_e)
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config.json: " in capsys.readouterr().err

    def test_non_finite_cy_exits_two(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        passes.write_text("experiment_id,pass_index,cy_g_per_m2\n4,1,0.007\n4,2,nan\n")
        config = self._config(tmp_path, 0.001)
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "passes.csv:3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("4,0,0.007\n4,1,0.007\n", "passes.csv:2: pass_index must be at least 1"),
            ("4,1,0.007\n4,2,0.007\n4,1,0.008\n", "passes.csv:4: duplicate pass_index 1"),
        ],
    )
    def test_bad_pass_index_exits_two(self, tmp_path, met_csv, capsys, rows, message):
        passes = tmp_path / "passes.csv"
        passes.write_text("experiment_id,pass_index,cy_g_per_m2\n" + rows)
        config = self._config(tmp_path, 0.001)
        out = tmp_path / "o"
        rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteMet:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["ingest", "calibrate", "detect"])
    def test_exits_two_naming_the_line(self, tmp_path, capsys, command, value):
        met = tmp_path / "met.csv"
        met.write_text(MET_HEADER + f"\n4,30,{value},1.15,0.30,0.24,{value}\n")
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + "\n4,1,0.0,2.0,3.0,90\n4,1,0.5,2.1,3.0,90\n")
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma_e": 0.001}))
        out = tmp_path / "out"
        argv = {
            "ingest": ["ingest", "--raw", str(raw)],
            "calibrate": ["calibrate", "--passes", str(passes), "--q-true", "0.083"],
            "detect": ["detect", "--passes", str(passes), "--config", str(config)],
        }[command]
        assert main(argv + ["--met", str(met), "--out", str(out)]) == 2
        assert "met.csv:2: mean velocity must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


# No integral weights the grid's last cell, so a narrow rate posterior piled
# against q_max has a density there that can pass the float range; the
# detector then fails the pass with a DetectionError. The property draws
# noise scales from a thousandth of a grid step up, and streams of up to
# 40 passes.
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    grid=st.sampled_from([QGrid(0.0, 5.0, 0.05), QGrid(1.0, 2.0, 0.01)]),
    sigma_steps=st.floats(1e-3, 1e3),
    threshold=st.floats(1e-6, 1.0 - 1e-6),
    lam=st.floats(1.001, 1e6),
    post_factor=st.floats(1.0, 1e3),
    method=st.sampled_from(["marginal", "scaling"]),
)
def test_detect_gives_finite_output_or_a_typed_error(
    data, grid, sigma_steps, threshold, lam, post_factor, method
):
    """Any finite, non-negative stream under a valid configuration: the
    detector reports finite numbers or raises DetectionError, ``detect``
    exits 0, 1 or 2, and no file it writes holds nan or inf."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        met = tmp / "met.csv"
        met.write_text(MET_HEADER + "\n" + MET_ROW_4 + "\n")
        args = build_parser().parse_args(
            ["detect", "--passes", "p", "--met", "m", "--config", "c", "--out", "o"]
        )
        fm = cli._forward_model(dataio.read_met(met)["4"], args)
        ratio = forward_concentration(1.0, fm)
        cy = st.one_of(st.floats(0.0, 1.2 * grid.q_max * ratio), st.floats(0.0, 1.7e308))
        cys = data.draw(st.lists(cy, min_size=1, max_size=40), label="cys")
        raw_cfg = {
            "sigma_e": sigma_steps * grid.dq * ratio,
            "threshold": threshold,
            "lambda": lam,
            "sigma_e_post_factor": post_factor,
            "predictive": method,
            "q_min": grid.q_min,
            "q_max": grid.q_max,
            "dq": grid.dq,
        }
        cfg = cli._detector_config(raw_cfg, raw_cfg["sigma_e"], "cfg")
        try:
            reports, _ = detect_series(cys, fm, cfg)
        except DetectionError:
            pass
        else:
            for r in reports:
                values = (r.changepoint_probability, r.mode_g_per_s, r.mean_g_per_s, r.std_g_per_s)
                assert all(math.isfinite(v) for v in values)

        passes, config, out = tmp / "passes.csv", tmp / "config.json", tmp / "out"
        write_series(passes, cys)
        config.write_text(json.dumps(raw_cfg))
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main(["detect", "--passes", str(passes), "--met", str(met), "--config", str(config), "--out", str(out)])
        assert rc in (0, 1, 2)
        for path in out.iterdir():
            assert not re.search(r"\b(nan|inf)", path.read_text(), re.IGNORECASE), path.name


@settings(max_examples=30, deadline=None)
@given(
    cys=st.lists(
        st.one_of(st.floats(0.0, 0.05), st.sampled_from([0.0, 1e-300]), st.floats(0.0, 1.7e308)),
        min_size=1,
        max_size=12,
    ),
    lrr=st.floats(0.05, 20.0),
)
@example(cys=[0.0, 1.1002571223538857e153], lrr=1.0)  # log Z of a mode 1e155 off the grid
@example(cys=[8.988465674311579e307, 8.98846567431158e307], lrr=1.0)  # mean overflows
@example(cys=[0.0, 8.98846567431158e307], lrr=2.0)  # spread and lrr times a pass overflow
def test_synth_and_sweep_give_finite_output_or_a_typed_error(cys, lrr):
    """Any finite, non-negative passes.csv: ``synth`` and a tiny ``sweep``
    (2 instances, 1 repetition, 10 bootstrap draws) exit 0, 1 or 2, and no
    file either writes holds nan or inf."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        passes, met = tmp / "passes.csv", tmp / "met.csv"
        write_series(passes, cys)
        met.write_text(MET_HEADER + "\n" + MET_ROW_4 + "\n")
        (tmp / "out").mkdir()
        common = ["--passes", str(passes), "--met", str(met), "--lrr", repr(lrr), "--instances", "2"]
        for argv in (
            ["synth", *common, "--out", str(tmp / "out" / "instances.csv")],
            [
                "sweep", *common, "--q-true", "0.083", "--repetitions", "1", "--boot", "10",
                "--out", str(tmp / "out" / "sweep"),
            ],
        ):
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2), argv[0]
        for path in (tmp / "out").rglob("*"):
            if path.is_file():
                assert not re.search(r"\b(nan|inf)", path.read_text(), re.IGNORECASE), path.name


def plausible_or_any(low: float, high: float, least: float, most: float = 1.7e308):
    """Floats mostly in [low, high], and a fifth of them anywhere in [least, most]."""
    return st.one_of(*[st.floats(low, high)] * 4, st.floats(least, most))


POSITIVE = plausible_or_any(1e-3, 1e3, 5e-324)


@settings(max_examples=60, deadline=None)
@given(
    passes=st.lists(
        st.lists(
            st.tuples(
                plausible_or_any(0.0, 1e4, -1.7e308),
                plausible_or_any(0.0, 40.0, 0.0),
                POSITIVE,
                plausible_or_any(1.0, 90.0, 5e-324, 90.0),
            ),
            min_size=2,
            max_size=5,
        ),
        min_size=1,
        max_size=3,
    ),
    met=st.tuples(*[POSITIVE] * 6),
    pressure=POSITIVE,
    cys=st.lists(plausible_or_any(0.0, 0.1, 0.0), min_size=2, max_size=6),
    q_true=plausible_or_any(0.0, 1.0, -1.0),
    heights=st.tuples(*[plausible_or_any(0.0, 10.0, -1.0)] * 2),
    spread=plausible_or_any(0.1, 10.0, -1.0),
)
def test_ingest_and_calibrate_give_finite_output_or_a_typed_error(
    passes, met, pressure, cys, q_true, heights, spread
):
    """Finite raw samples, met values, passes and flags: ``ingest`` and
    ``calibrate`` exit 0, 1 or 2, and no file either writes holds nan or
    inf."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw, met_csv, passes_csv, out = tmp / "raw.csv", tmp / "met.csv", tmp / "passes.csv", tmp / "out"
        raw.write_text(RAW_HEADER + "\n" + "".join(
            f"4,{k},{t!r},{ppm!r},{v!r},{a!r}\n"
            for k, samples in enumerate(passes, start=1) for t, ppm, v, a in samples
        ))
        met_csv.write_text(MET_HEADER + "\n4," + ",".join(map(repr, met)) + "\n")
        write_series(passes_csv, cys)
        out.mkdir()
        geometry = [f"--sensor-height={heights[0]!r}", f"--source-height={heights[1]!r}", f"--spread-factor={spread!r}"]
        for argv in (
            ["ingest", "--raw", str(raw), f"--pressure={pressure!r}", "--out", str(out / "passes.csv")],
            ["calibrate", "--passes", str(passes_csv), f"--q-true={q_true!r}", *geometry, "--out", str(out / "cal.json")],
        ):
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + ["--met", str(met_csv)]) in (0, 1, 2), argv[0]
        for path in out.iterdir():
            assert not re.search(r"\b(nan|inf)", path.read_text(), re.IGNORECASE), path.name


class TestSynth:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("lrr", "nan", "--lrr must be positive and finite, got nan"),
            ("lrr", "2,inf", "--lrr must be positive and finite, got inf"),
            ("lrr", "0", "--lrr must be positive and finite, got 0.0"),
            ("instances", "0", "--instances must be at least 1, got 0"),
            ("instances", "-2", "--instances must be at least 1, got -2"),
        ],
    )
    def test_bad_configuration_exits_two_before_writing(self, tmp_path, exp4, capsys, flag, value, message):
        exp, _ = exp4
        passes = tmp_path / "passes.csv"
        write_series(passes, exp.cy_series)
        out = tmp_path / "instances.csv"
        flags = {"lrr": "2.0", "instances": "3", flag: value}
        argv = ["synth", "--passes", str(passes), "--out", str(out)]
        for key, text in flags.items():
            argv += [f"--{key}", text]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_writes_round_trippable_instances(self, tmp_path, exp4):
        exp, _ = exp4
        passes = tmp_path / "passes.csv"
        write_series(passes, exp.cy_series)
        out = tmp_path / "instances.csv"
        rc = main(["synth", "--passes", str(passes), "--lrr", "2.0,4.0", "--instances", "3", "--seed", "9", "--out", str(out)])
        assert rc == 0
        rows = read_instances_csv(out)
        assert len(rows) == 2 * 3 * 24
        assert {r["lrr"] for r in rows} == {2.0, 4.0}
        by_half = [r["is_post_change"] for r in rows if r["lrr"] == 2.0 and r["instance_index"] == 0]
        assert by_half == [0] * 12 + [1] * 12

    def test_same_seed_is_byte_identical(self, tmp_path, exp4):
        exp, _ = exp4
        passes = tmp_path / "passes.csv"
        write_series(passes, exp.cy_series)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--passes", str(passes), "--lrr", "3.0", "--instances", "4", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def _inputs(self, tmp_path, exp4):
        exp, fm = exp4
        passes = tmp_path / "passes.csv"
        write_series(passes, exp.cy_series)
        met = tmp_path / "met.csv"
        met.write_text(MET_HEADER + "\n" + MET_ROW_4 + "\n")
        return passes, met, exp, fm

    def _argv(self, passes, met, out, **kw):
        argv = [
            "sweep", "--passes", str(passes), "--met", str(met), "--q-true", "0.083",
            "--out", str(out), "--seed", "5", "--instances", "6", "--repetitions", "2",
            "--boot", "50",
        ]
        for key, value in kw.items():
            argv += [f"--{key}", value]
        return argv

    def test_single_cell_matches_direct_evaluation(self, tmp_path, exp4):
        passes, met, exp, fm = self._inputs(tmp_path, exp4)
        out = tmp_path / "out"
        rc = main(self._argv(passes, met, out, lrr="3.0"))
        assert rc == 0
        rows = read_report_csv(out / "report.csv")
        assert len(rows) == 1
        sigma_e = estimate_sigma_e(list(exp.cy_series), 0.083, fm)
        cfg = DetectorConfig(
            threshold=0.8, sigma_e_initial=sigma_e, grid=QGrid(0.0, 5.0, 0.005)
        )
        direct = evaluate_cell(
            exp, 3.0, cfg, n_instances=6, n_repetitions=2, master_seed=5, fm=fm, n_boot=50
        )
        row = rows[0]
        assert row["experiment_id"] == "4"
        assert row["x_m"] == 30.0
        assert row["lrr_or_jnr"] == 3.0
        assert row["threshold"] == 0.8
        assert row["recall"] == direct.recall
        assert row["det_recall"] == direct.detection_recall
        assert row["fpr"] == direct.false_positive_rate
        assert row["recall_lo"] == direct.recall_ci[0]
        assert row["recall_hi"] == direct.recall_ci[1]
        assert row["det_delay"] == direct.detection_delay

    def test_resumes_from_cached_cells(self, tmp_path, exp4):
        passes, met, exp, fm = self._inputs(tmp_path, exp4)
        out = tmp_path / "out"
        argv = self._argv(passes, met, out, lrr="2.0,3.0")
        assert main(argv) == 0
        first = (out / "report.csv").read_bytes()
        cell_mtimes = {p.name: p.stat().st_mtime_ns for p in (out / "cells").iterdir()}
        (out / "report.csv").unlink()
        assert main(argv) == 0
        assert (out / "report.csv").read_bytes() == first
        for p in (out / "cells").iterdir():
            assert p.stat().st_mtime_ns == cell_mtimes[p.name]

    def test_stale_cell_is_recomputed(self, tmp_path, exp4):
        passes, met, exp, fm = self._inputs(tmp_path, exp4)
        out = tmp_path / "out"
        argv = self._argv(passes, met, out, lrr="2.0")
        assert main(argv) == 0
        first = (out / "report.csv").read_bytes()
        cell = next((out / "cells").iterdir())
        stored = json.loads(cell.read_text())
        stored["key"] = "stale"
        cell.write_text(json.dumps(stored))
        assert main(argv) == 0
        assert (out / "report.csv").read_bytes() == first
        assert json.loads(cell.read_text())["key"] != "stale"

    def test_changed_pass_value_is_recomputed(self, tmp_path, exp4):
        # Reflecting a residual about the prediction changes the data but
        # not sigma_e, so only a key over the pass values sees the change.
        passes, met, exp, fm = self._inputs(tmp_path, exp4)
        out = tmp_path / "out"
        argv = self._argv(passes, met, out, lrr="3.0")
        assert main(argv) == 0
        first = (out / "report.csv").read_bytes()
        series = [cy for _, cy in read_passes(passes)["4"]]
        predicted = forward_concentration(0.083, fm)
        i = max(range(len(series)), key=lambda j: series[j] - predicted)
        reflected = list(series)
        reflected[i] = 2.0 * predicted - series[i]
        assert reflected[i] >= 0.0
        assert estimate_sigma_e(reflected, 0.083, fm) == estimate_sigma_e(series, 0.083, fm)
        write_series(passes, reflected)
        assert main(argv) == 0
        resumed = (out / "report.csv").read_bytes()
        fresh_out = tmp_path / "fresh"
        assert main(self._argv(passes, met, fresh_out, lrr="3.0")) == 0
        assert resumed == (fresh_out / "report.csv").read_bytes()
        assert resumed != first

    def test_worker_count_does_not_change_bytes(self, tmp_path, exp4):
        passes, met, exp, fm = self._inputs(tmp_path, exp4)
        argv = lambda out, workers: self._argv(passes, met, out, lrr="2.0,4.0") + ["--workers", workers]
        assert main(argv(tmp_path / "w1", "1")) == 0
        assert main(argv(tmp_path / "w2", "2")) == 0
        assert (tmp_path / "w1" / "report.csv").read_bytes() == (tmp_path / "w2" / "report.csv").read_bytes()

    def test_jnr_axis_reports_jnr_values(self, tmp_path, exp4):
        passes, met, exp, fm = self._inputs(tmp_path, exp4)
        out = tmp_path / "out"
        rc = main(self._argv(passes, met, out, jnr="2.0,5.0"))
        assert rc == 0
        rows = read_report_csv(out / "report.csv")
        assert [row["lrr_or_jnr"] for row in rows] == [2.0, 5.0]

    def test_lrr_and_jnr_together_exit_two(self, tmp_path, exp4, capsys):
        passes, met, exp, fm = self._inputs(tmp_path, exp4)
        rc = main(self._argv(passes, met, tmp_path / "out", lrr="2.0", jnr="3.0"))
        assert rc == 2
        assert "at most one" in capsys.readouterr().err

    def test_grid_too_fine_exits_two_before_any_grid(self, tmp_path, exp4, capsys):
        passes, met, _, _ = self._inputs(tmp_path, exp4)
        with mock.patch.object(cli, "QGrid", side_effect=AssertionError("grid built")):
            rc = main(self._argv(passes, met, tmp_path / "out", lrr="2.0", dq="1e-12"))
        assert rc == 2
        assert "byte limit" in capsys.readouterr().err

    def test_infinite_q_max_exits_two_before_any_grid(self, tmp_path, exp4, capsys):
        passes, met, _, _ = self._inputs(tmp_path, exp4)
        with mock.patch.object(cli, "QGrid", side_effect=AssertionError("grid built")):
            rc = main(self._argv(passes, met, tmp_path / "out", lrr="2.0", **{"q-max": "inf"}))
        assert rc == 2
        assert "byte limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("dq", "-1", "dq must be positive"),
            ("threshold", "1.5", "threshold must lie strictly between 0 and 1"),
            ("lambda", "1", "lambda must exceed 1"),
            ("lambda", "inf", "lambda must exceed 1 and be finite"),
            ("sigma-post-factor", "nan", "sigma_e_post_factor must be at least 1"),
            ("instances", "0", "--instances must be at least 1"),
            ("repetitions", "0", "--repetitions must be at least 1"),
            ("boot", "0", "--boot must be at least 1"),
            ("workers", "0", "--workers must be at least 1"),
            ("q-true", "nan", "--q-true must be non-negative and finite"),
        ],
    )
    def test_bad_configuration_exits_two_before_any_cell(self, tmp_path, exp4, capsys, flag, value, message):
        passes, met, _, _ = self._inputs(tmp_path, exp4)
        with mock.patch.object(cli, "evaluate_cell", side_effect=AssertionError("cell ran")):
            rc = main(self._argv(passes, met, tmp_path / "out", lrr="2.0", **{flag: value}))
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_missing_passes_file_exits_two(self, tmp_path, exp4):
        _, met, exp, fm = self._inputs(tmp_path, exp4)
        rc = main(self._argv(tmp_path / "missing.csv", met, tmp_path / "out", lrr="2.0"))
        assert rc == 2


class TestRowBufferCap:
    """The grid-size cap, which took the place of the row-buffer cap: one
    array of the grid's rates may take at most 1 GiB."""

    def test_limit_is_inclusive(self):
        # 2**27 points of 8 bytes take exactly 2**30 bytes.
        cli._check_grid_size(0.0, 2.0**27 - 1.0, 1.0, "cfg")
        with pytest.raises(ConfigError, match="^cfg: .*byte limit"):
            cli._check_grid_size(0.0, 2.0**27, 1.0, "cfg")

    def test_tiny_dq_and_infinite_span_rejected_long_streams_accepted(self):
        with pytest.raises(ConfigError):
            cli._check_grid_size(0.0, 5.0, 1e-300, "cfg")
        with pytest.raises(ConfigError):
            cli._check_grid_size(0.0, math.inf, 0.005, "cfg")
        # The detector's state grows with a stream only as O(k).
        cfg = cli._detector_config({"sigma_e": 0.1}, 0.1, "cfg")
        assert cfg.grid.n_points == 1001

    def test_infinite_q_max_exits_two(self, tmp_path, met_csv, capsys):
        passes = tmp_path / "passes.csv"
        write_series(passes, [0.007] * 4)
        config = tmp_path / "config.json"
        config.write_text('{"sigma_e": 0.001, "q_max": Infinity}')
        with mock.patch.object(cli, "QGrid", side_effect=AssertionError("grid built")):
            rc = main(["detect", "--passes", str(passes), "--met", str(met_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "byte limit" in capsys.readouterr().err


class TestParser:
    def test_negative_seed_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["synth", "--passes", "p", "--lrr", "2", "--seed", "-1", "--out", "o"])
        assert exc.value.code == 2

    def test_bad_float_list_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["synth", "--passes", "p", "--lrr", "a,b", "--out", "o"])
        assert exc.value.code == 2

    def test_predictive_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--passes", "p", "--met", "m", "--q-true", "1", "--out", "o", "--predictive", "exact"]
            )
