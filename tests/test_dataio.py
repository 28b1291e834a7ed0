import json
import math
from unittest import mock

import numpy as np
import pytest

from plumecpd import dataio
from plumecpd.dataio import (
    RAW_SAMPLE_DTYPE,
    atomic_write_text,
    experiments_from_passes,
    read_events_json,
    read_instances_csv,
    read_met,
    read_pass_reports_csv,
    read_passes,
    read_raw_samples,
    read_report_csv,
    sweep_row,
    write_events_json,
    write_instances_csv,
    write_pass_reports_csv,
    write_passes_csv,
    write_report_csv,
)
from plumecpd.detector import DetectionEvent, PassReport
from plumecpd.errors import InputDataError
from plumecpd.inference import QGrid, uniform_prior
from plumecpd.metrics import PerformanceReport
from plumecpd.synthesis import instance_rng, synthesize_instance, ExperimentRecord


RAW_HEADER = "experiment_id,pass_index,time_s,mixing_ratio_ppm,vehicle_speed_mps,road_angle_deg"
MET_HEADER = "experiment_id,x_m,u_mean_mps,sigma_u_mps,sigma_w_mps,u_star_mps,temperature_K"


class TestReadRawSamples:
    def test_groups_and_orders_by_time(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            RAW_HEADER
            + "\n"
            + "e1,1,0.2,2.1,3.0,90\n"
            + "e1,1,0.1,2.0,3.0,90\n"
            + "e1,2,0.0,1.9,3.0,90\n"
            + "e2,1,0.0,2.3,3.0,45\n"
        )
        grouped = read_raw_samples(path)
        assert sorted(grouped) == ["e1", "e2"]
        assert sorted(grouped["e1"]) == [1, 2]
        times = grouped["e1"][1]["time_s"].tolist()
        assert times == sorted(times)

    def test_passes_are_sample_arrays_with_equal_times_in_file_order(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            RAW_HEADER + "\n"
            "e1,1,0.5,3.0,3.0,90\n"
            "e1,1,0.0,2.0,3.0,90\n"
            "e1,1,0.5,1.0,3.0,45\n"
        )
        samples = read_raw_samples(path)["e1"][1]
        assert samples.dtype == RAW_SAMPLE_DTYPE
        assert len(samples) == 3
        assert samples.tolist() == [(0.0, 2.0, 3.0, 90.0), (0.5, 3.0, 3.0, 90.0), (0.5, 1.0, 3.0, 45.0)]

    def test_empty_file_body_gives_no_experiments(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n\n")
        assert read_raw_samples(path) == {}

    def test_line_numbers_skip_blank_lines(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n\ne1,1,0.0,2.0,3.0,90\n\n\ne1,1,0.1,2.0,3.0,0\n")
        with pytest.raises(InputDataError, match=r"raw\.csv:3: road angle"):
            read_raw_samples(path)

    def test_short_row_reports_first_missing_field(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,1,0.0,2.0,3.0,90\n" + "e1,1,0.1,2.0\n")
        with pytest.raises(InputDataError, match=r"raw\.csv:3: bad vehicle_speed_mps value None"):
            read_raw_samples(path)

    def test_earliest_bad_row_wins_across_columns(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            RAW_HEADER + "\n" + "e1,1,0.0,2.0,3.0,95\n" + "e1,1,xyz,2.0,3.0,90\n"
        )
        with pytest.raises(InputDataError, match=r"raw\.csv:2: road angle"):
            read_raw_samples(path)

    @pytest.mark.parametrize("pass_index", ["0", "-3"])
    def test_pass_index_below_one_reports_line(self, tmp_path, pass_index):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,1,0.0,2.0,3.0,90\n" + f"e1,{pass_index},0.1,2.0,3.0,90\n")
        with pytest.raises(InputDataError, match=rf"raw\.csv:3: pass_index must be at least 1, got {pass_index}"):
            read_raw_samples(path)

    def test_rows_past_the_first_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "RAW_BLOCK_ROWS", 2)
        path = tmp_path / "raw.csv"
        rows = [f"e{i % 2},{1 + i % 3},{0.1 * (20 - i)!r},2.0,3.0,90" for i in range(20)]
        path.write_text(RAW_HEADER + "\n" + "\n".join(rows) + "\n")
        grouped = read_raw_samples(path)
        assert sum(len(s) for passes in grouped.values() for s in passes.values()) == 20
        for passes in grouped.values():
            for samples in passes.values():
                assert samples["time_s"].tolist() == sorted(samples["time_s"].tolist())
        path.write_text(RAW_HEADER + "\n" + "\n".join(rows[:7] + ["e1,1,nan,2.0,3.0,90"]) + "\n")
        with pytest.raises(InputDataError, match=r"raw\.csv:9: sample time must be finite"):
            read_raw_samples(path)

    @pytest.mark.parametrize("block_rows", [3, 4])
    def test_clean_file_of_several_chunks_skips_the_diagnostic_reader(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(dataio, "RAW_BLOCK_ROWS", block_rows)
        path = tmp_path / "raw.csv"
        rows = [f"e{i % 2},{1 + i % 3},{0.1 * (20 - i)!r},2.0,3.0,{45 + i}" for i in range(20)]
        path.write_text(RAW_HEADER + "\r\n" + "\r\n".join(rows[:9] + ["", ""] + rows[9:]) + "\r\n")
        with mock.patch.object(dataio, "_parse_raw_rows", return_value=None):
            expected = read_raw_samples(path)
        with mock.patch.object(dataio, "_read_raw_checked", side_effect=AssertionError("diagnostic reader ran")):
            grouped = read_raw_samples(path)
        assert list(grouped) == list(expected) == ["e0", "e1"]
        for exp, passes in expected.items():
            assert {k: v.tolist() for k, v in grouped[exp].items()} == {k: v.tolist() for k, v in passes.items()}

    def test_numbers_only_python_parses_are_read_by_the_diagnostic_reader(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,\u0662,1_0.5,2.0,3.0,90\n" + "e1,2,\uff11\uff12,2.0,3.0,90\n")
        assert read_raw_samples(path)["e1"][2].tolist() == [(10.5, 2.0, 3.0, 90.0), (12.0, 2.0, 3.0, 90.0)]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("experiment_id,pass_index,time_s\ne1,1,0.0\n")
        with pytest.raises(InputDataError, match="missing columns"):
            read_raw_samples(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,1,0.0,2.0,3.0,90\n" + "e1,1,xyz,2.0,3.0,90\n")
        with pytest.raises(InputDataError, match=r"raw\.csv:3"):
            read_raw_samples(path)

    def test_invalid_sample_reports_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,1,0.0,-2.0,3.0,90\n")
        with pytest.raises(InputDataError, match=r"raw\.csv:2"):
            read_raw_samples(path)

    def test_empty_experiment_id(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + ",1,0.0,2.0,3.0,90\n")
        with pytest.raises(InputDataError, match="empty experiment_id"):
            read_raw_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputDataError):
            read_raw_samples(tmp_path / "nope.csv")


class TestReadMet:
    def test_full_row(self, tmp_path):
        path = tmp_path / "met.csv"
        path.write_text(
            MET_HEADER
            + ",n_passes,turb_intensity\n"
            + "4,30,2.72,1.15,0.30,0.24,293.15,12,\n"
        )
        rows = read_met(path)
        assert rows["4"].x_m == 30.0
        assert rows["4"].n_passes == 12
        assert rows["4"].met.mean_velocity_mps == 2.72
        assert rows["4"].met.turbulent_intensity is None

    def test_duplicate_experiment(self, tmp_path):
        path = tmp_path / "met.csv"
        path.write_text(
            MET_HEADER + "\n"
            + "4,30,2.72,1.15,0.30,0.24,293.15\n"
            + "4,30,2.72,1.15,0.30,0.24,293.15\n"
        )
        with pytest.raises(InputDataError, match="duplicate"):
            read_met(path)

    def test_inconsistent_intensity_reports_line(self, tmp_path):
        path = tmp_path / "met.csv"
        path.write_text(
            MET_HEADER + ",turb_intensity\n" + "4,30,2.72,1.15,0.30,0.24,293.15,0.9\n"
        )
        with pytest.raises(InputDataError, match=r"met\.csv:2"):
            read_met(path)


class TestPassesRoundTrip:
    def test_read_sorts_by_pass_index(self, tmp_path):
        path = tmp_path / "passes.csv"
        path.write_text(
            "experiment_id,pass_index,cy_g_per_m2\n" + "e1,2,0.2\n" + "e1,1,0.1\n"
        )
        assert read_passes(path)["e1"] == [(1, 0.1), (2, 0.2)]

    def test_negative_cy_rejected(self, tmp_path):
        path = tmp_path / "passes.csv"
        path.write_text("experiment_id,pass_index,cy_g_per_m2\ne1,1,-0.5\n")
        with pytest.raises(InputDataError, match="negative"):
            read_passes(path)

    @pytest.mark.parametrize("pass_index", ["0", "-3"])
    def test_pass_index_below_one_rejected(self, tmp_path, pass_index):
        path = tmp_path / "passes.csv"
        path.write_text(f"experiment_id,pass_index,cy_g_per_m2\ne1,1,0.5\ne1,{pass_index},0.5\n")
        with pytest.raises(InputDataError, match=r"passes\.csv:3: pass_index must be at least 1"):
            read_passes(path)

    def test_duplicate_pass_rejected(self, tmp_path):
        path = tmp_path / "passes.csv"
        path.write_text(
            "experiment_id,pass_index,cy_g_per_m2\n4,1,0.5\n5,1,0.5\n4,2,0.5\n4,1,0.7\n"
        )
        with pytest.raises(InputDataError, match=r"passes\.csv:5: duplicate pass_index 1 for experiment '4'"):
            read_passes(path)

    def test_write_read_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "passes.csv"
        values = [("e1", 1, 0.1 + 0.2), ("e1", 2, math.pi / 17), ("e2", 1, 1e-17)]
        write_passes_csv(path, values)
        back = read_passes(path)
        assert back["e1"] == [(1, 0.1 + 0.2), (2, math.pi / 17)]
        assert back["e2"] == [(1, 1e-17)]

    def test_experiments_require_met(self, tmp_path):
        passes = {"e1": [(1, 0.1), (2, 0.2)]}
        with pytest.raises(InputDataError, match="no met row"):
            experiments_from_passes(passes, {})

    def test_experiments_built_in_sorted_order(self, tmp_path):
        met_path = tmp_path / "met.csv"
        met_path.write_text(
            MET_HEADER + "\n"
            + "b,30,2.72,1.15,0.30,0.24,293.15\n"
            + "a,20,2.72,1.15,0.30,0.24,293.15\n"
        )
        met = read_met(met_path)
        passes = {"b": [(1, 0.1), (2, 0.2)], "a": [(1, 0.3), (2, 0.4)]}
        records = experiments_from_passes(passes, met)
        assert [r.experiment_id for r in records] == ["a", "b"]
        assert records[0].fetch_m == 20.0
        assert np.array_equal(records[1].cy_series, [0.1, 0.2])


class TestPassReportsRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "passes_report.csv"
        reports = [
            (
                "e1",
                PassReport(
                    pass_index=1,
                    cy_g_per_m2=0.1 + 0.2,
                    changepoint_probability=1.0 / 15.0,
                    mode_g_per_s=0.085,
                    mean_g_per_s=math.sqrt(2) / 10,
                    std_g_per_s=0.013,
                ),
            ),
            (
                "e2",
                PassReport(
                    pass_index=2,
                    cy_g_per_m2=0.4,
                    changepoint_probability=0.81,
                    mode_g_per_s=0.32,
                    mean_g_per_s=0.33,
                    std_g_per_s=0.02,
                ),
            ),
        ]
        write_pass_reports_csv(path, reports)
        assert read_pass_reports_csv(path) == reports


class TestEventsRoundTrip:
    def test_round_trip_and_sorted_keys(self, tmp_path):
        path = tmp_path / "events.json"
        grid = QGrid(0.0, 5.0, 0.5)
        event = DetectionEvent(
            pass_index=13,
            changepoint_probability=0.93,
            pre_change_posterior=uniform_prior(grid),
            regime_index=1,
        )
        write_events_json(path, [("e1", event, 0.085, 0.01)])
        back = read_events_json(path)
        assert back == [
            {
                "experiment_id": "e1",
                "pass_index": 13,
                "changepoint_probability": 0.93,
                "regime_index": 1,
                "retained_mode": 0.085,
                "retained_std": 0.01,
            }
        ]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text("{not json")
        with pytest.raises(InputDataError, match="invalid JSON"):
            read_events_json(path)

    def test_non_array_payload(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"pass_index": 3}))
        with pytest.raises(InputDataError, match="array"):
            read_events_json(path)


class TestInstancesRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "instances.csv"
        exp = ExperimentRecord("e1", 30.0, np.array([0.1, 0.2, 0.3]))
        inst = synthesize_instance(exp, 2.0, instance_rng(0, "e1", 2.0, 0))
        write_instances_csv(path, [("e1", inst, 0)])
        rows = read_instances_csv(path)
        assert len(rows) == 6
        assert [r["pass_index"] for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [r["is_post_change"] for r in rows] == [0, 0, 0, 1, 1, 1]
        assert np.array_equal([r["cy_g_per_m2"] for r in rows], inst.series)
        assert all(r["lrr"] == 2.0 and r["instance_index"] == 0 for r in rows)


class TestReportRoundTrip:
    def _row(self, det_delay):
        return {
            "experiment_id": "e1",
            "x_m": 30.0,
            "lrr_or_jnr": 2.5,
            "threshold": 0.8,
            "recall": 0.7,
            "recall_lo": 0.65,
            "recall_hi": 0.75,
            "det_recall": 0.9,
            "det_recall_lo": 0.85,
            "det_recall_hi": 0.95,
            "det_delay": det_delay,
            "fpr": 0.01,
            "fpr_lo": 0.0,
            "fpr_hi": 0.02,
        }

    def test_round_trip_with_missing_delay(self, tmp_path):
        path = tmp_path / "report.csv"
        rows = [self._row(1.25), self._row(None)]
        write_report_csv(path, rows)
        back = read_report_csv(path)
        assert back == rows

    def test_sweep_row_fills_every_column(self):
        exp = ExperimentRecord("e1", 30.0, np.array([1.0, 2.0]))
        report = PerformanceReport(
            tp=0,
            dtp=0,
            fn=0,
            fp=0,
            recall=0.7,
            detection_recall=0.9,
            false_positive_rate=0.01,
            detection_delay=1.25,
            recall_ci=(0.65, 0.75),
            detection_recall_ci=(0.85, 0.95),
            false_positive_rate_ci=(0.0, 0.02),
        )
        assert sweep_row(exp, 2.5, 0.8, report) == self._row(1.25)

    def test_repeated_write_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rows = [self._row(2.0)]
        write_report_csv(a, rows)
        write_report_csv(b, rows)
        assert a.read_bytes() == b.read_bytes()


class TestAtomicWrite:
    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_directory_is_reported_for_the_target(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_text(path, "x")
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_text(path, "x")
        assert info.value.filename == str(path)
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
