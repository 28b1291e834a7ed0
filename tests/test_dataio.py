import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumecpd import dataio
from plumecpd.dataio import (
    RAW_SAMPLE_DTYPE,
    REPORT_COLUMNS,
    MetRow,
    atomic_write_text,
    experiments_from_passes,
    read_met,
    read_passes,
    read_raw_samples,
    sweep_row,
    write_events_json,
    write_instances_csv,
    write_pass_reports_csv,
    write_passes_csv,
    write_report_csv,
)
from plumecpd.detector import DetectionEvent, PassReport, PassReports
from plumecpd.errors import InputDataError
from plumecpd.inference import QGrid
from plumecpd.metrics import PerformanceReport
from plumecpd.synthesis import ExperimentRecord, synthesize_batch
from plumecpd.transport import MetSummary
from readers import (
    read_events_json,
    read_instances_csv,
    read_pass_reports_csv,
    read_raw_grouped,
    read_report_csv,
)


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
        table = read_raw_samples(path)
        assert table.experiment_ids == ["e1", "e2"]
        assert table.experiment.tolist() == [0, 0, 1]
        assert table.pass_index.tolist() == [1, 2, 1]
        assert table.lengths.tolist() == [2, 1, 1]
        assert table.samples["time_s"].tolist() == [0.1, 0.2, 0.0, 0.0]
        grouped = read_raw_grouped(path)
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
        samples = read_raw_grouped(path)["e1"][1]
        assert samples.dtype == RAW_SAMPLE_DTYPE
        assert len(samples) == 3
        assert samples.tolist() == [(0.0, 2.0, 3.0, 90.0), (0.5, 3.0, 3.0, 90.0), (0.5, 1.0, 3.0, 45.0)]

    def test_empty_file_body_gives_no_experiments(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n\n")
        table = read_raw_samples(path)
        assert table.experiment_ids == [] and table.samples.size == 0
        assert table.experiment.size == table.pass_index.size == table.lengths.size == 0
        assert read_raw_grouped(path) == {}

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
        grouped = read_raw_grouped(path)
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
        with mock.patch.object(dataio, "_loadtxt_table", side_effect=ValueError("not parsed")):
            expected = read_raw_grouped(path)
        with mock.patch.object(dataio, "_csv_table", side_effect=AssertionError("diagnostic reader ran")):
            grouped = read_raw_grouped(path)
        assert list(grouped) == list(expected) == ["e0", "e1"]
        for exp, passes in expected.items():
            assert {k: v.tolist() for k, v in grouped[exp].items()} == {k: v.tolist() for k, v in passes.items()}

    def test_numbers_only_python_parses_are_read_by_the_diagnostic_reader(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,\u0662,1_0.5,2.0,3.0,90\n" + "e1,2,\uff11\uff12,2.0,3.0,90\n")
        with mock.patch.object(dataio, "_csv_table", wraps=dataio._csv_table) as diagnostic:
            samples = read_raw_grouped(path)["e1"][2]
        assert diagnostic.called
        assert samples.tolist() == [(10.5, 2.0, 3.0, 90.0), (12.0, 2.0, 3.0, 90.0)]

    def test_pass_index_past_int64_is_kept(self, tmp_path):
        # Python's int() defines the file, as it does for passes.csv.
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,99999999999999999999,0.0,2.0,3.0,90\n" + "e1,1,0.5,2.0,3.0,90\n")
        assert list(read_raw_grouped(path)["e1"]) == [1, 99999999999999999999]

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

    def test_clean_file_is_parsed_in_one_call_on_its_path(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = [f"e{i % 3},{1 + i % 5},{0.5 * i!r},2.0,3.0,90" for i in range(3 * dataio.RAW_BLOCK_ROWS + 7)]
        path.write_text(RAW_HEADER + "\n" + "\n".join(rows) + "\n")
        with (
            mock.patch.object(dataio.np, "loadtxt", wraps=np.loadtxt) as loadtxt,
            mock.patch.object(dataio, "_csv_table", side_effect=AssertionError("diagnostic reader ran")),
        ):
            table = read_raw_samples(path)
        assert loadtxt.call_count == 1
        assert loadtxt.call_args.args[0] == str(path)
        assert type(loadtxt.call_args.args[0]) is str
        assert table.lengths.sum() == len(rows)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_name_numpy_would_decompress_reads_as_plain_text(self, tmp_path, suffix):
        text = RAW_HEADER + "\n" + "e1,1,0.2,2.1,3.0,90\n" + "e1,1,0.1,2.0,3.0,45\n" + "e2,1,0.0,2.3,3.0,90\n"
        plain, named = tmp_path / "raw.csv", tmp_path / f"raw.csv{suffix}"
        plain.write_text(text)
        named.write_text(text)
        expected = read_raw_grouped(plain)
        got = read_raw_grouped(named)
        assert list(got) == list(expected) == ["e1", "e2"]
        for exp, passes in expected.items():
            assert {k: v.tolist() for k, v in got[exp].items()} == {k: v.tolist() for k, v in passes.items()}

    @pytest.mark.parametrize("exp_id", ["E\n1", "E\r\n1", "E\r1"])
    def test_id_holding_a_line_end_keeps_it(self, tmp_path, exp_id):
        path = tmp_path / "raw.csv"
        rows = [f'"{exp_id}",1,0.0,2.0,3.0,90', "E,1,0.5,2.0,3.0,90", f'"{exp_id}",1,0.5,2.5,3.0,90']
        path.write_text(RAW_HEADER + "\n" + "\n".join(rows) + "\n", newline="")
        table = read_raw_samples(path)
        assert table.experiment_ids == ["E", exp_id]
        assert table.lengths.tolist() == [1, 2]

    def test_header_name_holding_a_line_end(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text('"no\r\nte",' + RAW_HEADER + "\n" + "x,e1,1,0.0,2.0,3.0,90\n", newline="")
        table = read_raw_samples(path)
        assert table.experiment_ids == ["e1"] and table.samples.tolist() == [(0.0, 2.0, 3.0, 90.0)]

    @pytest.mark.parametrize("where", ["id", "header", "late row"])
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, where):
        rows = [f"e1,1,{0.5 * i!r},2.0,3.0,90".encode() for i in range(6000)]
        header = RAW_HEADER.encode()
        if where == "header":
            header += b",not\xe9"
        else:
            rows[0 if where == "id" else 4998] = b"e\xe9" + rows[0][2:]
        path = tmp_path / "raw.csv"
        path.write_bytes(b"\n".join([header, *rows]) + b"\n")
        with pytest.raises(InputDataError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
            read_raw_samples(path)

    @pytest.mark.parametrize("bad_row, message", [(9000, r"raw\.csv:4: road angle"), (2000, "'utf-8' codec can't decode")])
    def test_bad_row_before_undecodable_bytes_is_named_unless_they_share_its_chunk(self, tmp_path, bad_row, message):
        # Rows 0 .. RAW_BLOCK_ROWS - 1 form the first chunk of the csv reader.
        rows = [f"e1,1,{0.5 * i!r},2.0,3.0,90".encode() for i in range(3 * dataio.RAW_BLOCK_ROWS)]
        rows[2] = rows[2].replace(b",90", b",95")
        rows[bad_row] = b"e\xe9" + rows[bad_row][2:]
        path = tmp_path / "raw.csv"
        path.write_bytes(b"\n".join([RAW_HEADER.encode(), *rows]) + b"\n")
        with pytest.raises(InputDataError, match=message):
            read_raw_samples(path)

    def test_check_failure_before_a_chunk_only_python_parses(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "RAW_BLOCK_ROWS", 2)
        path = tmp_path / "raw.csv"
        rows = [f"e1,1,{0.5 * i!r},2.0,3.0,90" for i in range(6)]
        rows[1] = rows[1].replace(",2.0,", ",-2.0,")
        rows[4] = rows[4].replace(",1,", ",1_0,")
        path.write_text(RAW_HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputDataError, match=r"raw\.csv:3: mixing ratio must be finite and non-negative"):
            read_raw_samples(path)

    def test_check_failure_in_a_file_that_parses_skips_the_csv_reader(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "\n" + "e1,1,0.0,2.0,3.0,90\n" + "e1,1,0.5,2.0,3.0,95\n")
        with mock.patch.object(dataio, "_csv_table", wraps=dataio._csv_table) as diagnostic:
            with pytest.raises(InputDataError, match=r"raw\.csv:3: road angle"):
                read_raw_samples(path)
        assert not diagnostic.called


class TestReadMet:
    def test_full_row(self, tmp_path):
        path = tmp_path / "met.csv"
        path.write_text(MET_HEADER + ",turb_intensity\n" + "4,30,2.72,1.15,0.30,0.24,293.15,\n")
        met = MetSummary(2.72, 1.15, 0.30, 0.24, 293.15)
        assert read_met(path) == {"4": MetRow("4", 30.0, met)}

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


def outcome(read, path):
    """What ``read(path)`` returns, or the text of its ``InputDataError``."""
    try:
        return read(path)
    except InputDataError as exc:
        return str(exc)


PASS_IDS = [
    "e1", "e2", "4", "", " e1", '"e1"', '"e,2"', '"a""b"', "\u0662", "e\u00e9", '"e\n1"', '"e\r\n1"', '"e\r1"',
]
PASS_INDEX_TEXT = ["1", "2", "3", "01", "+2", " 3", '"2"']
ODD_PASS_INDEX_TEXT = ["1_0", "\u0662", "\uff13", "0", "-1", "1.0", "", "99999999999999999999"]
CY_TEXT = st.one_of(
    st.sampled_from(["0.5", "0", "-0", "1e-3", ".5", "Infinity", " 2.5", '"1.5"']),
    st.floats(0.0, 1e6).map(repr),
)
ODD_CY_TEXT = ["nan", "inf", "-inf", "-0.5", "1_0.5", "\u0661", "0x1p3", "1d3", "", "1e400"]


@st.composite
def passes_files(draw):
    """passes.csv text meant to trip a parser: columns in any order with an
    extra one, quoted and non-ASCII ids, ids and a header name holding a
    line end, numbers only Python parses, bad and duplicate values, short
    rows, blank lines and any line ending. A file draws how often a value
    is odd, so some files are clean."""
    note = draw(st.sampled_from(["note", '"no\nte"', '"no\r\nte"', '"no\rte"']))
    columns = draw(st.permutations(["experiment_id", "pass_index", "cy_g_per_m2", note]))
    if draw(st.integers(0, 19)) == 0:
        columns = columns[1:]
    odd = draw(st.sampled_from([0, 0, 1, 3]))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        fields = {
            "experiment_id": draw(st.sampled_from(PASS_IDS)),
            "pass_index": draw(
                st.sampled_from(ODD_PASS_INDEX_TEXT if draw(st.integers(0, 19)) < odd else PASS_INDEX_TEXT)
            ),
            "cy_g_per_m2": draw(
                st.sampled_from(ODD_CY_TEXT) if draw(st.integers(0, 19)) < odd else CY_TEXT
            ),
            note: draw(st.sampled_from(["", "x"])),
        }
        row = [fields[c] for c in columns]
        if draw(st.integers(0, 39)) < odd:
            row = row[: draw(st.integers(1, len(row) - 1))]
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


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

    def test_clean_file_skips_the_diagnostic_reader(self, tmp_path):
        path = tmp_path / "passes.csv"
        path.write_text(
            "cy_g_per_m2,note,experiment_id,pass_index\r\n"
            '0.5,x,"e,1",2\r\n\r\n1e-3,,e2,1\r\n0.25,y,"e,1",1\r\n'
        )
        for block_rows in [1, 2, dataio.RAW_BLOCK_ROWS]:
            with (
                mock.patch.object(dataio, "RAW_BLOCK_ROWS", block_rows),
                mock.patch.object(dataio, "_csv_table", side_effect=AssertionError("diagnostic reader ran")),
            ):
                grouped = read_passes(path)
            assert grouped == {"e,1": [(1, 0.25), (2, 0.5)], "e2": [(1, 1e-3)]}

    def test_numbers_only_python_parses_are_read_by_the_diagnostic_reader(self, tmp_path):
        path = tmp_path / "passes.csv"
        path.write_text("experiment_id,pass_index,cy_g_per_m2\ne1,1_0,\u0661\ne1,\u0662,2_5.0\n")
        with mock.patch.object(dataio, "_csv_table", wraps=dataio._csv_table) as diagnostic:
            grouped = read_passes(path)
        assert diagnostic.called
        assert grouped == {"e1": [(2, 25.0), (10, 1.0)]}

    def test_duplicate_of_a_pass_in_an_earlier_chunk_names_the_later_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "RAW_BLOCK_ROWS", 2)
        path = tmp_path / "passes.csv"
        path.write_text("experiment_id,pass_index,cy_g_per_m2\n4,1,0.5\n5,1,0.5\n4,2,0.5\n\n5,2,0.5\n4,1,0.7\n")
        with pytest.raises(InputDataError, match=r"passes\.csv:6: duplicate pass_index 1 for experiment '4'"):
            read_passes(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # A pair three times: the second row is named, not the third.
            ("4,1,0.5\n5,1,0.5\n4,2,0.5\n4,1,0.7\n4,1,0.8\n", "5: duplicate pass_index 1 for experiment '4'"),
            # A repeat before another bad row, and after one.
            ("4,2,0.5\n4,2,0.5\n4,0,0.5\n", "3: duplicate pass_index 2"),
            ("4,2,0.5\n4,0,0.5\n4,2,0.5\n", "3: pass_index must be at least 1"),
            # Sorted by pair, the repeat of the later pair comes first.
            ("4,9,0.5\n4,1,0.5\n4,1,0.5\n4,9,0.5\n", "4: duplicate pass_index 1"),
        ],
    )
    def test_repeat_within_one_chunk_names_its_earliest_bad_row(self, tmp_path, rows, message):
        path = tmp_path / "passes.csv"
        path.write_text("experiment_id,pass_index,cy_g_per_m2\n" + rows)
        with mock.patch.object(dataio, "_csv_table", wraps=dataio._csv_table) as diagnostic:
            with pytest.raises(InputDataError, match=rf"passes\.csv:{message}"):
                read_passes(path)
        assert not diagnostic.called

    def test_repeat_across_a_chunk_boundary(self, tmp_path):
        # Rows 1 .. RAW_BLOCK_ROWS fill the first chunk; the repeat of pass
        # 7 is the first row of the second, on file line RAW_BLOCK_ROWS + 2.
        n = dataio.RAW_BLOCK_ROWS
        lines = [f"4,{i},0.5" for i in range(1, n + 1)] + ["5,7,0.5", "4,7,0.5", "4,8,0.5"]
        path = tmp_path / "passes.csv"
        path.write_text("experiment_id,pass_index,cy_g_per_m2\n" + "\n".join(lines) + "\n")
        with pytest.raises(InputDataError, match=rf"passes\.csv:{n + 3}: duplicate pass_index 7 for experiment '4'"):
            read_passes(path)
        # Without the repeat, the file reads on the fast path.
        path.write_text("experiment_id,pass_index,cy_g_per_m2\n" + "\n".join(lines[:-2]) + "\n")
        with mock.patch.object(dataio, "_csv_table", side_effect=AssertionError("diagnostic reader ran")):
            grouped = read_passes(path)
        assert len(grouped["4"]) == n and grouped["5"] == [(7, 0.5)]

    def test_repeat_on_the_diagnostic_path(self, tmp_path):
        # 1_0 parses only in Python, so the file is read by the csv reader,
        # whose pass indices are Python ints, one past the int64 range.
        path = tmp_path / "passes.csv"
        path.write_text(
            "experiment_id,pass_index,cy_g_per_m2\n"
            "4,1_0,0.5\n4,99999999999999999999,0.5\n4,10,0.5\n4,99999999999999999999,0.5\n"
        )
        with mock.patch.object(dataio, "_csv_table", wraps=dataio._csv_table) as diagnostic:
            with pytest.raises(InputDataError, match=r"passes\.csv:4: duplicate pass_index 10 for"):
                read_passes(path)
        assert diagnostic.called

    @pytest.mark.parametrize("name", ["passes.gz", "passes.csv.bz2", "passes.xz", "passes.lzma"])
    def test_name_numpy_would_decompress_reads_as_plain_text(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("experiment_id,pass_index,cy_g_per_m2\ne1,2,0.5\ne2,1,1e-3\ne1,1,0.25\n")
        assert read_passes(path) == {"e1": [(1, 0.25), (2, 0.5)], "e2": [(1, 1e-3)]}

    def test_empty_body_gives_no_experiments(self, tmp_path):
        path = tmp_path / "passes.csv"
        path.write_text("experiment_id,pass_index,cy_g_per_m2\n\n")
        assert read_passes(path) == {}

    @settings(max_examples=300, deadline=None)
    @given(text=passes_files(), block_rows=st.sampled_from([1, 2, 5, dataio.RAW_BLOCK_ROWS]))
    def test_same_result_or_error_as_the_row_reader(self, text, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "passes.csv"
            path.write_text(text, newline="")
            with mock.patch.object(dataio, "RAW_BLOCK_ROWS", block_rows):
                got = outcome(read_passes, path)
            assert repr(got) == repr(outcome(oracles.read_passes_rows, path))

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


def as_columns(reports):
    """``PassReports`` holding the ``PassReport`` rows ``reports``."""
    return PassReports(*zip(*map(dataclasses.astuple, reports)))


class TestPassReportsRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "passes_report.csv"
        rows = [
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
        write_pass_reports_csv(path, [(exp, as_columns([report])) for exp, report in rows])
        assert read_pass_reports_csv(path) == rows


class TestEventsRoundTrip:
    def test_round_trip_and_sorted_keys(self, tmp_path):
        path = tmp_path / "events.json"
        grid = QGrid(0.0, 5.0, 0.5)
        event = DetectionEvent(
            pass_index=13,
            changepoint_probability=0.93,
            pre_change_row=(0.0, 0.0, math.log(grid.q_max - grid.q_min)),
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
        instances = synthesize_batch(exp, 2.0, 2, master_seed=0)
        write_instances_csv(path, [("e1", 2.0, instances)])
        rows = read_instances_csv(path)
        assert len(rows) == 12
        assert [r["pass_index"] for r in rows] == [1, 2, 3, 4, 5, 6] * 2
        assert [r["is_post_change"] for r in rows] == [0, 0, 0, 1, 1, 1] * 2
        assert [r["instance_index"] for r in rows] == [0] * 6 + [1] * 6
        assert np.array_equal([r["cy_g_per_m2"] for r in rows], instances.ravel())
        assert all(r["lrr"] == 2.0 and r["experiment_id"] == "e1" for r in rows)


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


class TestWriters:
    @pytest.mark.parametrize(
        "write, header",
        [
            (write_passes_csv, "experiment_id,pass_index,cy_g_per_m2"),
            (
                write_pass_reports_csv,
                "experiment_id,pass_index,cy_g_per_m2,changepoint_probability,mode_g_per_s,mean_g_per_s,std_g_per_s",
            ),
            (write_instances_csv, "experiment_id,lrr,instance_index,pass_index,cy_g_per_m2,is_post_change"),
            (write_report_csv, ",".join(REPORT_COLUMNS)),
        ],
        ids=["passes", "pass_reports", "instances", "report"],
    )
    def test_no_rows_write_the_header_alone(self, tmp_path, write, header):
        path = tmp_path / "out.csv"
        write(path, [])
        assert path.read_bytes() == (header + "\n").encode()

    def test_pass_report_columns_are_the_report_fields(self):
        # write_pass_reports_csv reads each column of the reports by these names.
        for fields in (dataclasses.fields(PassReport), dataclasses.fields(PassReports)):
            assert dataio.PASS_REPORT_COLUMNS[1:] == [field.name for field in fields]


# Ids that a CSV field holds only in quotes, and plain ones.
QUOTED_IDS = ["exp,2", 'a"b', "E\r1", "E\n1"]
PLAIN_IDS = ["e1", "x 9", "\xe9"]


class TestQuotedIds:
    """Every CSV writer quotes an id that holds a comma, a double quote,
    CR or LF, as csv's minimal quoting does, and writes others as they are."""

    def test_passes_read_back_with_their_ids(self, tmp_path):
        path = tmp_path / "passes.csv"
        rows = [(exp, k, 0.5 * k) for exp in QUOTED_IDS + PLAIN_IDS for k in (1, 2)]
        write_passes_csv(path, rows)
        back = read_passes(path)
        assert back == {exp: [(1, 0.5), (2, 1.0)] for exp in QUOTED_IDS + PLAIN_IDS}

    def test_fields_are_csv_minimal_quoting(self, tmp_path):
        path = tmp_path / "passes.csv"
        ids = QUOTED_IDS + PLAIN_IDS
        write_passes_csv(path, [(exp, 1, 0.5) for exp in ids])
        expected = "experiment_id,pass_index,cy_g_per_m2\n" + "".join(
            f"{oracles.csv_field(exp)},1,0.5\n" for exp in ids
        )
        assert path.read_bytes() == expected.encode()
        assert "e1,1,0.5\n" in expected

    def test_every_writer_round_trips_an_id(self, tmp_path):
        report = PassReport(1, 0.3, 0.5, 0.085, 0.09, 0.01)
        instances = np.array([[0.1, 0.2], [0.3, 0.4]])
        for exp in QUOTED_IDS:
            write_pass_reports_csv(tmp_path / "r.csv", [(exp, as_columns([report]))])
            assert read_pass_reports_csv(tmp_path / "r.csv") == [(exp, report)]
            write_instances_csv(tmp_path / "i.csv", [(exp, 2.0, instances)])
            assert {r["experiment_id"] for r in read_instances_csv(tmp_path / "i.csv")} == {exp}
            row = {**dict.fromkeys(REPORT_COLUMNS, 0.5), "experiment_id": exp}
            write_report_csv(tmp_path / "s.csv", [row])
            assert read_report_csv(tmp_path / "s.csv") == [row]


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

    def test_writes_utf8_under_an_ascii_locale(self, tmp_path):
        # Under the POSIX locale, with no UTF-8 mode, Python's default text
        # encoding is ASCII, which cannot write the id.
        path = tmp_path / "passes.csv"
        code = (
            "import sys; from pathlib import Path; from plumecpd.dataio import write_passes_csv; "
            "write_passes_csv(Path(sys.argv[1]), [('\\xe9', 1, 0.5)])"
        )
        env = {
            **os.environ,
            "LC_ALL": "POSIX",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
            "PYTHONPATH": os.pathsep.join(sys.path),
        }
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        assert path.read_bytes() == "experiment_id,pass_index,cy_g_per_m2\n\xe9,1,0.5\n".encode()
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_encoding_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\udcff")
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
