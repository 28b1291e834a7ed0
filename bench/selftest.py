"""Fast self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Runs every workload traced and untraced, checks that each metric named
in BENCHMARK.json is emitted with its unit, and checks that every
output check rejects a corrupted copy of a good output.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import unittest

import run

run.load_program()

import plumecpd.detector  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, WORKLOADS, CheckFailed  # noqa: E402

TMP_RUNS = run.RUNS_DIR / "selftest"
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def set_cell(text: str, row: int, column: str, value: str) -> str:
    """Replace one cell of a comma-separated file (row 1 is the first data row)."""
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_last_row(text: str) -> str:
    return "\n".join(text.splitlines()[:-1]) + "\n"


class MetricsEmitted(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(TMP_RUNS, ignore_errors=True)

    def result(self, name: str, trace: bool) -> tuple[dict, dict, str]:
        record = run.run_workload(name, SEED, 0.05, trace, sizes=TINY, runs_dir=TMP_RUNS)
        text = run.report(record)
        return record, json.loads(text.splitlines()[-1]), text

    def test_every_metric_with_its_unit(self) -> None:
        for name in WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    record, result, text = self.result(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, expected)
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))
                    self.assertIn("error_rate", text)
                    if not trace:
                        for metric in result["metrics"].values():
                            self.assertGreater(metric["value"], 0)
                        scaled = [
                            op["seconds"] * op["speed"]
                            for op in record["ops"]
                            if op["kind"] == "untraced"
                        ]
                        self.assertAlmostEqual(
                            result["metrics"]["op_p50_s"]["value"], statistics.median(scaled)
                        )
                        self.assertAlmostEqual(
                            result["metrics"]["setup_s"]["value"],
                            record["raw_metrics"]["setup_s"] * record["speed_factor"],
                        )

    def test_traced_runs_show_each_workload_shape(self) -> None:
        long_stream = self.result("long_stream", True)[1]["metrics"]
        passes = 14 * TINY.stream_shuffles
        self.assertEqual(long_stream["bocd.max_run_length"]["value"], passes)
        self.assertEqual(long_stream["bocd.bocd_step.calls"]["value"], passes)
        self.assertEqual(long_stream["detector.alarms"]["value"], 0)
        sweep = self.result("sweep_grid", True)[1]["metrics"]
        self.assertGreater(sweep["detector.post_alarm_pass_ratio"]["value"], 0.05)
        # Three intervals per cell, plus one for the delay where every
        # repetition detected every change.
        self.assertIn(sweep["metrics.bootstrap_ci.calls"]["value"], (6, 7, 8))
        ingest = self.result("ingest_campaign", True)[1]["metrics"]
        self.assertEqual(ingest["bocd.bocd_step.calls"]["value"], 0)
        samples = TINY.campaign_experiments * TINY.campaign_passes * 40
        self.assertEqual(ingest["dataio.read_raw_samples.rows"]["value"], samples)
        self.assertEqual(ingest["transport.ppm_to_mass_concentration.calls"]["value"], samples)

    def test_tracer_restores_the_package(self) -> None:
        original = plumecpd.detector.bocd_step
        self.result("long_stream", True)
        self.assertIs(plumecpd.detector.bocd_step, original)


class ChecksRejectCorruptOutput(unittest.TestCase):
    def setUp(self) -> None:
        self.dir = TMP_RUNS / self.id()
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "in").mkdir(parents=True)

    def tearDown(self) -> None:
        shutil.rmtree(TMP_RUNS, ignore_errors=True)

    def good_op(self, name: str):
        wl = WORKLOADS[name](SEED, TINY)
        wl.prepare(self.dir / "in")
        out = self.dir / "out"
        wl.run(out)
        wl.check(out)
        return wl, out

    def assert_rejects(self, wl, out, relpath: str, edit) -> None:
        bad = self.dir / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        path = bad / relpath
        path.write_text(edit(path.read_text()))
        with self.assertRaises(CheckFailed):
            wl.check(bad)

    def test_long_stream(self) -> None:
        wl, out = self.good_op("long_stream")
        report = "passes_report.csv"
        for edit in (
            lambda t: set_cell(t, 3, "mean_g_per_s", "nan"),
            lambda t: set_cell(t, 2, "std_g_per_s", "inf"),
            lambda t: set_cell(t, 2, "changepoint_probability", "1.5"),
            lambda t: set_cell(t, 1, "pass_index", "2"),
            drop_last_row,
        ):
            self.assert_rejects(wl, out, report, edit)
        alarm = '[{"experiment_id": "E1", "pass_index": 5}]\n'
        self.assert_rejects(wl, out, "events.json", lambda t: alarm)

    def test_sweep_grid(self) -> None:
        wl, out = self.good_op("sweep_grid")
        lrr1, lrr3 = (wl.LRRS.index(lrr) + 1 for lrr in (1.0, 3.0))
        for edit in (
            lambda t: set_cell(t, lrr3, "det_recall", "0.5"),
            lambda t: set_cell(t, lrr1, "fpr", "0.05"),
            lambda t: set_cell(t, lrr1, "recall", "nan"),
            drop_last_row,
        ):
            self.assert_rejects(wl, out, "report.csv", edit)

    def test_sweep_grid_resume_cache_hit_fails_the_op(self) -> None:
        wl, out = self.good_op("sweep_grid")
        wl.run(out)  # same directory: every cell comes from cells/
        self.assertEqual(wl.cache_hits, len(wl.LRRS))
        with self.assertRaises(CheckFailed):
            wl.check(out)

    def test_ingest_campaign(self) -> None:
        wl, out = self.good_op("ingest_campaign")
        passes = "passes.csv"
        first_cy = (out / passes).read_text().splitlines()[1].split(",")[2]
        for edit in (
            lambda t: set_cell(t, 1, "cy_g_per_m2", "nan"),
            lambda t: set_cell(t, 1, "cy_g_per_m2", "-0.01"),
            lambda t: set_cell(t, 1, "cy_g_per_m2", repr(2 * float(first_cy))),
            lambda t: set_cell(t, 1, "pass_index", "99"),
            drop_last_row,
        ):
            self.assert_rejects(wl, out, passes, edit)

        def zero_sigma(text: str) -> str:
            payload = json.loads(text)
            payload["sigma_e"][sorted(payload["sigma_e"])[0]] = 0.0
            return json.dumps(payload)

        self.assert_rejects(wl, out, "calibration.json", zero_sigma)

    def test_failed_ops_are_counted(self) -> None:
        wl = WORKLOADS["long_stream"](SEED, TINY)
        wl.prepare(self.dir / "in")
        wl.n_passes += 1
        op = run.run_op(wl, self.dir / "out", run.Op(0, "untraced"))
        self.assertIn("report rows", op.error)
        (self.dir / "in" / "config.json").write_text("{}\n")
        op = run.run_op(wl, self.dir / "out", run.Op(1, "untraced"))
        self.assertIn("exited 2", op.error)


class Helpers(unittest.TestCase):
    def test_tail_percentile(self) -> None:
        values = [float(v) for v in range(1, 31)]
        self.assertEqual(run.tail_percentile(values), (20.0, 100.0 * 20 / 30))
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (3.0, 100.0))

    def test_self_time_subtracts_child_coverage(self) -> None:
        self.assertEqual(tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0)
        self.assertEqual(tracing._covered([]), 0.0)

    def test_exits_nonzero_without_the_sources(self) -> None:
        bare = TMP_RUNS / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "long_stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(TMP_RUNS, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
