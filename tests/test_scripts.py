"""Smoke tests: each script under scripts/ runs to completion on small inputs."""

import csv
import subprocess
import sys
from pathlib import Path

from plumecpd.cli import main
from plumecpd.dataio import read_passes

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_walkthrough_prints_every_pass(tmp_path):
    out = run_script("run_walkthrough.py", cwd=tmp_path)
    rows = [line.split() for line in out.splitlines()]
    passes = [int(row[0]) for row in rows if row and row[0].isdigit()]
    assert passes == list(range(1, 25))
    assert "true change after pass 12" in out
    assert "detected at pass" in out or "no changepoint crossed" in out


def test_threshold_sweep_writes_one_row_per_cell(tmp_path):
    report = tmp_path / "sweep.csv"
    out = run_script(
        "run_threshold_sweep.py",
        "--instances", "5",
        "--repetitions", "2",
        "--boot", "50",
        "--workers", "1",
        "--lrr", "1,3",
        "--threshold", "0.8",
        "--out", str(report),
        cwd=tmp_path,
    )
    assert f"wrote 2 cells to {report}" in out
    with open(report, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["lrr_or_jnr"], row["threshold"]) for row in rows] == [("1.0", "0.8"), ("3.0", "0.8")]
    assert all(0.0 <= float(row["fpr"]) <= 1.0 for row in rows)


def test_demo_data_goes_through_ingest(tmp_path):
    data = tmp_path / "demo"
    out = run_script("make_demo_data.py", "--out", str(data), cwd=tmp_path)
    assert "wrote" in out
    passes = tmp_path / "passes.csv"
    argv = ["ingest", "--raw", str(data / "raw.csv"), "--met", str(data / "met.csv")]
    assert main(argv + ["--out", str(passes)]) == 0
    cys = [cy for _, cy in read_passes(passes)["4"]]
    assert len(cys) == 12
    assert all(cy > 0 for cy in cys)
