"""Operating-curve sweep on a surrogate experiment.

Scores detection recall, false-positive rate, and delay over a grid of
jump ratios and alarm thresholds with ``plumecpd sweep``, then copies its
``report.csv`` to ``--out`` and prints one line per cell. Useful for
picking a threshold before committing to a field deployment.
"""

from __future__ import annotations

import argparse
import csv
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumecpd.cli import main as plumecpd_main
from plumecpd.dataio import MET_REQUIRED, write_passes_csv
from plumecpd.surrogate import DEFAULT_SURROGATE_MET, make_surrogate_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cv", type=float, default=0.5)
    ap.add_argument("--passes", type=int, default=14)
    ap.add_argument("--q-true", type=float, default=0.5, help="pre-change rate, g/s")
    ap.add_argument("--lrr", default="1,1.5,2,3,5")
    ap.add_argument("--threshold", default="0.5,0.8,0.95")
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--repetitions", type=int, default=5)
    ap.add_argument("--boot", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out", type=Path, default=Path("threshold_sweep.csv"))
    args = ap.parse_args()

    exp, _ = make_surrogate_experiment("surrogate", args.passes, args.cv, args.q_true)
    met = DEFAULT_SURROGATE_MET
    met_row = [exp.fetch_m, met.mean_velocity_mps, met.sigma_u_mps, met.sigma_w_mps,
               met.friction_velocity_mps, met.temperature_k]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_passes_csv(tmp / "passes.csv", [("surrogate", k, cy) for k, cy in enumerate(exp.cy_series, 1)])
        met_lines = [",".join(MET_REQUIRED), ",".join(["surrogate", *map(repr, met_row)])]
        (tmp / "met.csv").write_text("\n".join(met_lines) + "\n")
        rc = plumecpd_main([
            "sweep", "--passes", str(tmp / "passes.csv"), "--met", str(tmp / "met.csv"),
            "--q-true", repr(args.q_true), "--lrr", args.lrr, "--threshold", args.threshold,
            "--instances", str(args.instances), "--repetitions", str(args.repetitions),
            "--boot", str(args.boot), "--seed", str(args.seed), "--workers", str(args.workers),
            "--out", str(tmp / "sweep"),
        ])
        if rc:
            return rc
        shutil.copyfile(tmp / "sweep" / "report.csv", args.out)

    with open(args.out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    print(f"wrote {len(rows)} cells to {args.out}")
    print(f"{'thr':>5} {'lrr':>5} {'recall':>7} {'det_recall':>10} {'fpr':>7} {'delay':>6}")
    for row in rows:
        recall, det_recall, delay = (
            f"{float(row[key]):.{digits}f}" if row[key] else "-"
            for key, digits in (("recall", 3), ("det_recall", 3), ("det_delay", 2))
        )
        print(
            f"{float(row['threshold']):>5.2f} {float(row['lrr_or_jnr']):>5.2f} {recall:>7}"
            f" {det_recall:>10} {float(row['fpr']):>7.3f} {delay:>6}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
