"""Operating-curve sweep on surrogate experiments.

Scores detection recall, false-positive rate, and delay over a grid of
jump ratios and alarm thresholds, then writes the same ``report.csv``
layout the CLI sweep emits. Useful for picking a threshold before
committing to a field deployment.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumecpd.dataio import sweep_row, write_report_csv
from plumecpd.detector import DetectorConfig
from plumecpd.inference import estimate_sigma_e
from plumecpd.metrics import evaluate_cell
from plumecpd.surrogate import make_unit_forward_experiment


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _cell(payload):
    exp, fm, cfg, lrr, instances, repetitions, seed, boot = payload
    report = evaluate_cell(
        exp,
        lrr,
        cfg,
        n_instances=instances,
        n_repetitions=repetitions,
        master_seed=seed,
        fm=fm,
        n_boot=boot,
    )
    return sweep_row(exp, lrr, cfg.threshold, report)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cv", type=float, default=0.5)
    ap.add_argument("--passes", type=int, default=14)
    ap.add_argument("--q-true", type=float, default=0.5, help="pre-change rate, g/s")
    ap.add_argument("--lrr", type=_floats, default=[1.0, 1.5, 2.0, 3.0, 5.0])
    ap.add_argument("--threshold", type=_floats, default=[0.5, 0.8, 0.95])
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--repetitions", type=int, default=5)
    ap.add_argument("--boot", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out", type=Path, default=Path("threshold_sweep.csv"))
    args = ap.parse_args()

    exp, fm = make_unit_forward_experiment("surrogate", args.passes, args.cv, args.q_true)
    sigma_e = estimate_sigma_e(list(exp.cy_series), args.q_true, fm)
    payloads = []
    for threshold in args.threshold:
        cfg = DetectorConfig(threshold=threshold, sigma_e_initial=sigma_e)
        for lrr in args.lrr:
            payloads.append(
                (exp, fm, cfg, lrr, args.instances, args.repetitions, args.seed, args.boot)
            )

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_cell, payloads))
    else:
        rows = [_cell(p) for p in payloads]

    write_report_csv(args.out, rows)
    print(f"wrote {len(rows)} cells to {args.out}")
    print(f"{'thr':>5} {'lrr':>5} {'recall':>7} {'det_recall':>10} {'fpr':>7} {'delay':>6}")
    for row in rows:
        recall, det_recall, delay = (
            "-" if row[key] is None else f"{row[key]:.{digits}f}"
            for key, digits in (("recall", 3), ("det_recall", 3), ("det_delay", 2))
        )
        print(
            f"{row['threshold']:>5.2f} {row['lrr_or_jnr']:>5.2f} {recall:>7}"
            f" {det_recall:>10} {row['fpr']:>7.3f} {delay:>6}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
