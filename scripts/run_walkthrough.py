"""Single-instance walkthrough: synthesize a rate jump and watch the detector.

Builds a surrogate experiment, estimates the noise scale the same way
``plumecpd calibrate`` does, splices a jump of the requested ratio into
a shuffled copy of the passes, and prints the per-pass posterior summary
next to the changepoint probability.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumecpd.detector import DetectorConfig, detect_series
from plumecpd.inference import estimate_sigma_e
from plumecpd.surrogate import make_surrogate_experiment
from plumecpd.synthesis import synthesize_batch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--passes", type=int, default=12)
    ap.add_argument("--cv", type=float, default=0.35)
    ap.add_argument("--q-true", type=float, default=0.083, help="pre-change rate, g/s")
    ap.add_argument("--lrr", type=float, default=3.0, help="post/pre rate ratio")
    ap.add_argument("--threshold", type=float, default=0.8)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    exp, fm = make_surrogate_experiment("demo", args.passes, args.cv, args.q_true)
    sigma_e = estimate_sigma_e(list(exp.cy_series), args.q_true, fm)
    series = synthesize_batch(exp, args.lrr, 1, master_seed=args.seed)[0]
    cfg = DetectorConfig(threshold=args.threshold, sigma_e_initial=sigma_e)
    reports, events = detect_series(series, fm, cfg)

    print(f"sigma_e = {sigma_e:.5g} g/m2, true change after pass {exp.n_passes}")
    print(f"{'pass':>4} {'cy g/m2':>12} {'P(change)':>10} {'mode g/s':>9} {'mean g/s':>9} {'std g/s':>8}")
    event_passes = {e.pass_index: e for e in events}
    for r in reports:
        flag = "  <- changepoint" if r.pass_index in event_passes else ""
        print(
            f"{r.pass_index:>4} {r.cy_g_per_m2:>12.5g} {r.changepoint_probability:>10.3f}"
            f" {r.mode_g_per_s:>9.3f} {r.mean_g_per_s:>9.3f} {r.std_g_per_s:>8.3f}{flag}"
        )
    if not events:
        print("no changepoint crossed the threshold")
    for e in events:
        print(
            f"detected at pass {e.pass_index} (regime {e.regime_index}),"
            f" P = {e.changepoint_probability:.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
