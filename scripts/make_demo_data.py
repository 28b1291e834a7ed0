"""Generate a synthetic drive-by dataset and print the commands to process it.

Writes ``raw.csv`` (2 Hz analyzer samples over repeated plume transects)
and ``met.csv`` into the output directory. Sample amplitudes are scaled
so the ingested per-pass values scatter around the forward prediction at
the requested release rate, which makes the files usable end to end:
ingest, calibrate, then detect.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumecpd.dataio import MET_REQUIRED, RAW_COLUMNS
from plumecpd.surrogate import DEFAULT_SURROGATE_MET
from plumecpd.transport import (
    Geometry,
    build_forward_model,
    forward_concentration,
    ppm_to_mass_concentration,
)

AMBIENT_PPM = 1.9
SAMPLE_HZ = 2.0
CROSSING_SIGMA_S = 4.0


def synth_pass(rng: np.random.Generator, cy_target: float, speed: float, temperature: float):
    n = 40
    t = np.arange(n) / SAMPLE_HZ
    center = t.mean() + rng.normal(0.0, 1.0)
    profile = np.exp(-0.5 * ((t - center) / CROSSING_SIGMA_S) ** 2)
    # peak concentration that integrates to cy_target across the transect
    peak = cy_target / (speed * CROSSING_SIGMA_S * math.sqrt(2.0 * math.pi))
    per_ppm = ppm_to_mass_concentration(1.0, temperature, 101325.0)
    ppm = AMBIENT_PPM + peak * profile / per_ppm
    ppm = ppm * (1.0 + rng.normal(0.0, 0.01, size=n))
    return t, np.clip(ppm, 0.0, None)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("demo_data"))
    ap.add_argument("--passes", type=int, default=12)
    ap.add_argument("--q-true", type=float, default=0.083, help="release rate, g/s")
    ap.add_argument("--cv", type=float, default=0.35, help="pass-to-pass scatter")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    met = DEFAULT_SURROGATE_MET
    fm = build_forward_model(met, Geometry(30.0))
    mean_cy = forward_concentration(args.q_true, fm)

    rng = np.random.default_rng(args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(RAW_COLUMNS)]
    for k in range(1, args.passes + 1):
        cy = mean_cy * rng.lognormal(mean=0.0, sigma=args.cv)
        speed = float(rng.uniform(2.5, 4.0))
        times, ppm = synth_pass(rng, cy, speed, met.temperature_k)
        for t, c in zip(times, ppm):
            lines.append(f"4,{k},{float(t)!r},{float(c)!r},{speed!r},90")
    (args.out / "raw.csv").write_text("\n".join(lines) + "\n")
    (args.out / "met.csv").write_text(
        ",".join(MET_REQUIRED) + "\n"
        f"4,30,{met.mean_velocity_mps},{met.sigma_u_mps},{met.sigma_w_mps},"
        f"{met.friction_velocity_mps},{met.temperature_k}\n"
    )

    out = args.out
    print(f"wrote {out / 'raw.csv'} ({args.passes} passes) and {out / 'met.csv'}")
    print("next steps:")
    print(f"  plumecpd ingest --raw {out}/raw.csv --met {out}/met.csv --out {out}/passes.csv")
    print(
        f"  plumecpd calibrate --passes {out}/passes.csv --met {out}/met.csv"
        f" --q-true {args.q_true} --out {out}/calibration.json"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
