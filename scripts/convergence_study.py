#!/usr/bin/env python3
"""Multi-seed convergence study on the synthetic flights.

Runs the filter from the offset initialization over many noise seeds on
the circle and lissajous profiles, then tabulates steady-state errors
and convergence times.  Artifacts land under --out: one run directory
per (shape, seed) plus study.csv with a row per run.

Example:
    python scripts/convergence_study.py --seeds 20 --out runs/study
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from uwbnav.harness import RunConfig, run_experiment
from uwbnav.uwb import TOPOLOGIES

SHAPES = {
    "circle": {"p0": [2.0, 0.0, 1.5]},
    "lissajous": {},
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20, help="number of noise seeds per shape")
    ap.add_argument("--duration", type=float, default=30.0, help="flight length in seconds")
    ap.add_argument("--topology", default="toa", choices=TOPOLOGIES)
    ap.add_argument("--variant", default="matrix", choices=["matrix", "quaternion"])
    ap.add_argument("--out", default="runs/study", help="output directory")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for shape, params in SHAPES.items():
        for seed in range(args.seeds):
            cfg = RunConfig(
                trajectory=shape,
                trajectory_params=dict(params),
                duration=args.duration,
                topology=args.topology,
                variant=args.variant,
                seed=seed,
                out=str(out / f"{shape}-{seed:02d}"),
            )
            summary = run_experiment(cfg)
            steady = summary["steady_state_median"]
            rows.append(
                {
                    "shape": shape,
                    "seed": seed,
                    "pos_err": steady["pos_err"],
                    "vel_err": steady["vel_err"],
                    "att_err": steady["att_err"],
                    "t_converge": summary["time_to_pos_below_0.3"],
                    "dropouts": summary["dropouts"],
                }
            )

    with (out / "study.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"{'shape':<10} {'runs':>4} {'pos p50':>9} {'pos p90':>9} "
          f"{'vel p50':>9} {'att p50':>9} {'t_conv p50':>10}")
    for shape in SHAPES:
        sub = [r for r in rows if r["shape"] == shape]
        pos = np.array([r["pos_err"] for r in sub])
        vel = np.array([r["vel_err"] for r in sub])
        att = np.array([r["att_err"] for r in sub])
        conv = np.array([r["t_converge"] for r in sub], dtype=float)
        print(
            f"{shape:<10} {len(sub):>4} {np.median(pos):>9.3f} "
            f"{np.percentile(pos, 90):>9.3f} {np.median(vel):>9.3f} "
            f"{np.median(att):>9.4f} {np.median(conv):>10.2f}"
        )
    print(f"\nper-run rows written to {out / 'study.csv'}")


if __name__ == "__main__":
    main()
