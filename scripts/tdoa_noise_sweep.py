#!/usr/bin/env python3
"""Ranging-noise sweep: raw fix quality vs filtered accuracy by topology.

For each observation topology and each per-measurement noise level, this
measures the raw multilateration error (solving every tick directly) and
the filter's steady-state position/velocity error on the circle flight.
The contrast quantifies how much noise the closed-form TDOA solvers
amplify relative to TOA, and how much of that the filter absorbs.

Example:
    python scripts/tdoa_noise_sweep.py --sigmas 0.01,0.02,0.05 --seeds 5
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from uwbnav.harness import RunConfig, default_anchors, run_experiment, synthesize_measurements
from uwbnav.sim import NoiseSpec, generate_trajectory
from uwbnav.uwb import TOPOLOGIES, GeometryDegenerate, solve_fix

P0 = [2.0, 0.0, 1.5]


def raw_fix_rms(topology: str, sigma: float, seed: int, duration: float) -> float:
    env = RunConfig().env()
    anchors = default_anchors()
    traj = generate_trajectory(
        "circle", {"p0": P0, "duration": duration, "rate": 20.0}, env
    )
    noise = NoiseSpec(seed=seed, sigma_range=sigma)
    _, ranges = synthesize_measurements(traj, anchors, topology, noise, env)
    sq = []
    for i, obs in enumerate(ranges):
        try:
            fix = solve_fix(anchors, obs)
        except GeometryDegenerate:
            continue
        sq.append(np.linalg.norm(fix.p - traj.p[i]) ** 2)
    return float(np.sqrt(np.mean(sq)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigmas", default="0.01,0.02,0.05,0.10",
                    help="comma-separated per-measurement noise levels in meters")
    ap.add_argument("--seeds", type=int, default=5, help="noise seeds per cell")
    ap.add_argument("--duration", type=float, default=20.0, help="flight length in seconds")
    ap.add_argument("--out", default="runs/noise-sweep", help="output directory")
    args = ap.parse_args()

    sigmas = [float(s) for s in args.sigmas.split(",")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    print(f"{'topology':<10} {'sigma':>6} {'raw rms':>8} {'pos p50':>8} {'vel p50':>8}")
    for topology in TOPOLOGIES:
        for sigma in sigmas:
            pos, vel = [], []
            for seed in range(args.seeds):
                cfg = RunConfig(
                    trajectory="circle",
                    trajectory_params={"p0": P0},
                    duration=args.duration,
                    topology=topology,
                    sigma_range=sigma,
                    seed=seed,
                    out=str(out / f"{topology}-{sigma:g}-{seed}"),
                )
                steady = run_experiment(cfg)["steady_state_median"]
                pos.append(steady["pos_err"])
                vel.append(steady["vel_err"])
            raw = raw_fix_rms(topology, sigma, seed=0, duration=args.duration)
            row = {
                "topology": topology,
                "sigma": sigma,
                "raw_fix_rms": raw,
                "pos_p50": float(np.median(pos)),
                "vel_p50": float(np.median(vel)),
            }
            rows.append(row)
            print(f"{topology:<10} {sigma:>6.3f} {raw:>8.3f} "
                  f"{row['pos_p50']:>8.3f} {row['vel_p50']:>8.3f}")

    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nrows written to {out / 'sweep.csv'}")


if __name__ == "__main__":
    main()
