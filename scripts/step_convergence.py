#!/usr/bin/env python3
"""Self-convergence of the discrete filter step under dt refinement.

Runs the same noise-free closed loop at a ladder of step sizes, sampling
the analytic flight at each rate, and reports the endpoint gap between
consecutive refinements.  A first-order-consistent discretization halves
the gap when dt halves; the printed ratios should sit near 2.

Example:
    python scripts/step_convergence.py --levels 5
"""

import argparse

import numpy as np

from uwbnav.attitude import ReferenceEnvironment
from uwbnav.harness import RunConfig, default_anchors, synthesize_measurements
from uwbnav.navfilter import step_with_fix
from uwbnav.sim import generate_trajectory


def endpoint(dt: float, horizon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    traj = generate_trajectory("lissajous", {"duration": horizon, "rate": 1.0 / dt}, ReferenceEnvironment())
    cfg = RunConfig(r_hat0=[0.0, 0.0, 0.5], p_hat0=traj.p[0] + np.array([-2.0, -3.0, 0.5]))
    env, gains, state = cfg.env(), cfg.gains(), cfg.initial_state()
    imu, _ = synthesize_measurements(traj, default_anchors(), "toa", None, env)
    for i in range(int(round(horizon / dt))):
        state, _ = step_with_fix(state, imu[i], traj.p[i], env, gains, dt)
    return np.array(state.attitude), np.array(state.p_hat), np.array(state.v_hat)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dt0", type=float, default=0.04, help="coarsest step size in seconds")
    ap.add_argument("--levels", type=int, default=5, help="number of halvings")
    ap.add_argument("--horizon", type=float, default=1.0, help="integration span in seconds")
    args = ap.parse_args()

    dts = [args.dt0 / 2**k for k in range(args.levels + 1)]
    ends = [endpoint(dt, args.horizon) for dt in dts]
    print(f"{'dt':>8} {'gap to dt/2':>12} {'ratio':>7}")
    gaps = []
    for k in range(args.levels):
        gap = (
            np.linalg.norm(ends[k][0] - ends[k + 1][0])
            + np.linalg.norm(ends[k][1] - ends[k + 1][1])
            + np.linalg.norm(ends[k][2] - ends[k + 1][2])
        )
        gaps.append(gap)
        ratio = gaps[-2] / gap if len(gaps) > 1 else float("nan")
        print(f"{dts[k]:>8.4f} {gap:>12.3e} {ratio:>7.2f}")


if __name__ == "__main__":
    main()
