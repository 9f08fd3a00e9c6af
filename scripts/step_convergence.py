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

from uwbnav.attitude import ImuSample, ReferenceEnvironment, measure_imu
from uwbnav.liegroup import so3_exp
from uwbnav.navfilter import FilterGains, FilterState, step_with_fix
from uwbnav.sim import generate_trajectory


def endpoint(dt: float, horizon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    env = ReferenceEnvironment()
    traj = generate_trajectory("lissajous", {"duration": horizon, "rate": 1.0 / dt}, env)
    gains = FilterGains()
    state = FilterState(
        attitude=so3_exp(np.array([0.0, 0.0, 0.5])),
        p_hat=traj.p[0] + np.array([-2.0, -3.0, 0.5]),
        v_hat=np.zeros(3),
        sigma_hat=np.zeros(3),
    )
    vdot = (traj.rot @ traj.a[:, :, None])[:, :, 0] + env.g_vec
    gyro, accel, mag = measure_imu(traj.rot, traj.omega, vdot, env)
    for i in range(int(round(horizon / dt))):
        imu = ImuSample(omega_m=gyro[i], a_m=accel[i], m_m=mag[i])
        state, _ = step_with_fix(state, imu, traj.p[i], env, gains, dt)
    return state.attitude, state.p_hat, state.v_hat


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
