"""Built-in verification suites for the ``check`` CLI verb.

Each check samples fresh random instances, exercises one pillar of the
pipeline (exact multilateration, algebraic identities, attitude-error
bounds, group preservation, variant agreement, run determinism), and
reports pass/fail with a measured worst case.  They are smaller, faster
cousins of the full acceptance suite, meant as a field sanity check of an
installation.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .attitude import ReferenceEnvironment, measure_imu
from .liegroup import pa, quat_to_rot, skew, vex
from .navfilter import FilterGains, FilterState, step_with_fix
from .sim import NoiseSpec, generate_trajectory
from .uwb import MAIN_BS, RING, AnchorSet, solve_fix, tdoa_ranges, toa_ranges

__all__ = ["CheckResult", "run_all", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_scene(rng: np.random.Generator) -> tuple[AnchorSet, np.ndarray]:
    """Eight anchors and a tag position with non-degenerate geometry."""
    while True:
        anchors = rng.uniform(-5.0, 5.0, (8, 3))
        spread = np.linalg.svd(anchors - anchors.mean(axis=0), compute_uv=False)
        if spread[-1] > 0.5:
            return AnchorSet(anchors=anchors), rng.uniform(-4.0, 4.0, 3)


def check_multilateration(n_scenes: int = 300, seed: int = 0) -> CheckResult:
    """Zero-noise position recovery for TOA and both TDOA topologies."""
    rng = np.random.default_rng(seed)
    worst_toa = 0.0
    worst_tdoa = 0.0
    for _ in range(n_scenes):
        anchors, p = _random_scene(rng)
        fix = solve_fix(anchors, toa_ranges(p, anchors))
        worst_toa = max(worst_toa, float(np.linalg.norm(fix.p - p)))
        for topo in (MAIN_BS, RING):
            fix = solve_fix(anchors, tdoa_ranges(p, anchors, topology=topo))
            worst_tdoa = max(worst_tdoa, float(np.linalg.norm(fix.p - p)))
    ok = worst_toa <= 1e-9 and worst_tdoa <= 1e-6
    return CheckResult(
        "multilateration-exactness",
        ok,
        f"worst TOA {worst_toa:.2e} m, worst TDOA {worst_tdoa:.2e} m over {n_scenes} scenes",
    )


def check_identities(n: int = 200, seed: int = 1) -> CheckResult:
    """Skew conjugation, trace projection, and ranging expansions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        r = Rotation.random(random_state=rng).as_matrix()
        y = rng.normal(0.0, 2.0, 3)
        m = rng.normal(0.0, 1.0, (3, 3))
        worst = max(worst, float(np.max(np.abs(r @ skew(y) @ r.T - skew(r @ y)))))
        lhs = np.trace(m @ skew(y))
        worst = max(worst, abs(lhs - np.trace(pa(m) @ skew(y))))
        worst = max(worst, abs(lhs - (-2.0 * vex(pa(m)) @ y)))
        h = rng.uniform(-5.0, 5.0, (2, 3))
        p = rng.uniform(-4.0, 4.0, 3)
        di = np.linalg.norm(p - h[0])
        dj = np.linalg.norm(p - h[1])
        worst = max(worst, abs(di**2 - (h[0] @ h[0] + p @ p - 2.0 * h[0] @ p)))
        dji = dj - di
        lhs = (dji**2 + h[0] @ h[0] - h[1] @ h[1]) / 2.0
        worst = max(worst, abs(lhs - ((h[0] - h[1]) @ p - dji * di)))
    return CheckResult("algebraic-identities", worst <= 1e-10, f"worst residual {worst:.2e}")


def check_error_bounds(n: int = 1000, seed: int = 2) -> CheckResult:
    """Attitude-error norm bounds for weighted rank-3 reference sets."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n):
        s = rng.uniform(0.05, 2.0, 3)
        refs = rng.normal(0.0, 1.0, (3, 3))
        refs /= np.linalg.norm(refs, axis=1, keepdims=True)
        m_r = sum(s[i] * np.outer(refs[i], refs[i]) for i in range(3))
        m_bar = np.trace(m_r) * np.eye(3) - m_r
        eigs = np.linalg.eigvalsh(m_bar)
        r = Rotation.random(random_state=rng).as_matrix()
        err2 = float(vex(pa(m_r @ r)) @ vex(pa(m_r @ r)))
        dist = 0.25 * np.trace(m_r @ (np.eye(3) - r))
        upper = 2.0 * eigs[-1] * dist - err2
        lower = err2 - 0.5 * eigs[0] * dist * (1.0 + np.trace(r))
        worst = max(worst, -min(upper, lower))
    return CheckResult(
        "attitude-error-bounds", worst <= 1e-10, f"worst violation {worst:.2e} over {n} samples"
    )


def check_group_preservation(steps: int = 2000, seed: int = 3) -> CheckResult:
    """Orthonormality / unit norm under sustained noisy stepping."""
    env = ReferenceEnvironment()
    traj = generate_trajectory(
        "circle", {"p0": [2.0, 0.0, 1.5], "duration": steps * 0.01, "rate": 100.0}, env
    )
    noise = NoiseSpec(seed=seed)
    rng = noise.stream()
    gains = FilterGains()
    worst = {"matrix": 0.0, "quaternion": 0.0}
    for variant in worst:
        attitude = np.eye(3) if variant == "matrix" else np.array([1.0, 0.0, 0.0, 0.0])
        state = FilterState(
            attitude=attitude, p_hat=np.zeros(3), v_hat=np.zeros(3), sigma_hat=np.zeros(3)
        )
        for i in range(min(steps, len(traj) - 1)):
            vdot = traj.rot[i] @ traj.a[i] + env.g_vec
            imu = measure_imu(traj.state(i), traj.omega[i], vdot, env, noise=noise, rng=rng)
            p_y = traj.p[i] + rng.normal(0.0, noise.sigma_range, 3)
            state, _ = step_with_fix(state, imu, p_y, env, gains, 0.01)
            if variant == "matrix":
                drift = np.linalg.norm(state.attitude.T @ state.attitude - np.eye(3))
            else:
                drift = abs(np.linalg.norm(state.attitude) - 1.0)
            worst[variant] = max(worst[variant], float(drift))
    ok = worst["matrix"] <= 1e-9 and worst["quaternion"] <= 1e-12
    return CheckResult(
        "group-preservation",
        ok,
        f"matrix drift {worst['matrix']:.2e}, quaternion drift {worst['quaternion']:.2e}",
    )


def check_variant_agreement(steps: int = 300, seed: int = 4) -> CheckResult:
    """Matrix and quaternion filters on one stream stay within 1e-6."""
    env = ReferenceEnvironment()
    traj = generate_trajectory(
        "circle", {"p0": [2.0, 0.0, 1.5], "duration": steps * 0.01, "rate": 100.0}, env
    )
    noise = NoiseSpec(seed=seed)
    rng = noise.stream()
    gains = FilterGains()
    sm = FilterState(
        attitude=np.eye(3),
        p_hat=np.array([-2.0, -3.0, 0.0]),
        v_hat=np.zeros(3),
        sigma_hat=np.zeros(3),
    )
    sq = FilterState(
        attitude=np.array([1.0, 0.0, 0.0, 0.0]),
        p_hat=sm.p_hat,
        v_hat=np.zeros(3),
        sigma_hat=np.zeros(3),
    )
    worst = 0.0
    for i in range(min(steps, len(traj) - 1)):
        vdot = traj.rot[i] @ traj.a[i] + env.g_vec
        imu = measure_imu(traj.state(i), traj.omega[i], vdot, env, noise=noise, rng=rng)
        p_y = traj.p[i] + rng.normal(0.0, noise.sigma_range, 3)
        sm, _ = step_with_fix(sm, imu, p_y, env, gains, 0.01)
        sq, _ = step_with_fix(sq, imu, p_y, env, gains, 0.01)
        gap = max(
            float(np.linalg.norm(quat_to_rot(sq.attitude) - sm.attitude)),
            float(np.linalg.norm(sq.p_hat - sm.p_hat)),
            float(np.linalg.norm(sq.v_hat - sm.v_hat)),
        )
        worst = max(worst, gap)
    return CheckResult("variant-agreement", worst <= 1e-6, f"worst gap {worst:.2e}")


def check_determinism(seed: int = 5) -> CheckResult:
    """Same seed twice produces byte-identical metrics files."""
    from .harness import RunConfig, run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        blobs = []
        for tag in ("a", "b"):
            cfg = RunConfig(
                duration=3.0, seed=seed, topology="toa", out=str(Path(tmp) / tag)
            )
            run_experiment(cfg)
            blobs.append((Path(tmp) / tag / "metrics.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    return CheckResult(
        "determinism", ok, "metrics byte-identical" if ok else "metrics differ between reruns"
    )


CHECKS = (
    check_multilateration,
    check_identities,
    check_error_bounds,
    check_group_preservation,
    check_variant_agreement,
    check_determinism,
)


def run_all() -> list[CheckResult]:
    """Run every check suite and collect the results."""
    return [fn() for fn in CHECKS]
