"""Acceptance suite: one test per headline requirement.

Each test prints a single PASS/FAIL line with the measured worst case
next to its tolerance, then asserts.  Tolerances are fixed here and are
not derived from the code under test; oracle quantities come from
independent constructions (direct algebra, classical RK4, raw stream
comparisons).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import noisy_imu_and_fixes
from scipy.spatial.transform import Rotation

from uwbnav.attitude import ReferenceEnvironment
from uwbnav.harness import RunConfig, default_anchors, ingest_dataset, run_experiment
from uwbnav.liegroup import quat_to_rot, skew, so3_exp
from uwbnav.navfilter import FilterGains, step_with_fix
from uwbnav.sim import NoiseSpec, generate_trajectory
from uwbnav.uwb import AnchorSet, Ranges, solve_fix

from reference import imu_sample, pa, rk4_closed_loop_step, state_of, tdoa_ranges, toa_ranges, vex

DATASET_DIR = Path(__file__).resolve().parent.parent / "data" / "const1"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def _random_scene(rng):
    while True:
        anchors = rng.uniform(-5.0, 5.0, (8, 3))
        spread = np.linalg.svd(anchors - anchors.mean(axis=0), compute_uv=False)
        if spread[-1] > 0.5:
            return AnchorSet(anchors=anchors), rng.uniform(-4.0, 4.0, 3)


def _weighted_refs(rng):
    """Weights and unit reference directions with a rank-3 outer-product sum."""
    while True:
        s = rng.uniform(0.05, 2.0, 3)
        refs = rng.normal(0.0, 1.0, (3, 3))
        refs /= np.linalg.norm(refs, axis=1, keepdims=True)
        m_r = sum(s[i] * np.outer(refs[i], refs[i]) for i in range(3))
        if np.linalg.det(m_r) > 1e-6:
            return s, refs, m_r


def test_criterion_1_multilateration_exactness():
    rng = np.random.default_rng(101)
    worst_toa = 0.0
    worst_tdoa = 0.0
    start = time.perf_counter()
    for _ in range(10_000):
        anchors, p = _random_scene(rng)
        fix = solve_fix(anchors, toa_ranges(p, anchors))
        worst_toa = max(worst_toa, float(np.linalg.norm(fix.p - p)))
        for topo in ("tdoa-main", "tdoa-ring"):
            fix = solve_fix(anchors, tdoa_ranges(p, anchors, topo))
            worst_tdoa = max(worst_tdoa, float(np.linalg.norm(fix.p - p)))
    elapsed = time.perf_counter() - start
    ok = worst_toa <= 1e-9 and worst_tdoa <= 1e-6 and elapsed <= 5.0
    _report(
        "criterion-1 multilateration exactness",
        ok,
        f"worst TOA {worst_toa:.2e} m (tol 1e-9), worst TDOA {worst_tdoa:.2e} m "
        f"(tol 1e-6), {elapsed:.1f} s over 10^4 scenes (cap 5 s)",
    )
    assert worst_toa <= 1e-9
    assert worst_tdoa <= 1e-6
    assert elapsed <= 5.0


def test_criterion_2_attitude_error_bounds():
    rng = np.random.default_rng(202)
    violations = 0
    worst_margin = np.inf
    for _ in range(10_000):
        s, refs, m_r = _weighted_refs(rng)
        m_bar = np.trace(m_r) * np.eye(3) - m_r
        lam = np.linalg.eigvalsh(m_bar)
        r = Rotation.random(random_state=rng).as_matrix()
        err2 = float(vex(pa(m_r @ r)) @ vex(pa(m_r @ r)))
        dist = 0.25 * float(np.trace(m_r @ (np.eye(3) - r)))
        upper_margin = 2.0 * lam[-1] * dist - err2
        lower_margin = err2 - 0.5 * lam[0] * dist * (1.0 + float(np.trace(r)))
        margin = min(upper_margin, lower_margin)
        worst_margin = min(worst_margin, margin)
        if margin < -1e-10:
            violations += 1
    ok = violations == 0
    _report(
        "criterion-2 attitude error norm bounds",
        ok,
        f"{violations} violations beyond 1e-10 slack over 10^4 rank-3 samples "
        f"(worst margin {worst_margin:.2e})",
    )
    assert violations == 0


def test_criterion_3_identity_suite():
    rng = np.random.default_rng(303)
    worst = {name: 0.0 for name in
             ("conjugation", "trace-projection", "range-square",
              "difference-square", "vex-residual", "trace-residual")}
    for _ in range(1000):
        rot = Rotation.random(random_state=rng).as_matrix()
        y = rng.normal(0.0, 2.0, 3)
        m = rng.normal(0.0, 1.0, (3, 3))
        worst["conjugation"] = max(
            worst["conjugation"], float(np.max(np.abs(rot @ skew(y) @ rot.T - skew(rot @ y))))
        )
        lhs = float(np.trace(m @ skew(y)))
        worst["trace-projection"] = max(
            worst["trace-projection"],
            abs(lhs - float(np.trace(pa(m) @ skew(y)))),
            abs(lhs - float(-2.0 * vex(pa(m)) @ y)),
        )
        h_i, h_j = rng.uniform(-5.0, 5.0, (2, 3))
        p = rng.uniform(-4.0, 4.0, 3)
        d_i = float(np.linalg.norm(p - h_i))
        d_j = float(np.linalg.norm(p - h_j))
        worst["range-square"] = max(
            worst["range-square"], abs(d_i**2 - (h_i @ h_i + p @ p - 2.0 * h_i @ p))
        )
        d_ji = d_j - d_i
        worst["difference-square"] = max(
            worst["difference-square"],
            abs((d_ji**2 + h_i @ h_i - h_j @ h_j) / 2.0 - ((h_i - h_j) @ p - d_ji * d_i)),
        )
        s, refs, m_r = _weighted_refs(rng)
        r_hat = Rotation.random(random_state=rng).as_matrix()
        r_tilde = rot @ r_hat.T
        v = refs @ rot
        v_hat = refs @ r_hat
        cross = sum(s[i] * np.cross(v[i], v_hat[i]) for i in range(3))
        worst["vex-residual"] = max(
            worst["vex-residual"],
            float(np.max(np.abs(vex(pa(m_r @ r_tilde)) - 0.5 * r_hat @ cross))),
        )
        acc = sum(s[i] * np.outer(v_hat[i], v[i]) for i in range(3))
        lhs = 0.25 * float(np.trace(m_r @ (np.eye(3) - r_tilde)))
        rhs = 0.25 * float(np.trace(m_r - r_hat @ acc @ r_hat.T))
        worst["trace-residual"] = max(worst["trace-residual"], abs(lhs - rhs))
    overall = max(worst.values())
    ok = overall <= 1e-10
    _report(
        "criterion-3 identity suite",
        ok,
        "worst residuals "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + " over 10^3 instances each (tol 1e-10)",
    )
    assert overall <= 1e-10


def test_criterion_4_group_preservation():
    env = ReferenceEnvironment()
    steps = 100_000
    traj = generate_trajectory(
        "circle", {"p0": [2.0, 0.0, 1.5], "duration": steps * 0.01, "rate": 100.0}, env
    )
    imu, p_y = noisy_imu_and_fixes(traj, NoiseSpec(seed=404), env, steps)
    gains = FilterGains()
    matrix = state_of(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3))
    quat = state_of(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), np.zeros(3), np.zeros(3))
    mats, quats = np.empty((steps, 3, 3)), np.empty((steps, 4))
    for i in range(steps):
        matrix, _ = step_with_fix(matrix, imu[i], p_y[i], env, gains, 0.01)
        quat, _ = step_with_fix(quat, imu[i], p_y[i], env, gains, 0.01)
        mats[i], quats[i] = matrix.attitude, quat.attitude
    worst_matrix = float(np.linalg.norm(mats.transpose(0, 2, 1) @ mats - np.eye(3), axis=(1, 2)).max())
    worst_quat = float(np.abs(np.linalg.norm(quats, axis=1) - 1.0).max())
    ok = worst_matrix <= 1e-9 and worst_quat <= 1e-12
    _report(
        "criterion-4 group preservation",
        ok,
        f"worst orthonormality drift {worst_matrix:.2e} (tol 1e-9), worst unit-norm "
        f"drift {worst_quat:.2e} (tol 1e-12) over 10^5 noisy steps per variant",
    )
    assert worst_matrix <= 1e-9
    assert worst_quat <= 1e-12


def test_criterion_5_variant_equivalence():
    env = ReferenceEnvironment()
    anchors = default_anchors()
    traj = generate_trajectory(
        "circle", {"p0": [2.0, 0.0, 1.5], "duration": 10.0, "rate": 100.0}, env
    )
    noise = NoiseSpec(seed=505)
    rng = noise.stream()
    gains = FilterGains()
    p_hat0 = np.array([-2.0, -3.0, 0.0])
    matrix = state_of(np.eye(3), p_hat0, np.zeros(3), np.zeros(3))
    quat = state_of(np.array([1.0, 0.0, 0.0, 0.0]), p_hat0, np.zeros(3), np.zeros(3))
    worst = {"attitude": 0.0, "position": 0.0, "velocity": 0.0}
    for i in range(1000):
        vdot = traj.rot[i] @ traj.a[i] + env.g_vec
        imu = imu_sample(traj.rot[i], traj.omega[i], vdot, env, noise=noise, rng=rng)
        obs = tdoa_ranges(traj.p[i], anchors, "tdoa-ring")
        noisy = obs.values + rng.normal(0.0, noise.sigma_range, len(obs.values))
        p_y = solve_fix(anchors, Ranges("tdoa-ring", tuple(noisy.tolist()))).p
        matrix, _ = step_with_fix(matrix, imu, p_y, env, gains, 0.01)
        quat, _ = step_with_fix(quat, imu, p_y, env, gains, 0.01)
        worst["attitude"] = max(
            worst["attitude"], float(np.linalg.norm(quat_to_rot(quat.attitude) - matrix.attitude))
        )
        worst["position"] = max(worst["position"], float(np.linalg.norm(np.subtract(quat.p_hat, matrix.p_hat))))
        worst["velocity"] = max(worst["velocity"], float(np.linalg.norm(np.subtract(quat.v_hat, matrix.v_hat))))
    overall = max(worst.values())
    ok = overall <= 1e-6
    _report(
        "criterion-5 variant equivalence",
        ok,
        f"worst gaps attitude {worst['attitude']:.2e}, position {worst['position']:.2e}, "
        f"velocity {worst['velocity']:.2e} over 10^3 steps at dt=0.01 (tol 1e-6)",
    )
    assert overall <= 1e-6


def test_criterion_6_convergence_study(tmp_path):
    shapes = {
        "circle": {"p0": [2.0, 0.0, 1.5]},
        "lissajous": {},
    }
    start = time.perf_counter()
    medians = {}
    diverged = []
    for shape, params in shapes.items():
        per_seed = {"pos": [], "att": [], "vel": []}
        for seed in range(20):
            cfg = RunConfig(
                trajectory=shape,
                trajectory_params=params,
                duration=24.0,
                topology="toa",
                seed=seed,
                out=str(tmp_path / f"{shape}-{seed}"),
            )
            run_experiment(cfg)
            m = np.loadtxt(tmp_path / f"{shape}-{seed}" / "metrics.csv",
                           delimiter=",", skiprows=1)
            tail = m[len(m) // 2 :]
            per_seed["att"].append(np.median(tail[:, 1]))
            per_seed["pos"].append(np.median(tail[:, 2]))
            per_seed["vel"].append(np.median(tail[:, 3]))
            if (
                not np.all(np.isfinite(m))
                or tail[:, 2].max() > 1.0
                or tail[:, 3].max() > 1.0
                or tail[:, 1].max() > 0.5
                or tail[:, 4].max() > 10.0
            ):
                diverged.append(f"{shape}-{seed}")
        medians[shape] = {k: float(np.median(v)) for k, v in per_seed.items()}
    elapsed = time.perf_counter() - start
    ok = (
        all(m["pos"] <= 0.3 and m["att"] <= 0.05 and m["vel"] <= 0.3
            for m in medians.values())
        and not diverged
        and elapsed <= 60.0
    )
    detail = "; ".join(
        f"{shape} median-of-20-seeds pos {m['pos']:.3f} m (tol 0.3), att {m['att']:.4f} "
        f"(tol 0.05), vel {m['vel']:.3f} m/s (tol 0.3)"
        for shape, m in medians.items()
    )
    _report(
        "criterion-6 convergence study",
        ok,
        f"{detail}; diverged {diverged or 'none'}; {elapsed:.0f} s (cap 60 s)",
    )
    for shape, m in medians.items():
        assert m["pos"] <= 0.3, shape
        assert m["att"] <= 0.05, shape
        assert m["vel"] <= 0.3, shape
    assert not diverged
    assert elapsed <= 60.0


def _endpoint_gap(dt: float, horizon: float = 1.0) -> float:
    """Endpoint distance between the discrete filter and RK4 on its ODE."""
    env = ReferenceEnvironment()
    traj = generate_trajectory(
        "lissajous", {"duration": horizon, "rate": 1.0 / dt}, env
    )
    gains = FilterGains()
    r0 = so3_exp(np.array([0.0, 0.0, 0.5]))
    p0 = traj.p[0] + np.array([-2.0, -3.0, 0.5])
    state = state_of(r0, p0, np.zeros(3), np.zeros(3))
    r_c, p_c, v_c, s_c = r0.copy(), p0.copy(), np.zeros(3), np.zeros(3)
    n = int(round(horizon / dt))
    for i in range(n):
        vdot = traj.rot[i] @ traj.a[i] + env.g_vec
        imu = imu_sample(traj.rot[i], traj.omega[i], vdot, env)
        state, _ = step_with_fix(state, imu, traj.p[i], env, gains, dt)
        r_c, p_c, v_c, s_c = rk4_closed_loop_step(
            r_c, p_c, v_c, s_c, imu.omega_m, imu.a_m, imu.m_m, traj.p[i], env, gains, dt
        )
    return (
        float(np.linalg.norm(state.p_hat - p_c))
        + float(np.linalg.norm(state.v_hat - v_c))
        + float(np.linalg.norm(state.attitude - r_c))
    )


def test_criterion_7_discrete_continuous_consistency():
    gaps = [_endpoint_gap(dt) for dt in (0.02, 0.01, 0.005)]
    ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
    ok = all(r >= 1.9 for r in ratios)
    _report(
        "criterion-7 discrete/continuous consistency",
        ok,
        f"endpoint gaps {gaps[0]:.2e}/{gaps[1]:.2e}/{gaps[2]:.2e} at dt 0.02/0.01/0.005, "
        f"shrink ratios {ratios[0]:.2f}x and {ratios[1]:.2f}x per halving (need >= 1.9x)",
    )
    assert ratios[0] >= 1.9
    assert ratios[1] >= 1.9


def test_criterion_8_determinism(tmp_path):
    blobs = []
    for name in ("first", "second"):
        cfg = RunConfig(duration=5.0, seed=808, out=str(tmp_path / name))
        run_experiment(cfg)
        blobs.append((tmp_path / name / "metrics.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(
        "criterion-8 determinism",
        ok,
        "identical seeds give byte-identical metrics"
        if ok
        else "metrics differ between identically seeded runs",
    )
    assert blobs[0] == blobs[1]


@pytest.mark.skipif(not DATASET_DIR.exists(), reason="external dataset not present")
def test_criterion_9_dataset_replay(tmp_path):
    cfg = RunConfig(
        mode="dataset",
        dataset_dir=str(DATASET_DIR),
        filter_rate=100.0,
        rate=500.0,
        tag_offset=[-0.012, 0.001, 0.091],
        out=str(tmp_path / "replay"),
    )
    summary = run_experiment(cfg)
    m = np.loadtxt(tmp_path / "replay" / "metrics.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(m))

    traj, anchors, _, range_stream = ingest_dataset(DATASET_DIR, 100.0)
    raw_err = []
    for i in range(len(traj) - 1):
        try:
            fix = solve_fix(anchors, range_stream[i])
        except Exception:
            continue
        raw_err.append(np.linalg.norm(fix.p - traj.p[i]) ** 2)
    raw_rms = float(np.sqrt(np.mean(raw_err)))
    steady = summary["steady_state_median"]["pos_err"]
    ok = steady < raw_rms
    _report(
        "criterion-9 dataset replay",
        ok,
        f"steady-state position error {steady:.3f} m vs raw reconstruction RMS {raw_rms:.3f} m",
    )
    assert steady < raw_rms
