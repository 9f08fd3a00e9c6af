"""Independent straight-line oracles for the closed-loop filter tests.

Everything here re-derives the correction block and the continuous
estimator dynamics from scratch (plain vector algebra, no calls into the
module under test) so that the discrete implementation can be checked
against an integrator it shares no code with.

The 5x5 group embeddings build the ``scipy.linalg.expm`` oracles of the
exponential tests, and ``propagate_truth`` is the exact truth flow those
tests vouch for (it runs on the package's closed-form ``se23_exp``).

The per-sample oracles at the end are the one-value-at-a-time forms of
code the package evaluates on whole arrays (measurement synthesis, the
rotation exponential, rotation-to-quaternion); the array forms must give
bit-identical results.  ``toa_solve_per_call`` is likewise the TOA solve
that factors its system matrix on every call, which the anchor set's
one-time factorization must reproduce bit for bit, and
``tdoa_solve_main_bs`` / ``tdoa_solve_ring`` are one dedicated solver per
TDOA topology, which the package's one solver over the topology's anchor-pair
list must reproduce bit for bit.

The numpy step at the end (``build_triads_numpy`` through ``step_numpy``)
is the filter step written with array products: the form the package
evaluates on Python floats.  The two must agree to round-off.
"""

import dataclasses
import math

import numpy as np
from scipy.linalg.lapack import dgesdd

from uwbnav.attitude import EPS_DEGENERATE, DegenerateTriads, TriadSet, measure_imu
from uwbnav.liegroup import SMALL_ANGLE, NavState, TangentInput, _rodrigues_coefficients, se23_exp
from uwbnav.navfilter import CorrectionTerms, FilterState
from uwbnav.uwb import (
    MAIN_BS,
    GeometryDegenerate,
    PositionFix,
    TdoaRanges,
    ToaRanges,
    solve_fix,
    tdoa_ranges,
    toa_ranges,
)


def _skew(w):
    return np.array(
        [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
    )


def _unit(x):
    return x / np.linalg.norm(x)


def tangent_matrix(u):
    """5x5 embedding of a TangentInput: ``skew(omega)``, then the ``v`` and ``a`` columns, ``eps`` at (4, 3)."""
    m = np.zeros((5, 5))
    m[:3, :3] = _skew(u.omega)
    m[:3, 3] = u.v
    m[:3, 4] = u.a
    m[4, 3] = u.eps
    return m


def nav_matrix(x):
    """5x5 group embedding ``[[R, p, v], [0, 1, 0], [0, 0, 1]]`` of a NavState."""
    m = np.eye(5)
    m[:3, :3] = x.r
    m[:3, 3] = x.p
    m[:3, 4] = x.v
    return m


def propagate_truth(x, omega, a, env, dt):
    """Advance truth one interval of piecewise-constant body inputs.

    The exact flow of ``X_dot = X U - G X`` is ``exp(-G dt) X exp(U dt)``
    with ``U = u(skew(omega), 0, a, 1)`` and ``G = u(0, 0, -g, 1)``; the left
    and right epsilon couplings cancel, so the product stays in the group.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    zero = np.zeros(3)
    left = se23_exp(TangentInput(omega=zero, v=zero, a=env.g_vec, eps=-1.0), dt)
    right = se23_exp(TangentInput(omega=omega, v=zero, a=a, eps=1.0), dt)
    m = left @ nav_matrix(x) @ right
    return NavState(r=m[:3, :3], p=m[:3, 3], v=m[:3, 4])


def weighting_matrices(triads):
    """Weighted outer-product sums ``(M_r, M_B)`` of a triad set's reference and body sides."""
    m_r = np.zeros((3, 3))
    m_b = np.zeros((3, 3))
    for i in range(3):
        m_r += triads.s[i] * np.outer(triads.r[i], triads.r[i])
        m_b += triads.s[i] * np.outer(triads.v[i], triads.v[i])
    return m_r, m_b


def scaled_noise(noise, factor):
    """Copy of a NoiseSpec with every sigma times ``factor`` (the spec itself at 1)."""
    if factor == 1.0:
        return noise
    return dataclasses.replace(
        noise,
        sigma_omega=noise.sigma_omega * factor,
        sigma_a=noise.sigma_a * factor,
        sigma_m=noise.sigma_m * factor,
        sigma_range=noise.sigma_range * factor,
    )


def correction_eval(r_hat, p_hat, v_hat, sigma_hat, omega_m, a_m, m_m, p_y, env, gains):
    """Straight-line evaluation of the correction and adaptation block.

    Returns (e_r, cross, sigma_dot, w_omega, w_v, w_a) computed with
    elementwise expressions only.
    """
    v = np.vstack([_unit(a_m), _unit(m_m), _unit(np.cross(_unit(a_m), _unit(m_m)))])
    r1 = _unit(-env.g_vec)
    r2 = _unit(env.m_r)
    r = np.vstack([r1, r2, _unit(np.cross(r1, r2))])
    s = gains.s

    cross = np.zeros(3)
    e_r = 0.0
    for i in range(3):
        v_hat_i = r_hat.T @ r[i]
        cross += s[i] * np.cross(v[i], v_hat_i)
        e_r += 0.25 * s[i] * (r[i] @ r[i] - (r_hat @ v_hat_i) @ (r_hat @ v[i]))

    sigma_dot = (
        gains.gamma_sigma * (e_r + 2.0) / 8.0 * np.exp(e_r) * cross * cross
        - gains.k_sigma * gains.gamma_sigma * sigma_hat
    )
    w_omega = -(gains.k1 / 2.0) * (r_hat @ cross) - (1.0 / 8.0) * (e_r + 2.0) / (
        e_r + 1.0
    ) * (r_hat @ (cross * sigma_hat))
    w_v = -(gains.kv / gains.epsilon) * (p_y - p_hat) - np.cross(w_omega, p_hat)
    w_a = -gains.ka * (p_y - p_hat) - np.cross(w_omega, v_hat)
    return e_r, cross, sigma_dot, w_omega, w_v, w_a


def closed_loop_rhs(r, p, v, sigma, omega_m, a_m, m_m, p_y, env, gains):
    """Continuous closed-loop derivative, gravity in the velocity law."""
    _, _, sigma_dot, w_omega, w_v, w_a = correction_eval(
        r, p, v, sigma, omega_m, a_m, m_m, p_y, env, gains
    )
    r_dot = r @ _skew(omega_m) - _skew(w_omega) @ r
    p_dot = v - np.cross(w_omega, p) - w_v
    v_dot = r @ a_m + env.g_vec - np.cross(w_omega, v) - w_a
    return r_dot, p_dot, v_dot, sigma_dot


def rk4_closed_loop_step(r, p, v, sigma, omega_m, a_m, m_m, p_y, env, gains, dt):
    """Classical fourth-order step holding the measurements constant.

    The corrections are recomputed at every stage from the stage state, so
    this integrates the genuine closed loop, not a frozen linearization.
    """

    def f(state):
        return closed_loop_rhs(*state, omega_m, a_m, m_m, p_y, env, gains)

    def add(state, ks, h):
        return tuple(x + h * k for x, k in zip(state, ks))

    y0 = (r, p, v, sigma)
    k1 = f(y0)
    k2 = f(add(y0, k1, dt / 2.0))
    k3 = f(add(y0, k2, dt / 2.0))
    k4 = f(add(y0, k3, dt))
    return tuple(
        x + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip(y0, k1, k2, k3, k4)
    )


def synthesize_per_sample(traj, anchors, topology, noise, env, tag_offset=None):
    """Measurement synthesis one sample at a time: a measure_imu call, then the range draws.

    Noise comes from one generator in the per-sample order gyro,
    accelerometer, magnetometer, ranges, with the schedule's sigma factor
    applied per sample.
    """
    rng = noise.stream() if noise is not None else None
    duration = float(traj.t[-1] - traj.t[0])
    lever = None if tag_offset is None or not np.any(tag_offset) else np.asarray(tag_offset, dtype=float)
    imu_stream, range_stream = [], []
    for i in range(len(traj)):
        t = float(traj.t[i])
        scaled = scaled_noise(noise, noise.scale_at(t, duration)) if noise is not None else None
        vdot = traj.rot[i] @ traj.a[i] + env.g_vec
        imu_stream.append(
            measure_imu(traj.state(i), traj.omega[i], vdot, env, noise=scaled, rng=rng, t=t)
        )
        tag = traj.p[i] if lever is None else traj.p[i] + traj.rot[i] @ lever
        if topology == "toa":
            obs = toa_ranges(tag, anchors)
            if scaled is not None:
                obs = ToaRanges(d=obs.d + rng.normal(0.0, scaled.sigma_range, len(obs.d)))
        else:
            ring = "ring" if topology == "tdoa-ring" else MAIN_BS
            obs = tdoa_ranges(tag, anchors, topology=ring)
            if scaled is not None:
                obs = TdoaRanges(
                    topology=obs.topology,
                    diffs=obs.diffs + rng.normal(0.0, scaled.sigma_range, len(obs.diffs)),
                )
        range_stream.append(obs)
    return imu_stream, range_stream


def so3_exp_per_vector(w):
    """Rodrigues exponential ``I + A S + B S^2`` of one rotation vector."""
    w = np.asarray(w, dtype=float)
    a, b, _, _ = _rodrigues_coefficients(float(np.linalg.norm(w)))
    s = _skew(w)
    return np.eye(3) + a * s + b * (s @ s)


def rot_to_quat_per_matrix(r):
    """Quaternion of one rotation matrix: Shepperd's largest pivot, then ``q0 >= 0``."""
    t = r.trace()
    case = int(np.argmax([t, r[0, 0], r[1, 1], r[2, 2]]))
    if case == 0:
        s = np.sqrt(1.0 + t) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif case == 1:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif case == 2:
        s = np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q = q / math.sqrt(q @ q)
    return -q if q[0] < 0.0 else q


def _svd_solve(a, b):
    """``V ((U^T b) / s)`` from a fresh thin SVD of ``a``, with the package's rank and condition messages."""
    u, s, vt, info = dgesdd(a, full_matrices=0)
    assert info == 0
    s_max, s_min = float(s[0]), float(s[-1])
    tol = s_max * max(a.shape) * np.finfo(float).eps
    if not s_min > tol:
        raise GeometryDegenerate(f"system rank {int(np.count_nonzero(s > tol))} below {a.shape[1]} unknowns")
    cond = s_max / s_min
    if not cond <= 1e8:
        raise GeometryDegenerate(f"condition number {cond:.3g} above ceiling {1e8:.3g}")
    return vt.T @ ((u.T @ b) / s), cond


def toa_solve_per_call(anchors, ranges):
    """TOA fix from a fresh thin SVD of the differenced system on every call.

    Same rows, floor, rank and condition messages as ``uwb.toa_solve``; the
    solution is ``V ((U^T b) / s)``.
    """
    h, n = anchors.anchors, len(anchors)
    if n < 4:
        raise GeometryDegenerate(f"need at least 4 anchors, got {n}")
    d = ranges.d
    hn2 = np.sum(h**2, axis=1)
    b = 0.5 * (d[0] ** 2 - d[1:] ** 2 + hn2[1:] - hn2[0])
    p, cond = _svd_solve(h[1:] - h[0], b)
    return PositionFix(p=p, condition_number=cond)


def _tdoa_fix(x, cond):
    aux = float(x[3])
    return PositionFix(p=x[:3], condition_number=cond, aux_range=max(aux, 0.0), aux_clamped=aux < 0.0)


def tdoa_solve_main_bs(anchors, ranges):
    """Main-base-station TDOA fix: rows ``(h_1 - h_i) . p - d_i1 dist_1 = (d_i1^2 + ||h_1||^2 - ||h_i||^2) / 2``.

    Floor, count check and messages as ``uwb.tdoa_solve``; a fresh SVD per call.
    """
    h, n = anchors.anchors, len(anchors)
    if n < 5:
        raise GeometryDegenerate(f"need at least 5 anchors, got {n}")
    diffs = ranges.diffs
    if diffs.shape != (n - 1,):
        raise ValueError("difference count does not match anchor count")
    hn2 = np.sum(h**2, axis=1)
    a = np.zeros((n - 1, 4))
    a[:, :3] = h[0] - h[1:]
    a[:, 3] = -diffs
    b = 0.5 * (diffs**2 + hn2[0] - hn2[1:])
    return _tdoa_fix(*_svd_solve(a, b))


def tdoa_solve_ring(anchors, ranges):
    """Ring TDOA fix: rows ``(h_j - h_{j+1}) . p - d dist_1 = (d^2 + ||h_j||^2 - ||h_{j+1}||^2 + 2 d c_j) / 2``.

    ``c_j`` is the partial sum of the differences before pair j; the
    wraparound pair (N, 1) closes the ring.  Floor, count check and
    messages as ``uwb.tdoa_solve``; a fresh SVD per call.
    """
    h, n = anchors.anchors, len(anchors)
    if n < 5:
        raise GeometryDegenerate(f"need at least 5 anchors, got {n}")
    diffs = ranges.diffs
    if diffs.shape != (n,):
        raise ValueError("difference count does not match anchor count")
    hn2 = np.sum(h**2, axis=1)
    nxt = (np.arange(n) + 1) % n
    partial = np.concatenate([[0.0], np.cumsum(diffs[:-1])])
    a = np.zeros((n, 4))
    a[:, :3] = h - h[nxt]
    a[:, 3] = -diffs
    b = 0.5 * (diffs**2 + hn2 - hn2[nxt] + 2.0 * diffs * partial)
    return _tdoa_fix(*_svd_solve(a, b))


def _unit_or_raise(vec, what):
    n = math.sqrt(vec @ vec)
    if n <= EPS_DEGENERATE:
        raise DegenerateTriads(f"{what} has near-zero norm")
    return vec / n


def reference_triad(env):
    """Rows ``-g/|g|``, ``m_r/|m_r|`` and their normalized cross product."""
    r1 = _unit_or_raise(-env.g_vec, "gravity reference")
    r2 = _unit_or_raise(env.m_r, "magnetic reference")
    return np.array([r1, r2, _unit_or_raise(np.cross(r1, r2), "reference cross product")])


def build_triads_numpy(a_m, m_m, env, s=(1.0, 1.0, 1.0)):
    """Accelerometer/magnetometer triads with array normalization and cross products."""
    v1 = _unit_or_raise(np.asarray(a_m, dtype=float), "accelerometer sample")
    v2 = _unit_or_raise(np.asarray(m_m, dtype=float), "magnetometer sample")
    v = np.array([v1, v2, _unit_or_raise(np.cross(v1, v2), "measured cross product")])
    return TriadSet(v=v, r=reference_triad(env), s=s)


def rotation_numpy(attitude):
    """Rotation matrix of a 3x3 or scalar-first quaternion attitude: ``(q0^2 - |qv|^2) I + 2 qv qv^T + 2 q0 [qv]x``."""
    if attitude.shape == (3, 3):
        return attitude
    q0, qv = attitude[0], attitude[1:]
    return (q0 * q0 - qv @ qv) * np.eye(3) + 2.0 * np.outer(qv, qv) + 2.0 * q0 * _skew(qv)


def quat_multiply_numpy(a, b):
    """Hamilton product ``[a0 b0 - av.bv, a0 bv + b0 av + av x bv]``."""
    return np.concatenate([[a[0] * b[0] - a[1:] @ b[1:]], a[0] * b[1:] + b[0] * a[1:] + np.cross(a[1:], b[1:])])


def quat_from_rotvec_numpy(w):
    """``[cos(t/2), sin(t/2) w / t]`` with ``t = |w|``; second-order series below SMALL_ANGLE."""
    theta = float(np.linalg.norm(w))
    scale = 0.5 - theta * theta / 48.0 if theta < SMALL_ANGLE else math.sin(0.5 * theta) / theta
    return np.concatenate([[math.cos(0.5 * theta)], scale * w])


def se23_blocks_numpy(omega, v, a, eps, dt):
    """``(R, t_p, t_v)`` of ``expm(u(skew(omega), v, a, eps) dt)`` from the skew-matrix series.

    ``R = I + A S + B S^2``, ``t_p = J1 v dt + eps dt^2 J2 a``, ``t_v = J1 a dt``
    with ``J1 = I + B S + C S^2``, ``J2 = I/2 + C S + D S^2`` and ``S = skew(omega dt)``.
    """
    w = omega * dt
    a_c, b_c, c_c, d_c = _rodrigues_coefficients(float(np.linalg.norm(w)))
    s = _skew(w)
    s2 = s @ s
    eye = np.eye(3)
    j1 = eye + b_c * s + c_c * s2
    j2 = 0.5 * eye + c_c * s + d_c * s2
    return eye + a_c * s + b_c * s2, j1 @ (v * dt) + eps * dt * dt * (j2 @ a), j1 @ (a * dt)


def correction_terms_numpy(state, triads, p_y, gains):
    """Correction block with array products: ``m = (r R)^T (s v)``, its vex, and the trace residual."""
    r_hat = rotation_numpy(state.attitude)
    s = triads.s
    m = (triads.r @ r_hat).T @ (s[:, None] * triads.v)
    cross = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    e_r = 0.25 * float(s @ (triads.r * triads.r).sum(axis=1) - np.vdot(r_hat @ m, r_hat))
    g = gains
    sigma_dot = (
        g.gamma_sigma * (e_r + 2.0) / 8.0 * math.exp(e_r) * (cross * cross)
        - g.k_sigma * g.gamma_sigma * state.sigma_hat
    )
    w_omega = r_hat @ (
        -(g.k1 / 2.0) * cross - 0.125 * (e_r + 2.0) / (e_r + 1.0) * (cross * state.sigma_hat)
    )
    innovation = p_y - state.p_hat
    return CorrectionTerms(
        e_r=e_r,
        d_v=np.diag(cross),
        w_omega=w_omega,
        w_v=-(g.kv / g.epsilon) * innovation - np.cross(w_omega, state.p_hat),
        w_a=-g.ka * innovation - np.cross(w_omega, state.v_hat),
        sigma_dot=sigma_dot,
    )


def predict_numpy(state, imu, dt):
    """``X exp(u(skew(omega_m), 0, a_m, 1) dt)`` with array products."""
    rot, t_p, t_v = se23_blocks_numpy(imu.omega_m, np.zeros(3), imu.a_m, 1.0, dt)
    r_hat = rotation_numpy(state.attitude)
    if state.attitude.shape == (3, 3):
        att = state.attitude @ rot
    else:
        att = quat_multiply_numpy(state.attitude, quat_from_rotvec_numpy(imu.omega_m * dt))
        att = att / np.linalg.norm(att)
    return FilterState(
        attitude=att, p_hat=state.p_hat + state.v_hat * dt + r_hat @ t_p, v_hat=state.v_hat + r_hat @ t_v,
        sigma_hat=state.sigma_hat, t=state.t + dt,
    )


def update_numpy(state, w, dt):
    """``exp(-W dt)`` applied to a predicted state, with array products."""
    r_e, t_p, t_v = se23_blocks_numpy(w.w_omega, w.w_v, w.w_a, 1.0, -dt)
    if state.attitude.shape == (3, 3):
        att = r_e @ state.attitude
    else:
        att = quat_multiply_numpy(quat_from_rotvec_numpy(w.w_omega * -dt), state.attitude)
        att = att / np.linalg.norm(att)
    return FilterState(
        attitude=att, p_hat=r_e @ state.p_hat + t_p + dt * t_v, v_hat=r_e @ state.v_hat + t_v,
        sigma_hat=state.sigma_hat + dt * w.sigma_dot, t=state.t,
    )


def step_numpy(state, imu, ranges, anchors, env, gains, dt):
    """One filter iteration from the numpy layers: the package's ``step``, dropout rule included."""
    try:
        p_y = solve_fix(anchors, ranges).p
        triads = build_triads_numpy(imu.a_m, imu.m_m, env, s=gains.s)
    except (GeometryDegenerate, DegenerateTriads):
        return predict_numpy(state, imu, dt)
    w = correction_terms_numpy(state, triads, p_y, gains)
    folded = dataclasses.replace(w, w_a=w.w_a - env.g_vec)
    return update_numpy(predict_numpy(state, imu, dt), folded, dt)
