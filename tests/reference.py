"""Independent straight-line oracles for the closed-loop filter tests.

Everything here re-derives the correction block and the continuous
estimator dynamics from scratch (plain vector algebra, no calls into the
module under test) so that the discrete implementation can be checked
against an integrator it shares no code with.

The 5x5 group embeddings build the ``scipy.linalg.expm`` oracles of the
exponential tests, ``se23_matrix`` assembles the 5x5 exponential from the
blocks of the package's closed-form ``se23_exp``, and ``propagate_truth`` is
the exact truth flow those tests vouch for (it runs on ``se23_matrix``).
``imu_sample`` is one ImuSample from the package's IMU model on one row.
``state_of``, ``imu_of`` and ``ranges_of`` build a FilterState, an
ImuSample and a Ranges from array-likes, stored as a step stores them
(float tuples), and ``state_arrays`` reads a state back as arrays.
``vex`` and ``pa`` (the inverse of ``skew`` and the antisymmetric
projection) serve the identity tests, and ``toa_ranges`` / ``tdoa_ranges``
build one noise-free observation from the package's forward model
(``uwb._range_block``, which measurement synthesis runs on whole blocks).

The per-sample oracles at the end are the one-value-at-a-time forms of
code the package evaluates on whole arrays (measurement synthesis, the
rotation exponential, rotation-to-quaternion); the array forms must give
bit-identical results.  ``imu_rows`` and ``range_rows`` build a whole
block's samples at once, as lists; the package's row sequence, which builds
each sample when it is read, must give the same floats.
``write_dataset_rows`` is the row-based dataset
writer: one line per per-sample value, each number formatted on its own;
the package's writer, which formats blocks of rows, must write the same
bytes.  ``write_csv_whole`` is the CSV writer that formats a whole block
through one ``%`` template; the package's writer, which formats a fixed
number of rows at a time, must write the same bytes.  ``write_dataset_whole``
and ``write_run_whole`` write a dataset's and a run's CSVs in that form,
every file on its own: the package's, which write each set in one pass and
format a value that several files share once, must write the same bytes.
``flight_whole`` and ``measurement_blocks_whole`` are likewise the flight
profiles and the measurement synthesis evaluated over a whole flight at once, one
``(n, 9 + k)`` noise draw included; the package's, which run a fixed
number of rows at a time into preallocated arrays, must give the same
bits.  ``toa_solve_per_call`` is likewise the TOA solve that factors its
system matrix on every call (``numpy.linalg.svd``, the package's
primitive, with the package's float arithmetic after it), which the
anchor set's one-time factorization must reproduce bit for bit.
``tdoa_solve_main_bs`` / ``tdoa_solve_ring`` are one dedicated solver per
TDOA topology that factors the whole 4-column system on every call; the
package's rank-one solve over the topology's anchor-pair list must match
them outcome for outcome, and to round-off in value.  ``toa_solve_loop``
and ``tdoa_solve_loop`` are the package's solver passes as loops over the
rows of the anchor set's own factors, each dot product an accumulator
added in row order and each finiteness test one sum: the straight-line
solvers the package generates per row count must match them bit for bit,
refusals with their type and message.  Like the package's solvers, each
returns the fix position as a float 3-tuple.

The numpy step at the end (``build_triads_numpy`` through ``step_numpy``)
is the filter step written with array products: the form the package
evaluates on Python floats.  The two must agree to round-off.  It reads
and builds the step's float-tuple intermediates through ``triad_arrays``
and ``corrections``, which the tests use as well.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np

from uwbnav import uwb
from uwbnav.attitude import EPS_DEGENERATE, DegenerateTriads, ImuSample, TriadSet, measure_imu
from uwbnav.liegroup import SMALL_ANGLE, _rodrigues_coefficients, quat_to_rot, rot_to_quat, se23_exp, so3_exp
from uwbnav.navfilter import CorrectionTerms, FilterState
from uwbnav.uwb import AnchorSet, GeometryDegenerate, Ranges, _range_block, solve_fix


class NotAntisymmetric(ValueError):
    """Input matrix is too far from antisymmetric for vex to be meaningful."""


def vex(m, tol=1e-6):
    """Inverse of ``skew``; raises NotAntisymmetric if ``||m + m.T||_F`` exceeds ``tol``."""
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m + m.T) > tol:
        raise NotAntisymmetric("vex input deviates from antisymmetry")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def pa(m):
    """Antisymmetric projection ``(m - m.T) / 2``."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - m.T)


def _floats(x):
    """An array-like as Python floats: a 1-D one as a tuple, a 2-D one as a tuple of row tuples."""
    a = np.asarray(x, dtype=float)
    return tuple(map(tuple, a.tolist())) if a.ndim == 2 else tuple(a.tolist())


def state_of(attitude, p_hat, v_hat, sigma_hat):
    """A FilterState from array-likes (a 3x3 or a quaternion attitude), held as float tuples."""
    return FilterState(*map(_floats, (attitude, p_hat, v_hat, sigma_hat)))


def state_arrays(state):
    """``(attitude, p_hat, v_hat, sigma_hat)`` of a FilterState as float64 arrays."""
    return tuple(np.array(x) for x in (state.attitude, state.p_hat, state.v_hat, state.sigma_hat))


def imu_of(omega_m, a_m, m_m):
    """An ImuSample from array-like readings, held as float tuples."""
    return ImuSample(*map(_floats, (omega_m, a_m, m_m)))


def ranges_of(topology, values):
    """A Ranges from an array-like of ranges or range differences, held as float tuples."""
    return Ranges(topology, _floats(values))


def toa_ranges(p, anchors):
    """Noise-free absolute ranges from position ``p`` to every anchor."""
    return tdoa_ranges(p, anchors, "toa")


def tdoa_ranges(p, anchors, topology):
    """Noise-free range differences for the requested topology (ranges for ``toa``)."""
    return ranges_of(topology, _range_block(np.asarray(p, dtype=float), anchors, topology))


def near_coplanar_anchors():
    """Eight anchors on a circle whose heights differ by ~1e-9 m: full rank, condition number ~1e9-1e10."""
    ang = np.arange(8) * np.pi / 4
    z = 1.5 + 1e-9 * np.random.default_rng(0).standard_normal(8)
    return AnchorSet(anchors=np.column_stack([4.0 * np.cos(ang), 4.0 * np.sin(ang), z]))


def _skew(w):
    return np.array(
        [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
    )


def _unit(x):
    return x / np.linalg.norm(x)


def tangent_matrix(omega, v, a, eps):
    """5x5 tangent matrix ``u(skew(omega), v, a, eps)``: ``skew(omega)``, then the ``v`` and ``a`` columns, ``eps`` at (4, 3)."""
    m = np.zeros((5, 5))
    m[:3, :3] = _skew(omega)
    m[:3, 3] = v
    m[:3, 4] = a
    m[4, 3] = eps
    return m


def nav_matrix(r, p, v):
    """5x5 group embedding ``[[R, p, v], [0, 1, 0], [0, 0, 1]]`` of a navigation state."""
    m = np.eye(5)
    m[:3, :3] = r
    m[:3, 3] = p
    m[:3, 4] = v
    return m


def se23_matrix(omega, v, a, eps, dt):
    """The 5x5 ``expm(tangent_matrix(omega, v, a, eps) dt)`` assembled from the blocks of ``se23_exp``."""
    rot, t_p, t_v = se23_exp(omega, v, a, eps, dt)
    m = nav_matrix(rot, t_p, t_v)
    m[4, 3] = eps * dt
    return m


def propagate_truth(r, p, v, omega, a, env, dt):
    """Advance truth ``(r, p, v)`` one interval of piecewise-constant body inputs; returns the new ``(r, p, v)``.

    The exact flow of ``X_dot = X U - G X`` is ``exp(-G dt) X exp(U dt)``
    with ``U = u(skew(omega), 0, a, 1)`` and ``G = u(0, 0, -g, 1)``; the left
    and right epsilon couplings cancel, so the product stays in the group.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    zero = np.zeros(3)
    m = se23_matrix(zero, zero, env.g_vec, -1.0, dt) @ nav_matrix(r, p, v) @ se23_matrix(omega, zero, a, 1.0, dt)
    return m[:3, :3], m[:3, 3], m[:3, 4]


def imu_sample(r, omega, vdot, env, noise=None, rng=None):
    """One ImuSample of ``measure_imu`` on a single attitude ``r`` and rates ``omega``, ``vdot``.

    With ``noise``, one standard-normal 9-vector (gyro, accelerometer,
    magnetometer) is drawn from ``rng`` first, as synthesis draws it per
    sample; without, the sample is exact.
    """
    z = sigmas = None
    if noise is not None:
        z, sigmas = rng.standard_normal(9), (noise.sigma_omega, noise.sigma_a, noise.sigma_m)
    gyro, accel, mag = measure_imu(np.asarray(r, dtype=float), np.asarray(omega, dtype=float),
                                   np.asarray(vdot, dtype=float), env, z, sigmas)
    return imu_of(gyro, accel, mag)


def triad_arrays(triads):
    """``(v, r)`` of a TriadSet as float64 arrays: measured rows, reference rows."""
    return np.array(triads.v), np.array(triads.reference[0])


def weighting_matrices(triads, gains):
    """Weighted outer-product sums ``(M_r, M_B)`` of a triad set's reference and body sides, weights ``gains.s``."""
    (v, r), s = triad_arrays(triads), np.asarray(gains.s, dtype=float)
    m_r = np.zeros((3, 3))
    m_b = np.zeros((3, 3))
    for i in range(3):
        m_r += s[i] * np.outer(r[i], r[i])
        m_b += s[i] * np.outer(v[i], v[i])
    return m_r, m_b


def corrections(e_r, d_v_diag, w_omega, w_v, w_a, sigma_dot):
    """CorrectionTerms from a float and array-like 3-vectors, stored as the step stores them: float tuples."""
    vectors = (d_v_diag, w_omega, w_v, w_a, sigma_dot)
    return CorrectionTerms(float(e_r), *(tuple(np.asarray(x, dtype=float).tolist()) for x in vectors))


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
    """Measurement synthesis one sample at a time: an ``imu_sample`` call, then the range draws.

    Noise comes from one generator in the per-sample order gyro,
    accelerometer, magnetometer, ranges.
    """
    rng = noise.stream() if noise is not None else None
    lever = None if tag_offset is None or not np.any(tag_offset) else np.asarray(tag_offset, dtype=float)
    imu_stream, range_stream = [], []
    for i in range(len(traj)):
        vdot = traj.rot[i] @ traj.a[i] + env.g_vec
        imu_stream.append(imu_sample(traj.rot[i], traj.omega[i], vdot, env, noise=noise, rng=rng))
        tag = traj.p[i] if lever is None else traj.p[i] + traj.rot[i] @ lever
        obs = tdoa_ranges(tag, anchors, topology)
        if noise is not None:
            obs = ranges_of(topology, obs.values + rng.normal(0.0, noise.sigma_range, len(obs.values)))
        range_stream.append(obs)
    return imu_stream, range_stream


def imu_rows(block):
    """One ImuSample per row of an ``(n, 9)`` block, all built at once from ``tolist``."""
    gyro, accel, mag = (map(tuple, block[:, k : k + 3].tolist()) for k in (0, 3, 6))
    return list(map(ImuSample, gyro, accel, mag))


def range_rows(block, topology):
    """One Ranges per row of an ``(n, k)`` block, all built at once from ``tolist``."""
    return [Ranges(topology, row) for row in map(tuple, block.tolist())]


def write_dataset_rows(out_dir, traj, anchors, imu_stream, range_stream):
    """The four dataset CSVs, one line per truth sample, ImuSample, anchor and range difference.

    Every value goes through ``format(x, ".17g")``; the 1-based ``(i, j)``
    pairs of a TDOA range set come from its topology's documented order:
    ``tdoa-main`` (1, k+2), ``tdoa-ring`` (k+1, k+2) with the wraparound
    (N, 1).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name, header, rows):
        lines = [",".join(header)] + [",".join(format(x, ".17g") for x in row) for row in rows]
        (out / name).write_text("\n".join(lines) + "\n")

    quats = [rot_to_quat_per_matrix(r) for r in traj.rot]
    write("truth.csv", "t px py pz qw qx qy qz".split(), [[t, *p, *q] for t, p, q in zip(traj.t, traj.p, quats)])
    write("imu.csv", "t wx wy wz ax ay az mx my mz".split(),
          [[t, *s.omega_m, *s.a_m, *s.m_m] for t, s in zip(traj.t, imu_stream)])
    (out / "anchors.csv").write_text(
        "id,x,y,z\n" + "".join(f"{k + 1}," + ",".join(format(x, ".17g") for x in a) + "\n"
                               for k, a in enumerate(anchors.anchors))
    )
    lines = ["t,i,j,d"]
    for t, obs in zip(traj.t, range_stream):
        pairs = documented_pairs(obs.topology, len(anchors))
        lines += [f"{format(t, '.17g')},{i},{j},{format(d, '.17g')}" for (i, j), d in zip(pairs, obs.values)]
    (out / "tdoa.csv").write_text("\n".join(lines) + "\n")
    return out


def write_csv_whole(path, header, block, row=None):
    """Header line, then every row of ``block`` through one ``%`` template call (``%.17g`` per column by default)."""
    line = (row or ",".join(["%.17g"] * len(header))) + "\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def documented_pairs(topology, n):
    """The 1-based ``(i, j)`` anchor pairs of a TDOA topology over ``n`` anchors, in its documented order."""
    if topology == "tdoa-main":
        return [(1, k + 2) for k in range(n - 1)]
    return [(k + 1, k + 2) for k in range(n - 1)] + [(n, 1)]


TRUTH_HEADER = "t px py pz qw qx qy qz".split()


def write_dataset_whole(out_dir, traj, anchors, topology, imu, diffs):
    """The four dataset CSVs from the ``(n, 9)`` IMU and ``(n, k)`` range blocks, each by ``write_csv_whole``.

    tdoa.csv is one ``%.17g,%d,%d,%.17g`` line per range difference, its
    timestamp formatted again on each of its tick's lines.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_whole(out / "truth.csv", TRUTH_HEADER, np.column_stack([traj.t, traj.p, rot_to_quat(traj.rot)]))
    write_csv_whole(out / "imu.csv", "t wx wy wz ax ay az mx my mz".split(), np.column_stack([traj.t, imu]))
    write_csv_whole(out / "anchors.csv", ["id", "x", "y", "z"],
                    np.column_stack([np.arange(1, len(anchors) + 1), anchors.anchors]), "%d,%.17g,%.17g,%.17g")
    n, k = diffs.shape
    pairs = np.tile(documented_pairs(topology, len(anchors)), (n, 1))
    write_csv_whole(out / "tdoa.csv", ["t", "i", "j", "d"],
                    np.column_stack([np.repeat(traj.t, k), pairs, diffs.ravel()]), "%.17g,%d,%d,%.17g")


def write_run_whole(out_dir, traj, history, errors):
    """A run's truth, estimates and metrics CSVs, each by ``write_csv_whole``.

    ``history`` is the run's ``(n, k + 12)`` step block (k = 9 rotation-row
    entries or 4 quaternion components, then p_hat, v_hat, sigma_hat, e_r,
    py_residual and dropout) and ``errors`` its ``(4, n)`` att_err,
    pos_err, vel_err and sigma_norm columns; step ``i`` is truth row ``i + 1``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = history.shape[1] - 12
    att, p, v, sigma, e_r, residual, dropout = np.hsplit(history, [k, k + 3, k + 6, k + 9, k + 10, k + 11])
    rot = att.reshape(-1, 3, 3) if k == 9 else quat_to_rot(att)
    t = traj.t[1:]
    write_csv_whole(out / "truth.csv", TRUTH_HEADER, np.column_stack([traj.t, traj.p, rot_to_quat(traj.rot)]))
    write_csv_whole(out / "estimates.csv", "t px py pz vx vy vz qw qx qy qz s1 s2 s3 e_r py_residual dropout".split(),
                    np.column_stack([t, p, v, rot_to_quat(rot), sigma, e_r, residual, dropout]),
                    ",".join(["%.17g"] * 16 + ["%d"]))
    write_csv_whole(out / "metrics.csv", "t att_err pos_err vel_err sigma_norm e_r py_residual".split(),
                    np.column_stack([t, errors.T, e_r, residual]))


def flight_whole(kind, t, g, p0, **params):
    """Truth arrays ``(rot, p, v, omega, a)`` of a ``generate_trajectory`` flight profile at the times ``t``.

    Each profile is evaluated over the whole flight at once, on the
    defaults of ``generate_trajectory`` for the parameters not given; the
    rotations are one ``so3_exp`` of every ``(0, 0, yaw)`` rotation vector.
    """
    n = len(t)
    if kind == "hover":
        w = np.array([0.0, 0.0, params.get("yaw", 0.0)])
        r = so3_exp(w)
        return (np.tile(r, (n, 1, 1)), np.tile(p0, (n, 1)), np.zeros((n, 3)), np.zeros((n, 3)),
                np.tile(r.T @ (-g), (n, 1)))
    if kind == "circle":
        radius, period, yaw0 = params.get("radius", 2.0), params.get("period", 10.0), params.get("yaw0", 0.0)
        w = 2.0 * np.pi / period
        center = p0 - np.array([radius, 0.0, 0.0])
        cos, sin = np.cos(w * t), np.sin(w * t)
        p = center + radius * np.stack([cos, sin, np.zeros(n)], axis=1)
        v = radius * w * np.stack([-sin, cos, np.zeros(n)], axis=1)
        vdot = -radius * w * w * np.stack([cos, sin, np.zeros(n)], axis=1)
        omega = np.tile([0.0, 0.0, w], (n, 1))
        psi = w * t + yaw0
    else:
        amplitude = np.array(params.get("amplitude", [1.0, 0.8, 0.3]))
        wv = 2.0 * np.pi * np.array(params.get("frequency", [0.10, 0.15, 0.05]))
        arg = np.outer(t, wv) + np.array(params.get("phase", [0.0, np.pi / 2, 0.0]))
        p = p0 + amplitude * np.sin(arg)
        v = amplitude * wv * np.cos(arg)
        vdot = -amplitude * wv * wv * np.sin(arg)
        yaw_amplitude, wy = params.get("yaw_amplitude", 0.6), 2.0 * np.pi * params.get("yaw_frequency", 0.05)
        psi = yaw_amplitude * np.sin(wy * t)
        omega = np.stack([np.zeros(n), np.zeros(n), yaw_amplitude * wy * np.cos(wy * t)], axis=1)
    rot_vectors = np.zeros((n, 3))
    rot_vectors[:, 2] = psi
    rot = so3_exp(rot_vectors)
    return rot, p, v, omega, (rot.transpose(0, 2, 1) @ (vdot - g)[:, :, None])[:, :, 0]


def measurement_blocks_whole(traj, anchors, topology, noise, env, tag_offset=None):
    """The IMU and range blocks of ``harness.measurement_blocks``, each stage run on every row at once.

    The noise is one ``(n, 9 + k)`` standard normal draw from the spec's
    generator, in the per-sample order gyro, accelerometer, magnetometer,
    ranges.  The value checks are left out: only the blocks are compared.
    """
    vdot = (traj.rot @ traj.a[:, :, None])[:, :, 0] + env.g_vec
    tag = traj.p
    if tag_offset is not None and np.any(tag_offset):
        tag = tag + traj.rot @ tag_offset
    ranges = _range_block(tag, anchors, topology)
    z = sigmas = None
    if noise is not None:
        z = noise.stream().standard_normal((len(traj), 9 + ranges.shape[1]))
        sigmas = (noise.sigma_omega, noise.sigma_a, noise.sigma_m)
        ranges = ranges + (0.0 + noise.sigma_range * z[:, 9:])
    return np.concatenate(measure_imu(traj.rot, traj.omega, vdot, env, z, sigmas), axis=1), ranges


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


def _svd_gate(a):
    """A fresh thin SVD ``(U, s, V^T)`` of ``a``, past the package's rank and Frobenius-condition gates."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    tol = s[0] * max(a.shape) * np.finfo(float).eps
    if not s[-1] > tol:
        raise GeometryDegenerate(f"system rank {int(np.count_nonzero(s > tol))} below {a.shape[1]} unknowns")
    sv = s.tolist()
    cond = math.sqrt(sum(x * x for x in sv) * sum(1.0 / (x * x) for x in sv))
    if not cond <= 1e8:
        raise GeometryDegenerate(f"condition number {cond:.3g} above ceiling {1e8:.3g}")
    return u, s, vt


def _svd_solve(a, b):
    """``V ((U^T b) / s)`` from a fresh thin SVD of ``a``, past its rank and condition gates."""
    u, s, vt = _svd_gate(a)
    return vt.T @ ((u.T @ b) / s)


def _block_gate(topology, floor, n, block):
    """The anchor set's verdict under ``topology``: ``n`` anchors against ``floor``, then the position block's gates.

    Returns the block's fresh thin SVD; a refusal is the GeometryDegenerate
    ``anchors give no <topology> fix: <why>``.
    """
    try:
        if n < floor:
            raise GeometryDegenerate(f"need at least {floor} anchors, got {n}")
        return _svd_gate(block)
    except GeometryDegenerate as err:
        raise GeometryDegenerate(f"anchors give no {topology} fix: {err}") from None


def toa_solve_per_call(anchors, ranges):
    """TOA fix position from a fresh thin SVD of the differenced system on every call.

    Same rows, floor, rank and condition messages as ``uwb.solve_fix``, and
    its float arithmetic: ``y = (U^T b) / s`` by rows of ``U^T``, each dot
    product added term by term in row order from ``0.0`` (not by ``sum``,
    which compensates from Python 3.12 on), then ``V y``.
    """
    h, n = anchors.anchors, len(anchors)
    u, s, vt = _block_gate("toa", 4, n, h[1:] - h[0])
    d = np.array(ranges.values)
    hn2 = np.sum(h**2, axis=1)
    b = (0.5 * (d[0] * d[0] - d[1:] * d[1:] + hn2[1:] - hn2[0])).tolist()
    y = []
    for col, sk in zip(u.T.tolist(), s.tolist()):
        acc = 0.0
        for a, bi in zip(col, b):
            acc += a * bi
        y.append(acc / sk)
    y0, y1, y2 = y
    return tuple(v0 * y0 + v1 * y1 + v2 * y2 for v0, v1, v2 in vt.T.tolist())


def _finite_sum(values):
    """Whether ``values`` added in order give a finite sum: the package's finiteness test of a value group."""
    total = 0.0
    for x in values:
        total += x
    return math.isfinite(total)


def _fix_of(v, y0, y1, y2):
    """``V y`` from the rows of ``V``, refused as an overflow unless its coordinates have a finite sum."""
    fix = tuple(v0 * y0 + v1 * y1 + v2 * y2 for v0, v1, v2 in v)
    if not _finite_sum(fix):
        raise ValueError("position solve overflowed: ranges too large")
    return fix


def toa_solve_loop(anchors, ranges):
    """TOA fix from the anchor set's factor in one loop over the rows: the TOA passes ``uwb.solve_fix`` writes out.

    Same refusals, messages and float operations, each dot product an
    accumulator that starts at ``0.0`` and adds its terms in row order.
    """
    if "toa" in anchors.unfixable:
        raise GeometryDegenerate(anchors.unfixable["toa"])
    f, d, hn2 = anchors.factors["toa"], ranges.values, anchors.sq_norms
    if len(d) != len(hn2):
        raise ValueError("range count does not match anchor count")
    (u0, u1, u2), (s0, s1, s2) = f.ut, f.s
    e0, h0 = d[0] * d[0], hn2[0]
    y0 = y1 = y2 = 0.0
    for di, hi, a0, a1, a2 in zip(d[1:], hn2[1:], u0, u1, u2):
        bi = 0.5 * (e0 - di * di + hi - h0)
        y0, y1, y2 = y0 + a0 * bi, y1 + a1 * bi, y2 + a2 * bi
    return _fix_of(f.v, y0 / s0, y1 / s1, y2 / s2)


def tdoa_solve_loop(anchors, ranges):
    """TDOA fix from the anchor set's factor in two loops over the pairs: the TDOA passes ``uwb.solve_fix`` writes out.

    Same refusals, messages and float operations: ``b``, ``y = U0^T b``
    and ``z = U0^T d`` in one pass, the ring's partial sum from ``0.0``,
    then ``r = d - U0 z`` with ``beta^2`` and ``r^T b``; every dot product
    starts at ``0.0`` and adds in row order.
    """
    topology, d = ranges.topology, ranges.values
    if topology in anchors.unfixable:
        raise GeometryDegenerate(anchors.unfixable[topology])
    f, (first, second), hn2 = anchors.factors[topology], anchors.tdoa[topology], anchors.sq_norms
    sq_first, sq_second = [hn2[i] for i in first], [hn2[j] for j in second]
    if len(d) != len(second):
        raise ValueError("difference count does not match anchor count")
    ring, (u0, u1, u2), (s0, s1, s2) = topology == "tdoa-ring", f.ut, f.s
    b, partial = [], 0.0
    z0 = z1 = z2 = y0 = y1 = y2 = 0.0
    for di, hi, hj, a0, a1, a2 in zip(d, sq_first, sq_second, u0, u1, u2):
        bi = di * di + hi - hj
        if ring:
            bi += 2.0 * di * partial
            partial += di
        bi *= 0.5
        b.append(bi)
        z0, z1, z2 = z0 + a0 * di, z1 + a1 * di, z2 + a2 * di
        y0, y1, y2 = y0 + a0 * bi, y1 + a1 * bi, y2 + a2 * bi
    beta2 = rb = 0.0
    for di, bi, a0, a1, a2 in zip(d, b, u0, u1, u2):
        ri = di - (a0 * z0 + a1 * z1 + a2 * z2)
        beta2, rb = beta2 + ri * ri, rb + ri * bi
    if not _finite_sum(b + [beta2]):
        raise ValueError("position solve overflowed: ranges too large")
    fro2 = f.fro2 + (z0 * z0 + z1 * z1 + z2 * z2) + beta2
    tol = len(d) * float(np.finfo(float).eps)
    if not beta2 > fro2 * tol * tol:
        raise GeometryDegenerate("system rank 3 below 4 unknowns")
    w0, w1, w2 = z0 / s0, z1 / s1, z2 / s2
    cond = math.sqrt(fro2 * (f.inv2 + (w0 * w0 + w1 * w1 + w2 * w2 + 1.0) / beta2))
    if not cond <= uwb.COND_CEILING:
        raise GeometryDegenerate(f"condition number {cond:.3g} above ceiling {uwb.COND_CEILING:.3g}")
    aux = -rb / beta2
    return _fix_of(f.v, (y0 + aux * z0) / s0, (y1 + aux * z1) / s1, (y2 + aux * z2) / s2)


def _tdoa_fix(x):
    """The position part of a solution ``[p, dist_1]``."""
    return tuple(x[:3].tolist())


def tdoa_solve_main_bs(anchors, ranges):
    """Main-base-station TDOA fix: rows ``(h_1 - h_i) . p - d_i1 dist_1 = (d_i1^2 + ||h_1||^2 - ||h_i||^2) / 2``.

    Floor, count check and messages as ``uwb.solve_fix``: the position
    block's gates first, then a fresh SVD of the 4-column system per call.
    """
    h, n = anchors.anchors, len(anchors)
    _block_gate("tdoa-main", 5, n, h[1:] - h[0])  # the TOA system, this block negated: the verdict uwb takes
    diffs = np.array(ranges.values)
    if diffs.shape != (n - 1,):
        raise ValueError("difference count does not match anchor count")
    hn2 = np.sum(h**2, axis=1)
    a = np.zeros((n - 1, 4))
    a[:, :3] = h[0] - h[1:]
    a[:, 3] = -diffs
    b = 0.5 * (diffs**2 + hn2[0] - hn2[1:])
    return _tdoa_fix(_svd_solve(a, b))


def tdoa_solve_ring(anchors, ranges):
    """Ring TDOA fix: rows ``(h_j - h_{j+1}) . p - d dist_1 = (d^2 + ||h_j||^2 - ||h_{j+1}||^2 + 2 d c_j) / 2``.

    ``c_j`` is the partial sum of the differences before pair j; the
    wraparound pair (N, 1) closes the ring.  Floor, count check and
    messages as ``uwb.solve_fix``: the position block's gates first, then a
    fresh SVD of the 4-column system per call.
    """
    h, n = anchors.anchors, len(anchors)
    nxt = (np.arange(n) + 1) % n
    _block_gate("tdoa-ring", 5, n, h - h[nxt])
    diffs = np.array(ranges.values)
    if diffs.shape != (n,):
        raise ValueError("difference count does not match anchor count")
    hn2 = np.sum(h**2, axis=1)
    partial = np.concatenate([[0.0], np.cumsum(diffs[:-1])])
    a = np.zeros((n, 4))
    a[:, :3] = h - h[nxt]
    a[:, 3] = -diffs
    b = 0.5 * (diffs**2 + hn2 - hn2[nxt] + 2.0 * diffs * partial)
    return _tdoa_fix(_svd_solve(a, b))


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


def build_triads_numpy(a_m, m_m, env):
    """Accelerometer/magnetometer triads with array normalization and cross products (unweighted: see ``gains.s``)."""
    v1 = _unit_or_raise(np.asarray(a_m, dtype=float), "accelerometer sample")
    v2 = _unit_or_raise(np.asarray(m_m, dtype=float), "magnetometer sample")
    v = np.array([v1, v2, _unit_or_raise(np.cross(v1, v2), "measured cross product")])
    r = reference_triad(env)
    reference = (tuple(map(tuple, r.tolist())), tuple((r * r).sum(axis=1).tolist()))
    return TriadSet(tuple(map(tuple, v.tolist())), reference)


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
    """Correction block with array products: ``m = (r R)^T (s v)``, its vex, and the trace residual; ``s = gains.s``."""
    attitude, p_hat, v_hat, sigma_hat = state_arrays(state)
    r_hat = rotation_numpy(attitude)
    (v, r), s = triad_arrays(triads), np.asarray(gains.s, dtype=float)
    m = (r @ r_hat).T @ (s[:, None] * v)
    cross = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    e_r = 0.25 * float(s @ (r * r).sum(axis=1) - np.vdot(r_hat @ m, r_hat))
    g = gains
    sigma_dot = (
        g.gamma_sigma * (e_r + 2.0) / 8.0 * math.exp(e_r) * (cross * cross)
        - g.k_sigma * g.gamma_sigma * sigma_hat
    )
    w_omega = r_hat @ (
        -(g.k1 / 2.0) * cross - 0.125 * (e_r + 2.0) / (e_r + 1.0) * (cross * sigma_hat)
    )
    innovation = np.asarray(p_y, dtype=float) - p_hat
    return corrections(
        e_r,
        cross,
        w_omega,
        -(g.kv / g.epsilon) * innovation - np.cross(w_omega, p_hat),
        -g.ka * innovation - np.cross(w_omega, v_hat),
        sigma_dot,
    )


def predict_numpy(state, imu, dt):
    """``X exp(u(skew(omega_m), 0, a_m, 1) dt)`` with array products."""
    attitude, p_hat, v_hat, sigma_hat = state_arrays(state)
    omega_m, a_m = np.array(imu.omega_m), np.array(imu.a_m)
    rot, t_p, t_v = se23_blocks_numpy(omega_m, np.zeros(3), a_m, 1.0, dt)
    r_hat = rotation_numpy(attitude)
    if attitude.shape == (3, 3):
        att = attitude @ rot
    else:
        att = quat_multiply_numpy(attitude, quat_from_rotvec_numpy(omega_m * dt))
        att = att / np.linalg.norm(att)
    return state_of(att, p_hat + v_hat * dt + r_hat @ t_p, v_hat + r_hat @ t_v, sigma_hat)


def update_numpy(state, w, dt, g):
    """``exp(-W dt)``, gravity ``g`` folded into ``w_a``, applied to a predicted state, with array products."""
    w_omega, w_v, w_a, sigma_dot = map(np.array, (w.w_omega, w.w_v, w.w_a, w.sigma_dot))
    attitude, p_hat, v_hat, sigma_hat = state_arrays(state)
    r_e, t_p, t_v = se23_blocks_numpy(w_omega, w_v, w_a - g, 1.0, -dt)
    if attitude.shape == (3, 3):
        att = r_e @ attitude
    else:
        att = quat_multiply_numpy(quat_from_rotvec_numpy(w_omega * -dt), attitude)
        att = att / np.linalg.norm(att)
    return state_of(att, r_e @ p_hat + t_p + dt * t_v, r_e @ v_hat + t_v, sigma_hat + dt * sigma_dot)


def step_numpy(state, imu, ranges, anchors, env, gains, dt):
    """One filter iteration from the numpy layers: the package's ``step``, dropout rule included."""
    try:
        p_y = solve_fix(anchors, ranges)
        triads = build_triads_numpy(imu.a_m, imu.m_m, env)
    except (GeometryDegenerate, DegenerateTriads):
        return predict_numpy(state, imu, dt)
    w = correction_terms_numpy(state, triads, p_y, gains)
    return update_numpy(predict_numpy(state, imu, dt), w, dt, env.g_vec)
