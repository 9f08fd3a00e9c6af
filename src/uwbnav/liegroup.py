"""Matrix Lie group primitives for extended-pose navigation.

The navigation state (attitude, position, velocity) is embedded in a 5x5
matrix group: ``X = [[R, P, V], [0, 1, 0], [0, 0, 1]]`` with ``R`` a rotation
matrix and ``P``, ``V`` column 3-vectors.  Inputs live on a tangent
submanifold spanned by ``u(skew(omega), v, a, eps)`` whose exponential has a
closed form (Rodrigues terms plus two Jacobian-like series for the
translation columns).  This module provides the skew map, the
normalized attitude distance, the rotation exponential on arrays, the
extended-pose exponential :func:`se23_exp` that the filter step evaluates
on Python floats (it returns the blocks, never the 5x5 matrix), the
quaternion conversions, and :func:`quat_turn`, the quaternion variant's
attitude step on floats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "skew",
    "cross3",
    "attitude_distance",
    "so3_exp",
    "se23_exp",
    "quat_to_rot",
    "rot_to_quat",
    "quat_turn",
]

# Below this angle the Rodrigues coefficients switch to second-order Taylor
# expansions to avoid 0/0.
SMALL_ANGLE = 1e-6


def skew(v: np.ndarray) -> np.ndarray:
    """Map 3-vectors ``(..., 3)`` to their antisymmetric cross-product matrices ``(..., 3, 3)``.

    ``skew(v) @ y == np.cross(v, y)`` for all ``y``.
    """
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(v.shape[:-1] + (3, 3))


def cross3(a, b) -> tuple[float, float, float]:
    """Cross product of two 3-vectors (arrays or float sequences) in scalar arithmetic.

    Equals ``np.cross(a, b)`` for shape-(3,) inputs, returned as a tuple of
    Python floats for the filter step (see ``navfilter``'s "Cost" note).
    """
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def attitude_distance(r: np.ndarray) -> float | np.ndarray:
    """Normalized attitude distance ``tr(I - R) / 4`` in ``[0, 1]``, per matrix of ``(..., 3, 3)``.

    Equals ``||I - R||_F^2 / 8``; zero iff ``R`` is the identity, one at a
    half-turn.
    """
    r = np.asarray(r, dtype=float)
    return (3.0 - (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2])) / 4.0


def _rodrigues_coefficients(theta: float) -> tuple[float, float, float, float]:
    """Series coefficients for the rotation and translation blocks.

    Returns ``(A, B, C, D)`` with ``A = sin(t)/t``, ``B = (1-cos(t))/t^2``,
    ``C = (t-sin(t))/t^3``, ``D = (t^2/2 - 1 + cos(t))/t^4``, evaluated by
    second-order Taylor expansion below ``SMALL_ANGLE``.
    """
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return (
            1.0 - t2 / 6.0,
            0.5 - t2 / 24.0,
            1.0 / 6.0 - t2 / 120.0,
            1.0 / 24.0 - t2 / 720.0,
        )
    t2 = theta * theta
    s, c = math.sin(theta), math.cos(theta)
    return (
        s / theta,
        (1.0 - c) / t2,
        (theta - s) / (t2 * theta),
        (0.5 * t2 - 1.0 + c) / (t2 * t2),
    )


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rotation-matrix exponentials of rotation vectors ``(..., 3)`` (Rodrigues form).

    ``I + A S + B S^2`` with the first two coefficients of
    :func:`_rodrigues_coefficients`, evaluated elementwise.
    """
    w = np.asarray(w, dtype=float)
    theta = np.sqrt(w[..., None, :] @ w[..., :, None])[..., 0, 0]
    t2 = theta * theta
    small = theta < SMALL_ANGLE
    big = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(big) / big)[..., None, None]
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(big)) / (big * big))[..., None, None]
    s = skew(w)
    return np.eye(3) + a * s + b * (s @ s)


def se23_exp(omega, v, a, eps: float, dt: float):
    """Closed-form ``expm(U dt)`` for ``U = u(skew(omega), v, a, eps)``, as its blocks ``(R, t_p, t_v)``.

    ``omega``, ``v`` and ``a`` are 3-sequences of floats: ``omega`` fills the
    rotation block of the 5x5 tangent matrix ``U``, ``v`` the position
    column, ``a`` the velocity column, and ``eps`` couples velocity into
    position.  With ``S = skew(omega dt)`` and ``theta = ||omega|| dt``, the
    exponential has rotation block ``R = I + A S + B S^2``, velocity column
    ``t_v = J1 a dt``, position column ``t_p = J1 v dt + eps dt^2 J2 a``,
    and ``eps dt`` at entry ``(4, 3)`` (left to the caller), where
    ``J1 = I + B S + C S^2`` and ``J2 = I/2 + C S + D S^2`` use the
    coefficients of :func:`_rodrigues_coefficients`.  Powers of ``U``
    beyond the second vanish outside the rotation block, which is what
    collapses the series to these four coefficients.  Evaluated on scalars
    with ``S^2 = w w^T - theta^2 I`` (``w = omega dt``): ``R`` comes back as
    three row tuples and ``t_p``, ``t_v`` as tuples, all Python floats.
    With ``v`` zero, ``dt > 0`` and ``1 - C theta^2 >= 0`` (predict's calls)
    the ``J1 v dt`` series is skipped: it is ``+0.0`` for ``+0.0``
    components, so ``t_p = 0.0 + eps dt^2 J2 a`` keeps its bits, signed
    zeros too.  Raises ValueError on a non-finite input component, or on
    finite ones whose sum passes the float range (~1.8e308).
    """
    (ox, oy, oz), (vx, vy, vz), (ax, ay, az) = omega, v, a
    wx, wy, wz = ox * dt, oy * dt, oz * dt
    if not math.isfinite(wx + wy + wz + vx + vy + vz + ax + ay + az):
        raise ValueError("tangent input must be finite")
    theta = math.hypot(wx, wy, wz)
    t2 = theta * theta
    a_c, b_c, c_c, d_c = _rodrigues_coefficients(theta)
    # each series (k0 I + k1 S + k2 S^2) [x, y, z] is (k0 - k2 t2) [x, y, z]
    # + k1 w x [x, y, z] + k2 (w . [x, y, z]) w, written out (a shared
    # closure would put w in cells and allocate a function per call)
    j1, j2 = 1.0 - c_c * t2, 0.5 - d_c * t2
    if vx == vy == vz == 0.0 and j1 >= 0.0 and dt > 0.0:
        j1v0 = j1v1 = j1v2 = 0.0
    else:
        x, y, z = vx * dt, vy * dt, vz * dt
        d = c_c * (wx * x + wy * y + wz * z)
        j1v0, j1v1, j1v2 = (j1 * x + b_c * (wy * z - wz * y) + d * wx, j1 * y + b_c * (wz * x - wx * z) + d * wy,
                            j1 * z + b_c * (wx * y - wy * x) + d * wz)
    d = d_c * (wx * ax + wy * ay + wz * az)
    j2a0, j2a1, j2a2 = (j2 * ax + c_c * (wy * az - wz * ay) + d * wx, j2 * ay + c_c * (wz * ax - wx * az) + d * wy,
                        j2 * az + c_c * (wx * ay - wy * ax) + d * wz)
    x, y, z = ax * dt, ay * dt, az * dt
    d = c_c * (wx * x + wy * y + wz * z)
    t_v = (j1 * x + b_c * (wy * z - wz * y) + d * wx, j1 * y + b_c * (wz * x - wx * z) + d * wy,
           j1 * z + b_c * (wx * y - wy * x) + d * wz)
    k = eps * dt * dt
    c0, bx, by, bz = 1.0 - b_c * t2, b_c * wx, b_c * wy, b_c * wz
    rot = ((c0 + bx * wx, bx * wy - a_c * wz, bx * wz + a_c * wy),
           (bx * wy + a_c * wz, c0 + by * wy, by * wz - a_c * wx),
           (bx * wz - a_c * wy, by * wz + a_c * wx, c0 + bz * wz))
    return rot, (j1v0 + k * j2a0, j1v1 + k * j2a1, j1v2 + k * j2a2), t_v


def _quat_rot_rows(w, x, y, z):
    """Rows of :func:`quat_to_rot` from components given as floats or equal-shape arrays."""
    d, xy, xz, yz = w * w - (x * x + y * y + z * z), 2.0 * x * y, 2.0 * x * z, 2.0 * y * z
    wx, wy, wz = 2.0 * w * x, 2.0 * w * y, 2.0 * w * z
    return ([d + 2.0 * x * x, xy - wz, xz + wy],
            [xy + wz, d + 2.0 * y * y, yz - wx],
            [xz - wy, yz + wx, d + 2.0 * z * z])


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of unit quaternions ``[q0, qx, qy, qz]``, shape ``(..., 4)``.

    Uses ``(q0^2 - ||qv||^2) I + 2 qv qv.T + 2 q0 skew(qv)`` which maps the
    quaternion product to a rotation product (Hamilton convention),
    evaluated componentwise on arrays.
    """
    q = np.asarray(q, dtype=float)
    rows = _quat_rot_rows(*np.moveaxis(q, -1, 0))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Unit quaternions of rotation matrices ``(..., 3, 3)``, scalar part non-negative.

    Largest-pivot (Shepperd) branch selection keeps every case away from the
    small-divisor trap: the pivot is the largest of ``tr R`` and the
    diagonal, and fixes which component is ``s / 4`` with
    ``s = 2 sqrt(1 + 2 pivot - tr R)``; the others are the antisymmetric
    (``d``) or symmetric (``u``) off-diagonal sums over ``s``.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1, 3, 3)
    r00, r11, r22 = flat[:, 0, 0], flat[:, 1, 1], flat[:, 2, 2]
    t = r00 + r11 + r22
    case = np.argmax(np.stack([t, r00, r11, r22]), axis=0)
    pivot = np.choose(case, [1.0 + t, 1.0 + r00 - r11 - r22, 1.0 - r00 + r11 - r22, 1.0 - r00 - r11 + r22])
    s = np.sqrt(pivot) * 2.0
    d0, d1, d2 = flat[:, 2, 1] - flat[:, 1, 2], flat[:, 0, 2] - flat[:, 2, 0], flat[:, 1, 0] - flat[:, 0, 1]
    u0, u1, u2 = flat[:, 0, 1] + flat[:, 1, 0], flat[:, 0, 2] + flat[:, 2, 0], flat[:, 1, 2] + flat[:, 2, 1]
    rows = np.arange(len(flat))
    table = np.array([[s, d0, d1, d2], [d0, s, u0, u1], [d1, u0, s, u2], [d2, u1, u2, s]])
    q = table[case, :, rows] / s[:, None]
    q[rows, case] = 0.25 * s
    norm = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    if not (np.isfinite(norm).all() and (norm != 0.0).all()):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    q = q / norm
    q[q[:, 0] < 0.0] *= -1.0
    return q.reshape(r.shape[:-2] + (4,))


def quat_turn(q, omega, dt: float, left: bool = False) -> tuple[float, float, float, float]:
    """Unit quaternion ``q exp(w)``, or ``exp(w) q`` with ``left``, for ``w = omega dt``, as a tuple of floats.

    ``q`` is a scalar-first quaternion and ``omega`` a 3-vector (arrays or
    float sequences).  ``exp(w) = [cos(t/2), sin(t/2) w / t]`` with ``t =
    |w|`` (``sin(t/2)/t`` to second order below ``SMALL_ANGLE``), so its
    ``quat_to_rot`` is ``so3_exp(w)``; the Hamilton product is rescaled to
    unit norm.  Raises ValueError if the product is zero or not finite.
    """
    o0, o1, o2 = omega
    x, y, z = o0 * dt, o1 * dt, o2 * dt
    theta = math.hypot(x, y, z)
    half = 0.5 * theta
    if theta < SMALL_ANGLE:
        # sin(t/2)/t to second order
        scale = 0.5 - theta * theta / 48.0
    else:
        scale = math.sin(half) / theta
    turn = (math.cos(half), scale * x, scale * y, scale * z)
    (w1, x1, y1, z1), (w2, x2, y2, z2) = (turn, q) if left else (q, turn)
    w, x, y, z = (w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2), w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2),
                  w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2), w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    return w / n, x / n, y / n, z / n
