"""Matrix Lie group primitives for extended-pose navigation.

The navigation state (attitude, position, velocity) is embedded in a 5x5
matrix group: ``X = [[R, P, V], [0, 1, 0], [0, 0, 1]]`` with ``R`` a rotation
matrix and ``P``, ``V`` column 3-vectors.  Inputs live on a tangent
submanifold spanned by ``u(skew(omega), v, a, eps)`` whose exponential has a
closed form (Rodrigues terms plus two Jacobian-like series for the
translation columns).  This module provides the skew/vex pair, the
antisymmetric projector, the normalized attitude distance, the closed-form
exponentials, the rotation logarithm, and quaternion conversions used by
the quaternion filter variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotAntisymmetric",
    "TangentInput",
    "NavState",
    "skew",
    "cross3",
    "vex",
    "pa",
    "attitude_distance",
    "so3_exp",
    "so3_log",
    "se23_exp",
    "quat_to_rot",
    "rot_to_quat",
    "quat_multiply",
    "quat_normalize",
    "quat_from_rotvec",
]

# Below this angle the Rodrigues coefficients switch to second-order Taylor
# expansions to avoid 0/0.
SMALL_ANGLE = 1e-6


class NotAntisymmetric(ValueError):
    """Input matrix is too far from antisymmetric for vex to be meaningful."""


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


def _unchecked(cls, **fields):
    """Frozen value-class instance built without its ``__post_init__`` checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def vex(m: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Inverse of :func:`skew`.

    Raises
    ------
    NotAntisymmetric
        If ``||m + m.T||_F`` exceeds ``tol``.
    """
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m + m.T) > tol:
        raise NotAntisymmetric("vex input deviates from antisymmetry")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def pa(m: np.ndarray) -> np.ndarray:
    """Antisymmetric projection ``(m - m.T) / 2``."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - m.T)


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


@dataclass(frozen=True)
class TangentInput:
    """Input element ``u(skew(omega), v, a, eps)`` of the tangent submanifold.

    ``omega`` fills the rotation block, ``v`` the position column, ``a`` the
    velocity column, and ``eps`` the scalar coupling of velocity into
    position.
    """

    omega: np.ndarray
    v: np.ndarray
    a: np.ndarray
    eps: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        for name in ("omega", "v", "a"):
            vec = getattr(self, name)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be a finite 3-vector")


def _se23_blocks(omega, v, a, eps: float, dt: float):
    """Blocks ``(R, t_p, t_v)`` of :func:`se23_exp` from three 3-sequences of floats.

    Scalar evaluation with ``S^2 = w w^T - theta^2 I`` (``w = omega dt``).
    ``R`` comes back as three row tuples and ``t_p``, ``t_v`` as tuples, all
    Python floats; raises ValueError on a non-finite input component.
    """
    (ox, oy, oz), (vx, vy, vz), (ax, ay, az) = omega, v, a
    wx, wy, wz = ox * dt, oy * dt, oz * dt
    if not all(map(math.isfinite, (wx, wy, wz, vx, vy, vz, ax, ay, az))):
        raise ValueError("tangent input must be finite")
    theta = math.hypot(wx, wy, wz)
    t2 = theta * theta
    a_c, b_c, c_c, d_c = _rodrigues_coefficients(theta)

    def series(x, y, z, k0, k1, k2):  # (k0 I + k1 S + k2 S^2) [x, y, z]
        d, k0 = k2 * (wx * x + wy * y + wz * z), k0 - k2 * t2
        return (k0 * x + k1 * (wy * z - wz * y) + d * wx, k0 * y + k1 * (wz * x - wx * z) + d * wy,
                k0 * z + k1 * (wx * y - wy * x) + d * wz)

    j1v = series(vx * dt, vy * dt, vz * dt, 1.0, b_c, c_c)
    j2a = series(ax, ay, az, 0.5, c_c, d_c)
    k = eps * dt * dt
    c0, bx, by, bz = 1.0 - b_c * t2, b_c * wx, b_c * wy, b_c * wz
    rot = ((c0 + bx * wx, bx * wy - a_c * wz, bx * wz + a_c * wy),
           (bx * wy + a_c * wz, c0 + by * wy, by * wz - a_c * wx),
           (bx * wz - a_c * wy, by * wz + a_c * wx, c0 + bz * wz))
    t_p = (j1v[0] + k * j2a[0], j1v[1] + k * j2a[1], j1v[2] + k * j2a[2])
    return rot, t_p, series(ax * dt, ay * dt, az * dt, 1.0, b_c, c_c)


def se23_exp(u: TangentInput, dt: float) -> np.ndarray:
    """Closed-form ``expm(U dt)`` for the 5x5 embedding ``U`` of ``u`` (see :class:`TangentInput`).

    With ``S = skew(omega * dt)`` and ``theta = ||omega|| * dt``, the result
    has rotation block ``I + A S + B S^2``, velocity column ``J1 a dt``,
    position column ``J1 v dt + eps dt^2 J2 a``, and ``eps dt`` at entry
    ``(4, 3)``, where ``J1 = I + B S + C S^2`` and ``J2 = I/2 + C S + D S^2``
    use the coefficients of :func:`_rodrigues_coefficients`.  Powers of the
    tangent matrix beyond the second vanish outside the rotation block, which
    is what collapses the series to these four coefficients.
    """
    (r0, r1, r2), t_p, t_v = _se23_blocks(u.omega.tolist(), u.v.tolist(), u.a.tolist(), u.eps, dt)
    return np.array([
        [*r0, t_p[0], t_v[0]],
        [*r1, t_p[1], t_v[1]],
        [*r2, t_p[2], t_v[2]],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, u.eps * dt, 1.0],
    ])


@dataclass(frozen=True)
class NavState:
    """Navigation state: rotation ``r``, position ``p``, velocity ``v``."""

    r: np.ndarray
    p: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if self.p.shape != (3,) or self.v.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")


def quat_normalize(q) -> tuple[float, float, float, float]:
    """Rescale a quaternion (array or float sequence) to unit norm, as a tuple of floats."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    return w / n, x / n, y / n, z / n


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
    quaternion product to a rotation product (Hamilton convention).  A
    single quaternion is evaluated on Python floats (the filter's step
    path); a stack, componentwise on arrays, with the same arithmetic.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        return np.array(_quat_rot_rows(*q.tolist()))
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


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vectors ``(..., 3)`` of rotation matrices ``(..., 3, 3)``: the inverse of :func:`so3_exp`.

    Read off the unit quaternion of :func:`rot_to_quat` (Shepperd branches,
    scalar part ``q_0 >= 0``, so the angle lies in ``[0, pi]``): the angle is
    ``2 atan2(|q_v|, q_0)`` and ``w = angle / sin(angle / 2) q_v``.  Below
    ``SMALL_ANGLE`` the ratio is its series ``2 + angle^2 / 12``.
    """
    q = rot_to_quat(r)
    qv = q[..., 1:]
    angle = 2.0 * np.arctan2(np.sqrt((qv[..., None, :] @ qv[..., :, None])[..., 0, 0]), q[..., 0])
    small = angle < SMALL_ANGLE
    half = np.where(small, 1.0, 0.5 * angle)
    scale = np.where(small, 2.0 + angle * angle / 12.0, 2.0 * half / np.sin(half))
    return scale[..., None] * qv


def quat_multiply(q1, q2) -> tuple[float, float, float, float]:
    """Hamilton quaternion product ``q1 * q2`` of two arrays or float sequences, as a tuple of floats."""
    (w1, x1, y1, z1), (w2, x2, y2, z2) = q1, q2
    return (w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2), w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2),
            w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2), w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2))


def quat_from_rotvec(w) -> tuple[float, float, float, float]:
    """Unit quaternion of a rotation vector, as a tuple of floats; satisfies quat_to_rot == so3_exp."""
    x, y, z = w
    theta = math.hypot(x, y, z)
    half = 0.5 * theta
    if theta < SMALL_ANGLE:
        # sin(t/2)/t to second order
        scale = 0.5 - theta * theta / 48.0
    else:
        scale = math.sin(half) / theta
    return math.cos(half), scale * x, scale * y, scale * z
