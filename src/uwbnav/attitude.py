"""IMU measurement models and vector-triad attitude observations.

A body-frame measurement of a known inertial reference vector gives one
attitude constraint.  Three unit pairs ``(v_i, r_i)`` with ``v_i`` measured
in the body frame and ``r_i`` fixed in the inertial frame are built from
accelerometer + magnetometer (gravity and magnetic-field references, the
third pair from their cross product).  At zero noise every pair satisfies
``v_i = R^T r_i``.  The accelerometer-based gravity pair relies on the
low-acceleration approximation ``a_m ~ -R^T g``: it is exact at hover and
degrades with ``||V_dot|| / g``.  :func:`measure_imu` gives the readings as
blocks, and a step's :class:`ImuSample` is built from a block row's three
field groups (``harness._Rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liegroup import cross3

__all__ = [
    "DegenerateTriads",
    "ReferenceEnvironment",
    "ImuSample",
    "TriadSet",
    "measure_imu",
    "build_triads",
]

# Vectors (or their cross products) with norm at or below this threshold
# cannot be normalized into triad directions.
EPS_DEGENERATE = 1e-6
# no reference coordinate may exceed this magnitude: the squared norms and
# the cross product's, which the triads and the collinearity test take, then
# stay finite
REFERENCE_LIMIT = 1e150


class DegenerateTriads(RuntimeError):
    """Reference or measured directions are too close to collinear or zero."""


@dataclass(frozen=True)
class ReferenceEnvironment:
    """Inertial-frame reference vectors: gravity (NED, z down) and magnetic field.

    Computed once for the filter step, as floats: ``_reference``, the rows of
    the reference side of :func:`build_triads` and their squared norms, and
    ``_g``, the gravity vector.
    """

    g_vec: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))
    m_r: np.ndarray = field(default_factory=lambda: np.array([-1.3, 0.0, 1.5]))
    _reference: tuple = field(init=False, repr=False, compare=False)
    _g: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.g_vec, dtype=float)
        m = np.asarray(self.m_r, dtype=float)
        if g.shape != (3,) or m.shape != (3,):
            raise ValueError("g_vec and m_r must be 3-vectors")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(m))):
            raise ValueError("g_vec and m_r must be finite")
        if not max(np.abs(g).max(), np.abs(m).max()) <= REFERENCE_LIMIT:
            raise ValueError(f"g_vec and m_r must lie within {REFERENCE_LIMIT:g} of the origin: their squares "
                             "would overflow")
        gn, mn = np.linalg.norm(g), np.linalg.norm(m)
        if gn <= EPS_DEGENERATE or mn <= EPS_DEGENERATE:
            raise ValueError("g_vec and m_r must be nonzero")
        if np.linalg.norm(np.cross(g, m)) / (gn * mn) <= EPS_DEGENERATE:
            raise ValueError("g_vec and m_r (gravity and magnetic references) are collinear")
        object.__setattr__(self, "g_vec", g)
        object.__setattr__(self, "m_r", m)
        r1 = _unit(*(-g).tolist(), "gravity reference")
        r2 = _unit(*m.tolist(), "magnetic reference")
        rows = (r1, r2, _unit(*cross3(r1, r2), "reference cross product"))
        object.__setattr__(self, "_reference", (rows, tuple(x * x + y * y + z * z for x, y, z in rows)))
        object.__setattr__(self, "_g", tuple(g.tolist()))


@dataclass(slots=True)
class ImuSample:
    """One IMU epoch in the body frame, as float 3-tuples.

    ``omega_m`` is the gyro reading (rad/s), ``a_m`` the accelerometer's
    specific force and ``m_m`` the magnetometer reading.  A sample holds
    what it is given: the harness builds it from a row of a block that
    passed :func:`_check_imu`, one field per 3-double group of the row.
    """

    omega_m: tuple
    a_m: tuple
    m_m: tuple


@dataclass(slots=True)
class TriadSet:
    """Three matched unit-vector pairs, as :func:`build_triads` builds them.

    ``v`` holds the measured body-frame unit rows and ``reference`` the
    matching inertial side as ``(rows, squared_norms)`` (the environment's,
    computed once), all as float tuples.  The third pair is a normalized
    cross product of the first two, so it is orthogonal to both by
    construction.  The pairs' confidence weights are the filter's, held
    and checked once by ``navfilter.FilterGains``.
    """

    v: tuple
    reference: tuple


def measure_imu(rot, omega, vdot, env, z=None, sigmas=None):
    """Gyro, accelerometer and magnetometer readings of the true attitude and rates, per row.

    The gyro reads the body rate ``omega``, the accelerometer the specific
    force ``R^T (V_dot - g)`` and the magnetometer the body-frame field
    ``R^T m_r``; returns ``(gyro, accel, mag)``.  ``rot`` is
    ``(..., 3, 3)``, ``omega`` and ``vdot`` ``(..., 3)``.  With standard
    normal draws ``z`` ``(..., 9)`` (gyro, accel, magnetometer) the readings
    get ``z * sigma`` from ``sigmas = (sigma_omega, sigma_a, sigma_m)``,
    each broadcast against the rows.
    """
    rt = np.swapaxes(rot, -1, -2)
    accel = (rt @ (vdot - env.g_vec)[..., None])[..., 0]
    mag = rt @ env.m_r
    gyro = omega
    if z is not None:
        sigma_omega, sigma_a, sigma_m = sigmas
        gyro = gyro + z[..., 0:3] * sigma_omega
        accel = accel + z[..., 3:6] * sigma_a
        mag = mag + (0.0 + sigma_m * z[..., 6:9])  # loc + scale * z, as Generator.normal
    return gyro, accel, mag


def _check_imu(block: np.ndarray) -> None:
    """The IMU value check, once over an ``(n, 9)`` block of gyro, accelerometer and magnetometer rows."""
    bad = ~np.isfinite(block.reshape(-1, 3, 3)).all(axis=2)
    if bad.any():
        name = ("omega_m", "a_m", "m_m")[np.argwhere(bad)[0][1]]
        raise ValueError(f"{name} must be a finite 3-vector")


def _unit(x: float, y: float, z: float, what: str) -> tuple[float, float, float]:
    """The vector ``(x, y, z)`` scaled to unit norm, as a float tuple."""
    n = math.sqrt(x * x + y * y + z * z)
    if n <= EPS_DEGENERATE:
        raise DegenerateTriads(f"{what} has near-zero norm")
    return x / n, y / n, z / n


def build_triads(a_m, m_m, env: ReferenceEnvironment) -> TriadSet:
    """Accelerometer/magnetometer triads.

    Pairs the normalized accelerometer with the downward gravity direction
    ``-g/||g||``, the normalized magnetometer with the field direction, and
    closes with the normalized cross products on both sides.  The reference
    side is the environment's, computed once; the measured side is
    normalized here, from the floats of ``a_m`` and ``m_m`` (3-sequences).
    Finite readings give unit rows, the third orthogonal to the first two,
    by construction: a norm that overflows zeroes its row, and the cross
    product's zero norm then raises.  The weights are the filter's.

    Raises
    ------
    DegenerateTriads
        If a measurement or a cross product has norm at or below
        ``EPS_DEGENERATE``.
    """
    v1 = _unit(*a_m, "accelerometer sample")
    v2 = _unit(*m_m, "magnetometer sample")
    v3 = _unit(*cross3(v1, v2), "measured cross product")
    return TriadSet((v1, v2, v3), env._reference)
