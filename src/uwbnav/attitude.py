"""IMU measurement models and vector-triad attitude observations.

A body-frame measurement of a known inertial reference vector gives one
attitude constraint.  Three unit pairs ``(v_i, r_i)`` with ``v_i`` measured
in the body frame and ``r_i`` fixed in the inertial frame are built from
accelerometer + magnetometer (gravity and magnetic-field references, the
third pair from their cross product).  At zero noise every pair satisfies
``v_i = R^T r_i``.  The accelerometer-based gravity pair relies on the
low-acceleration approximation ``a_m ~ -R^T g``: it is exact at hover and
degrades with ``||V_dot|| / g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .liegroup import _array_field, _floats, _new, _vector, cross3

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
        gn, mn = np.linalg.norm(g), np.linalg.norm(m)
        if gn <= EPS_DEGENERATE or mn <= EPS_DEGENERATE:
            raise ValueError("g_vec and m_r must be nonzero")
        if np.linalg.norm(np.cross(g, m)) / (gn * mn) <= EPS_DEGENERATE:
            raise ValueError("g_vec and m_r (gravity and magnetic references) are collinear")
        object.__setattr__(self, "g_vec", g)
        object.__setattr__(self, "m_r", m)
        r1 = _unit(*(-g).tolist(), "gravity reference")
        r2 = _unit(*m.tolist(), "magnetic reference")
        r3 = _unit(*cross3(r1, r2), "reference cross product")
        object.__setattr__(self, "_reference", _reference_floats((r1, r2, r3)))
        object.__setattr__(self, "_g", tuple(g.tolist()))


class ImuSample:
    """One IMU epoch: rate gyro, accelerometer, magnetometer, timestamp."""

    __slots__ = ("_omega", "_a", "_m", "_t")

    def __new__(cls, omega_m, a_m, m_m, t: float = 0.0) -> ImuSample:
        return _raw_imu(
            _vector(omega_m, "omega_m", finite=True), _vector(a_m, "a_m", finite=True),
            _vector(m_m, "m_m", finite=True), float(t),
        )

    omega_m = _array_field("_omega", "Gyro reading (3,), rad/s.")
    a_m = _array_field("_a", "Accelerometer reading (3,): specific force in the body frame.")
    m_m = _array_field("_m", "Magnetometer reading (3,) in the body frame.")
    t = property(attrgetter("_t"), doc="Time stamp.")


def _raw_imu(omega: tuple, a: tuple, m: tuple, t: float) -> ImuSample:
    """An ImuSample holding the given floats, without the constructor's checks."""
    imu = _new(ImuSample)
    imu._omega, imu._a, imu._m, imu._t = omega, a, m, t
    return imu


class TriadSet:
    """Three matched unit-vector pairs with weights.

    ``v[i]`` is measured in the body frame, ``r[i]`` is the matching
    inertial reference, and ``s`` are nonnegative weights summing to 3.  The
    third pair is a normalized cross product of the first two, so it is
    orthogonal to both by construction.  The reference side is stored as
    ``(rows, squared_norms)`` floats, the form :func:`build_triads` takes
    from the environment.
    """

    __slots__ = ("_v", "_reference", "_s")

    def __new__(cls, v, r, s=(1.0, 1.0, 1.0)) -> TriadSet:
        v = np.asarray(v, dtype=float)
        r = np.asarray(r, dtype=float)
        if v.shape != (3, 3) or r.shape != (3, 3):
            raise ValueError("v and r must be 3x3 (rows are the triad vectors)")
        rows = _floats(v)
        _check_measured(*rows)
        if not np.abs(np.linalg.norm(r, axis=1) - 1.0).max() <= 1e-9:
            raise ValueError("reference triad rows must be unit vectors")
        return _raw_triads(rows, _reference_floats(r.tolist()), _weights(s))

    v = _array_field("_v", "Measured unit vectors (3, 3), one per row.")
    r = property(lambda self: np.array(self._reference[0]), doc="Reference unit vectors (3, 3), one per row.")
    s = _array_field("_s", "Confidence weights (3,).")


def _raw_triads(v: tuple, reference: tuple, s: tuple) -> TriadSet:
    """A TriadSet holding the given float rows, reference and weights, without the constructor's checks."""
    triads = _new(TriadSet)
    triads._v, triads._reference, triads._s = v, reference, s
    return triads


def _reference_floats(rows) -> tuple:
    """``(rows, squared_norms)`` of a reference triad given as three float rows, as float tuples."""
    rows = tuple(map(tuple, rows))
    return rows, tuple(x * x + y * y + z * z for x, y, z in rows)


def _check_measured(v1, v2, v3) -> None:
    """Measured triad rows (float 3-sequences) must be unit and the third orthogonal to the first two."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = v1, v2, v3
    if not (abs(math.sqrt(x1 * x1 + y1 * y1 + z1 * z1) - 1.0) <= 1e-9
            and abs(math.sqrt(x2 * x2 + y2 * y2 + z2 * z2) - 1.0) <= 1e-9
            and abs(math.sqrt(x3 * x3 + y3 * y3 + z3 * z3) - 1.0) <= 1e-9):
        raise ValueError("measured triad rows must be unit vectors")
    if not (abs(x3 * x1 + y3 * y1 + z3 * z1) <= 1e-9 and abs(x3 * x2 + y3 * y2 + z3 * z2) <= 1e-9):
        raise ValueError("third measured vector must be orthogonal to the first two")


def _weights(s) -> tuple[float, float, float]:
    """Triad confidence weights (a 3-sequence or array) as floats: three nonnegative values summing to 3."""
    try:
        s0, s1, s2 = map(float, s)
    except (TypeError, ValueError):
        raise ValueError("s must be 3 nonnegative weights summing to 3") from None
    if not (min(s0, s1, s2) >= 0.0 and abs(s0 + s1 + s2 - 3.0) <= 1e-9):
        raise ValueError("s must be 3 nonnegative weights summing to 3")
    return s0, s1, s2


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
    """ImuSample's value check, once over an ``(n, 9)`` block of gyro, accelerometer and magnetometer rows."""
    bad = ~np.isfinite(block.reshape(-1, 3, 3)).all(axis=2)
    if bad.any():
        name = ("omega_m", "a_m", "m_m")[np.argwhere(bad)[0][1]]
        raise ValueError(f"{name} must be a finite 3-vector")


def _imu_rows(t: np.ndarray, block: np.ndarray) -> list[ImuSample]:
    """One ImuSample per row of an ``(n, 9)`` block of finite readings (see :func:`_check_imu`)."""
    gyro, accel, mag = (map(tuple, block[:, k : k + 3].tolist()) for k in (0, 3, 6))
    return list(map(_raw_imu, gyro, accel, mag, np.asarray(t, dtype=float).tolist()))


def _unit(x: float, y: float, z: float, what: str) -> tuple[float, float, float]:
    """The vector ``(x, y, z)`` scaled to unit norm, as a float tuple."""
    n = math.sqrt(x * x + y * y + z * z)
    if n <= EPS_DEGENERATE:
        raise DegenerateTriads(f"{what} has near-zero norm")
    return x / n, y / n, z / n


def build_triads(
    a_m: np.ndarray,
    m_m: np.ndarray,
    env: ReferenceEnvironment,
    s: np.ndarray | tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> TriadSet:
    """Accelerometer/magnetometer triads.

    Pairs the normalized accelerometer with the downward gravity direction
    ``-g/||g||``, the normalized magnetometer with the field direction, and
    closes with the normalized cross products on both sides.  The reference
    side is the environment's, computed once; the measured side and the
    weights are checked here, on floats, so the TriadSet constructor is not
    run again.  ``a_m``, ``m_m`` and ``s`` may be arrays or float sequences.

    Raises
    ------
    DegenerateTriads
        If a measurement or a cross product has norm at or below
        ``EPS_DEGENERATE``.
    """
    v1 = _unit(*map(float, a_m), "accelerometer sample")
    v2 = _unit(*map(float, m_m), "magnetometer sample")
    v3 = _unit(*cross3(v1, v2), "measured cross product")
    _check_measured(v1, v2, v3)
    return _raw_triads((v1, v2, v3), env._reference, _weights(s))
