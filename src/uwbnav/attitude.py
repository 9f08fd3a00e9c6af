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
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .liegroup import NavState, _unchecked, cross3

if TYPE_CHECKING:
    from .sim import NoiseSpec

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


def _default_gravity() -> np.ndarray:
    return np.array([0.0, 0.0, 9.81])


def _default_magnetic() -> np.ndarray:
    return np.array([-1.3, 0.0, 1.5])


@dataclass(frozen=True)
class ReferenceEnvironment:
    """Inertial-frame reference vectors: gravity (NED, z down) and magnetic field.

    ``r_triad`` is the reference side of :func:`build_triads`, computed once,
    and ``_reference`` its rows and their squared norms as floats.
    """

    g_vec: np.ndarray = field(default_factory=_default_gravity)
    m_r: np.ndarray = field(default_factory=_default_magnetic)
    r_triad: np.ndarray = field(init=False, repr=False, compare=False)
    _reference: tuple = field(init=False, repr=False, compare=False)

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
        r1 = _unit((-g).tolist(), "gravity reference")
        r2 = _unit(m.tolist(), "magnetic reference")
        r_triad = np.array([r1, r2, _unit(cross3(r1, r2), "reference cross product")])
        r_triad.flags.writeable = False  # shared by every TriadSet build_triads returns
        object.__setattr__(self, "r_triad", r_triad)
        object.__setattr__(self, "_reference", _reference_floats(r_triad))


@dataclass(frozen=True)
class ImuSample:
    """One IMU epoch: rate gyro, accelerometer, magnetometer, timestamp."""

    omega_m: np.ndarray
    a_m: np.ndarray
    m_m: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_m", "a_m", "m_m"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, vec)


@dataclass(frozen=True)
class TriadSet:
    """Three matched unit-vector pairs with weights.

    ``v[i]`` is measured in the body frame, ``r[i]`` is the matching
    inertial reference, and ``s`` are nonnegative weights summing to 3.  The
    third pair is a normalized cross product of the first two, so it is
    orthogonal to both by construction.
    """

    v: np.ndarray
    r: np.ndarray
    s: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if v.shape != (3, 3) or r.shape != (3, 3):
            raise ValueError("v and r must be 3x3 (rows are the triad vectors)")
        _check_measured(*v.tolist())
        if not np.abs(np.linalg.norm(r, axis=1) - 1.0).max() <= 1e-9:
            raise ValueError("reference triad rows must be unit vectors")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", _weights(self.s))


    @cached_property
    def _reference(self) -> tuple:
        """Rows of ``r`` and their squared norms as floats (:func:`build_triads` passes the environment's)."""
        return _reference_floats(self.r)


def _reference_floats(r: np.ndarray) -> tuple:
    """``(rows, squared_norms)`` of a 3x3 reference triad, as float tuples."""
    rows = tuple(map(tuple, r.tolist()))
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


def _weights(s) -> np.ndarray:
    """Triad confidence weights as an array: three nonnegative values summing to 3."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError("s must be 3 nonnegative weights summing to 3")
    s0, s1, s2 = s.tolist()
    if not (min(s0, s1, s2) >= 0.0 and abs(s0 + s1 + s2 - 3.0) <= 1e-9):
        raise ValueError("s must be 3 nonnegative weights summing to 3")
    return s


def measure_imu(
    truth: NavState,
    omega: np.ndarray,
    vdot: np.ndarray,
    env: ReferenceEnvironment,
    noise: "NoiseSpec | None" = None,
    rng: np.random.Generator | None = None,
    t: float = 0.0,
) -> ImuSample:
    """Simulate one IMU sample from the true state and its rates.

    The gyro reads the body rate, the accelerometer reads the specific
    force ``R^T (V_dot - g)``, and the magnetometer reads the body-frame
    field ``R^T m_r``.  Noise draws come from ``rng`` in a fixed order
    (gyro, accel, magnetometer), one triple per call; with ``noise`` None
    the sample is exact.
    """
    z = sigmas = None
    if noise is not None:
        if rng is None:
            raise ValueError("a seeded generator is required when noise is given")
        z, sigmas = rng.standard_normal(9), (noise.sigma_omega, noise.sigma_a, noise.sigma_m)
    gyro, accel, mag = _imu_block(
        truth.r, np.asarray(omega, dtype=float), np.asarray(vdot, dtype=float), env, z, sigmas
    )
    return ImuSample(omega_m=gyro, a_m=accel, m_m=mag, t=t)


def _imu_block(rot, omega, vdot, env, z=None, sigmas=None):
    """Gyro, accelerometer and magnetometer readings of :func:`measure_imu`, per row.

    ``rot`` is ``(..., 3, 3)``, ``omega`` and ``vdot`` ``(..., 3)``.  With
    standard normal draws ``z`` ``(..., 9)`` (gyro, accel, magnetometer) the
    readings get ``z * sigma`` from ``sigmas = (sigma_omega, sigma_a,
    sigma_m)``, each broadcast against the rows.
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


def _imu_rows(t: np.ndarray, gyro: np.ndarray, accel: np.ndarray, mag: np.ndarray) -> list[ImuSample]:
    """One ImuSample per row of ``(n, 3)`` blocks, with ImuSample's checks run once per block."""
    bad = ~np.isfinite(np.stack([gyro, accel, mag], axis=1)).all(axis=2)
    if bad.any():
        name = ("omega_m", "a_m", "m_m")[np.argwhere(bad)[0][1]]
        raise ValueError(f"{name} must be a finite 3-vector")
    return [
        _unchecked(ImuSample, omega_m=w, a_m=a, m_m=m, t=ti)
        for w, a, m, ti in zip(gyro, accel, mag, np.asarray(t, dtype=float).tolist())
    ]


def _unit(vec, what: str) -> tuple[float, float, float]:
    """A 3-sequence of floats scaled to unit norm, as a float tuple."""
    x, y, z = vec
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
    side is ``env.r_triad``; the measured side and the weights are checked
    here, so the TriadSet constructor is not run again.

    Raises
    ------
    DegenerateTriads
        If a measurement or a cross product has norm at or below
        ``EPS_DEGENERATE``.
    """
    v1 = _unit(np.asarray(a_m, dtype=float).tolist(), "accelerometer sample")
    v2 = _unit(np.asarray(m_m, dtype=float).tolist(), "magnetometer sample")
    v3 = _unit(cross3(v1, v2), "measured cross product")
    _check_measured(v1, v2, v3)
    return _unchecked(
        TriadSet, v=np.array((*v1, *v2, *v3)).reshape(3, 3), r=env.r_triad, s=_weights(s), _reference=env._reference
    )
