"""Ground-truth trajectory generation and noise handling.

Truth follows the rigid-body kinematics ``R_dot = R skew(omega)``,
``P_dot = V``, ``V_dot = R a + g``.  Analytic flight profiles (hover,
circle, lissajous) give it in closed form, body rates and specific forces
included.  Velocity ground truth for datasets that only log positions is
reconstructed with a Savitzky-Golay differentiator.

Noise standard deviations are per-sample values at the generation rate; a
continuous white-noise density maps to them by the usual Euler-Maruyama
correspondence (density / sqrt(dt) for sampled noise, sqrt(dt) scaling for
Brownian increments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .liegroup import NavState, so3_exp
from .liegroup import se23_exp  # noqa: F401 -- kept as a module attribute for per-layer instrumentation

if TYPE_CHECKING:
    from .attitude import ReferenceEnvironment

__all__ = [
    "BadParams",
    "TooFewSamples",
    "NoiseSpec",
    "TruthTrajectory",
    "generate_trajectory",
    "reconstruct_velocity",
]


class BadParams(ValueError):
    """Trajectory parameters are missing, unknown, or out of range."""


class TooFewSamples(ValueError):
    """Not enough samples for the requested reconstruction."""


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample sensor noise standard deviations and the stream seed.

    ``schedule`` selects the time profile of the sigmas: ``constant`` or a
    linear ``ramp`` from half strength to full strength (the given sigmas)
    over a run.
    """

    sigma_omega: np.ndarray = field(default_factory=lambda: np.full(3, 0.01))
    sigma_a: np.ndarray = field(default_factory=lambda: np.full(3, 0.05))
    sigma_m: float = 0.2
    sigma_range: float = 0.05
    seed: int = 0
    schedule: str = "constant"

    def __post_init__(self) -> None:
        so = np.asarray(self.sigma_omega, dtype=float)
        sa = np.asarray(self.sigma_a, dtype=float)
        if so.shape != (3,) or sa.shape != (3,):
            raise ValueError("sigma_omega and sigma_a must be 3-vectors")
        sigmas = np.concatenate([so, sa, [self.sigma_m, self.sigma_range]])
        if not (np.isfinite(sigmas).all() and (sigmas >= 0).all()):
            raise ValueError("standard deviations must be finite and nonnegative")
        if self.schedule not in ("constant", "ramp"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        object.__setattr__(self, "sigma_omega", so)
        object.__setattr__(self, "sigma_a", sa)

    def stream(self) -> np.random.Generator:
        """Fresh generator for this spec's seed."""
        return np.random.default_rng(self.seed)

    def scale_at(self, t: float | np.ndarray, duration: float) -> np.ndarray:
        """Instantaneous sigma multiplier of the schedule at each time in ``t``."""
        t = np.asarray(t, dtype=float)
        if self.schedule == "constant" or duration <= 0.0:
            return np.ones_like(t)
        return 0.5 + 0.5 * np.clip(t / duration, 0.0, 1.0)


@dataclass
class TruthTrajectory:
    """Uniformly sampled truth: states plus the body inputs that drive them."""

    t: np.ndarray
    rot: np.ndarray
    p: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        if n < 2:
            raise BadParams("a trajectory needs at least two samples")
        if np.any(np.diff(self.t) <= 0):
            raise BadParams("timestamps must be strictly increasing")
        shapes = {
            "rot": (n, 3, 3),
            "p": (n, 3),
            "v": (n, 3),
            "omega": (n, 3),
            "a": (n, 3),
        }
        for name, want in shapes.items():
            if getattr(self, name).shape != want:
                raise BadParams(f"{name} must have shape {want}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def state(self, i: int) -> NavState:
        return NavState(r=self.rot[i], p=self.p[i], v=self.v[i])


def _gravity(env: "ReferenceEnvironment | None") -> np.ndarray:
    if env is None:
        return np.array([0.0, 0.0, 9.81])
    return env.g_vec


def _yaw(angle: float | np.ndarray) -> np.ndarray:
    """Rotations about z by each angle: ``so3_exp([0, 0, angle])``."""
    w = np.zeros(np.shape(angle) + (3,))
    w[..., 2] = angle
    return so3_exp(w)


_COMMON_KEYS = {"duration", "rate"}
_KIND_KEYS = {
    "hover": {"p0", "yaw"},
    "circle": {"p0", "radius", "period", "yaw0"},
    "lissajous": {
        "p0",
        "amplitude",
        "frequency",
        "phase",
        "yaw_amplitude",
        "yaw_frequency",
    },
}

DEFAULT_START = np.array([-0.061, 1.244, 1.506])


def _scalar(params: dict, name: str, default: float) -> float:
    """Finite float parameter ``name`` of ``params``, else BadParams."""
    try:
        value = float(params.get(name, default))
    except (TypeError, ValueError) as err:
        raise BadParams(f"{name} must be a number") from err
    if not math.isfinite(value):
        raise BadParams(f"{name} must be finite")
    return value


def _vector(params: dict, name: str, default) -> np.ndarray:
    """Finite 3-vector parameter ``name`` of ``params``, else BadParams."""
    try:
        value = np.asarray(params.get(name, default), dtype=float)
    except (TypeError, ValueError) as err:
        raise BadParams(f"{name} must be a 3-vector") from err
    if value.shape != (3,) or not np.isfinite(value).all():
        raise BadParams(f"{name} must be a finite 3-vector")
    return value


def generate_trajectory(
    kind: str,
    params: dict | None = None,
    env: "ReferenceEnvironment | None" = None,
) -> TruthTrajectory:
    """Sample an analytic flight profile at a fixed rate.

    Kinds and their parameters (all optional, with defaults):

    - ``hover``: stationary at ``p0`` with constant ``yaw``.
    - ``circle``: horizontal circle of ``radius`` and ``period`` starting at
      ``p0``, yaw spinning with the orbit plus offset ``yaw0``; body rate
      and specific force are constant, so exact propagation reproduces the
      profile to round-off.
    - ``lissajous``: per-axis sinusoids ``amplitude * sin(2 pi frequency t
      + phase)`` around ``p0`` with a sinusoidal yaw sweep.

    ``duration`` (s) and ``rate`` (Hz) apply to every kind.  Every
    parameter must be finite; lengths, periods and rates must be positive.

    Raises
    ------
    BadParams
        On unknown kind, unknown, malformed or non-finite parameters.
    """
    params = dict(params or {})
    if kind not in _KIND_KEYS:
        raise BadParams(f"unknown trajectory kind {kind!r}")
    unknown = set(params) - _KIND_KEYS[kind] - _COMMON_KEYS
    if unknown:
        raise BadParams(f"unknown parameters for {kind}: {sorted(unknown)}")

    duration, rate = _scalar(params, "duration", 30.0), _scalar(params, "rate", 100.0)
    if not (duration > 0 and rate > 0):
        raise BadParams("duration and rate must be positive")
    n = int(round(duration * rate)) + 1
    if n < 2:
        raise BadParams("duration too short for the sample rate")
    t = np.arange(n) / rate
    g = _gravity(env)

    p0 = _vector(params, "p0", DEFAULT_START)

    if kind == "hover":
        yaw = _scalar(params, "yaw", 0.0)
        r = _yaw(yaw)
        rot = np.tile(r, (n, 1, 1))
        p = np.tile(p0, (n, 1))
        v = np.zeros((n, 3))
        omega = np.zeros((n, 3))
        a = np.tile(r.T @ (-g), (n, 1))
        return TruthTrajectory(t=t, rot=rot, p=p, v=v, omega=omega, a=a)

    if kind == "circle":
        radius, period = _scalar(params, "radius", 2.0), _scalar(params, "period", 10.0)
        yaw0 = _scalar(params, "yaw0", 0.0)
        if not (radius > 0 and period > 0):
            raise BadParams("radius and period must be positive")
        w = 2.0 * np.pi / period
        center = p0 - np.array([radius, 0.0, 0.0])
        cos, sin = np.cos(w * t), np.sin(w * t)
        p = center + radius * np.stack([cos, sin, np.zeros(n)], axis=1)
        v = radius * w * np.stack([-sin, cos, np.zeros(n)], axis=1)
        vdot = -radius * w * w * np.stack([cos, sin, np.zeros(n)], axis=1)
        omega = np.tile([0.0, 0.0, w], (n, 1))
        rot = _yaw(w * t + yaw0)
        return TruthTrajectory(t=t, rot=rot, p=p, v=v, omega=omega, a=_body_force(rot, vdot, g))

    amplitude = _vector(params, "amplitude", [1.0, 0.8, 0.3])
    frequency = _vector(params, "frequency", [0.10, 0.15, 0.05])
    phase = _vector(params, "phase", [0.0, np.pi / 2, 0.0])
    yaw_amplitude = _scalar(params, "yaw_amplitude", 0.6)
    yaw_frequency = _scalar(params, "yaw_frequency", 0.05)
    wv = 2.0 * np.pi * frequency
    arg = np.outer(t, wv) + phase
    p = p0 + amplitude * np.sin(arg)
    v = amplitude * wv * np.cos(arg)
    vdot = -amplitude * wv * wv * np.sin(arg)
    wy = 2.0 * np.pi * yaw_frequency
    psi = yaw_amplitude * np.sin(wy * t)
    psidot = yaw_amplitude * wy * np.cos(wy * t)
    omega = np.stack([np.zeros(n), np.zeros(n), psidot], axis=1)
    rot = _yaw(psi)
    return TruthTrajectory(t=t, rot=rot, p=p, v=v, omega=omega, a=_body_force(rot, vdot, g))


def _body_force(rot: np.ndarray, vdot: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Body-frame specific force ``R^T (V_dot - g)`` per sample."""
    return (rot.transpose(0, 2, 1) @ (vdot - g)[:, :, None])[:, :, 0]


SG_WINDOW, SG_ORDER = 11, 3  # Savitzky-Golay differentiator: window length, fit degree


def reconstruct_velocity(positions: np.ndarray, dt: float) -> np.ndarray:
    """Savitzky-Golay differentiation of a uniformly sampled position series.

    Savitzky & Golay (Anal. Chem. 1964): a sample's derivative is the slope
    of the least-squares polynomial of degree ``SG_ORDER`` through its
    ``SG_WINDOW``-sample window, from one ``lstsq`` of the Vandermonde
    matrix of the window offsets.  Interior samples take the slope at the
    window centre; the first and last half-windows take the slopes of the
    first and last windows' fits (``interp`` mode of scipy's
    ``savgol_filter``).  For short series the window shrinks to the largest
    odd length that fits.

    Raises
    ------
    TooFewSamples
        With fewer than 5 samples.
    ValueError
        If ``dt`` is not finite and positive.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n < 5:
        raise TooFewSamples(f"need at least 5 samples, got {n}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    window = min(SG_WINDOW, n if n % 2 else n - 1)
    half = window // 2
    offsets = np.arange(-half, half + 1.0)
    fit = np.linalg.lstsq(offsets[:, None] ** np.arange(SG_ORDER + 1), np.eye(window), rcond=None)[0]
    # row k: weights of the window samples in the fit's slope at offset k
    slope = (np.arange(1, SG_ORDER + 1) * offsets[:, None] ** np.arange(SG_ORDER)) @ fit[1:] / dt
    v = np.empty_like(positions)
    v[half : n - half] = sliding_window_view(positions, window, axis=0) @ slope[half]
    v[:half] = slope[:half] @ positions[:window]
    v[n - half :] = slope[half + 1 :] @ positions[n - window :]
    return v
