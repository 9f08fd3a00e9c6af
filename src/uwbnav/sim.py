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

from .liegroup import so3_exp
from .liegroup import se23_exp  # noqa: F401 -- no call here: perfbench/tracing.py patches it as a listed caller

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
    """Per-sample sensor noise standard deviations and the stream seed."""

    sigma_omega: np.ndarray = field(default_factory=lambda: np.full(3, 0.01))
    sigma_a: np.ndarray = field(default_factory=lambda: np.full(3, 0.05))
    sigma_m: float = 0.2
    sigma_range: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_omega", "sigma_a"):
            object.__setattr__(self, name, _numbers(getattr(self, name), name, ValueError, (3,)))
        for name in ("sigma_omega", "sigma_a", "sigma_m", "sigma_range"):
            sigma = np.asarray(getattr(self, name))
            if not (np.isfinite(sigma).all() and (sigma >= 0).all()):
                raise ValueError(f"{name} must be finite and nonnegative")

    def stream(self) -> np.random.Generator:
        """Fresh generator for this spec's seed."""
        return np.random.default_rng(self.seed)


@dataclass
class TruthTrajectory:
    """Uniformly sampled truth: states plus the body inputs that drive them.

    The body rates ``omega`` and specific forces ``a`` are None for a
    replayed flight, whose dataset records no body inputs.
    """

    t: np.ndarray
    rot: np.ndarray
    p: np.ndarray
    v: np.ndarray
    omega: np.ndarray | None = None
    a: np.ndarray | None = None

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
            if getattr(self, name) is not None and getattr(self, name).shape != want:
                raise BadParams(f"{name} must have shape {want}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


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
MAX_SAMPLES = 10**7  # duration * rate ceiling: about 1.8 GB of truth arrays


_REAL = (int, float, str, np.integer, np.floating)


def _reals(value):
    """A finite number as a float, or nested lists, tuples or arrays of finite numbers as lists of floats.

    A boolean or a non-number is a TypeError and a non-finite number a
    ValueError; text goes through ``float``.
    """
    if value.__class__ is float or (value.__class__ is not bool and isinstance(value, _REAL)):
        number = float(value)
        if math.isfinite(number):
            return number
        raise ValueError(f"not finite: {value!r}")
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_reals(item) for item in value]
    raise TypeError(f"not a number: {value!r}")


def _numbers(value, name: str, error: type[ValueError], shape: tuple = ()):
    """Config or trajectory value ``name`` as a finite float, or a finite float64 array of ``shape``.

    A leading ``None`` in ``shape`` matches any length.  Anything else
    raises ``error`` naming ``name``: a boolean (YAML reads ``yes`` as one),
    text that ``float`` cannot read, a ragged or wrongly shaped nesting, or
    a non-finite value.  Text that ``float`` reads counts as a number, since
    YAML 1.1 loads an exponent without a sign (``1e12``) as a string.
    """
    try:
        number = _reals(value)
        if not shape:
            if isinstance(number, float):
                return number
        else:
            array = np.array(number, dtype=float)
            if array.shape == shape or (shape[0] is None and array.ndim == len(shape) and array.shape[1:] == shape[1:]):
                return array
    except (TypeError, ValueError, OverflowError):
        pass
    what = "number" if not shape else "3-vector" if shape == (3,) else str(shape).replace("None", "N") + " array"
    raise error(f"{name} must be a finite {what}, got {value!r}")


@np.errstate(over="ignore", invalid="ignore")
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

    ``duration`` (s) and ``rate`` (Hz) apply to every kind, and
    ``duration * rate`` may not exceed ``MAX_SAMPLES``.  Every parameter
    must be finite; lengths, periods and rates must be positive.  Finite
    parameters may still overflow a sample (``radius * (2 pi / period)^2``):
    it is left non-finite, without a warning, for measurement synthesis to
    reject by name.

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

    def param(name: str, default, shape: tuple = ()):
        return _numbers(params.get(name, default), name, BadParams, shape)

    duration, rate = param("duration", 30.0), param("rate", 100.0)
    if not (duration > 0 and rate > 0):
        raise BadParams("duration and rate must be positive")
    if not duration * rate <= MAX_SAMPLES:  # checked before anything is allocated
        raise BadParams(f"duration * rate gives {duration * rate:.3g} samples, above the ceiling of {MAX_SAMPLES:g}")
    n = int(round(duration * rate)) + 1
    if n < 2:
        raise BadParams("duration too short for the sample rate")
    t = np.arange(n) / rate
    g = np.array([0.0, 0.0, 9.81]) if env is None else env.g_vec

    p0 = param("p0", DEFAULT_START, (3,))

    if kind == "hover":
        yaw = param("yaw", 0.0)
        r = _yaw(yaw)
        rot = np.tile(r, (n, 1, 1))
        p = np.tile(p0, (n, 1))
        v = np.zeros((n, 3))
        omega = np.zeros((n, 3))
        a = np.tile(r.T @ (-g), (n, 1))
        return TruthTrajectory(t=t, rot=rot, p=p, v=v, omega=omega, a=a)

    if kind == "circle":
        radius, period = param("radius", 2.0), param("period", 10.0)
        yaw0 = param("yaw0", 0.0)
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

    amplitude = param("amplitude", [1.0, 0.8, 0.3], (3,))
    frequency = param("frequency", [0.10, 0.15, 0.05], (3,))
    phase = param("phase", [0.0, np.pi / 2, 0.0], (3,))
    yaw_amplitude = param("yaw_amplitude", 0.6)
    yaw_frequency = param("yaw_frequency", 0.05)
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
    first and last windows' fits (the ``interp`` edge mode of the usual
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
