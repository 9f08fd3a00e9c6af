"""Nonlinear stochastic complementary navigation filter.

Fuses gyro/accelerometer/magnetometer triads with a UWB position fix on
the extended pose group.  The estimator carries attitude, position,
velocity, and an adaptive covariance-bound vector ``sigma_hat``; the
discrete path is a predict/update pair of exact group exponentials

    X_pred = X exp(U dt),        U = u(skew(omega_m), 0, a_m, 1)
    X_new  = exp(-W dt) X_pred,  W = u(skew(w_omega), w_v, w_a - g, 1)

with correction terms computed from the pre-prediction state.  Both a
rotation-matrix and a unit-quaternion attitude parametrization are
supported; they share the translation block math exactly, so the two
variants track each other to round-off.  The continuous closed loop this
discretizes keeps gravity in the velocity law instead of folding it into
W; the two conventions encode identical dynamics.

Validation: inputs are checked once, by their constructors (FilterState,
FilterGains, ImuSample, ReferenceEnvironment, the range sets).  A step
builds its intermediate values without those constructors and checks what
it can break: the measured triad, finite corrections, unit quaternions and,
once, the output state (``update`` gates its result, ``step`` the
predict-only state of a dropout) against ``ATTITUDE_GATE`` and for NaN/inf.
The per-step values (corrections, diagnostics, the position fix) are built
the same unchecked way, since their inputs passed those checks.

Cost: a step runs once per IMU sample, so its 3x3 and 3-vector products
are ``ndarray.dot`` calls.  ``@`` gives the same bits for these 2-D/1-D
operands but dispatches through the generalized-ufunc machinery, which on
operands this small costs two to four times the product itself.  Code that
multiplies whole ``(n, 3, 3)`` stacks keeps ``@``, because ``dot`` does not
broadcast over leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .attitude import DegenerateTriads, ImuSample, ReferenceEnvironment, TriadSet, _weights, build_triads
from .liegroup import (
    _se23_blocks,
    _unchecked,
    cross3,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_rot,
    se23_exp,  # noqa: F401 -- kept as a module attribute for per-layer instrumentation
)
from .uwb import AnchorSet, GeometryDegenerate, RangeSet, solve_fix

__all__ = [
    "FilterGains",
    "FilterState",
    "CorrectionTerms",
    "Diagnostics",
    "correction_terms",
    "predict",
    "update",
    "step",
    "step_with_fix",
]

SIGMA_ALERT_FLOOR = -10.0
ATTITUDE_GATE = 1e-6
_EYE3 = np.eye(3)
_ZERO3 = np.zeros(3)


@dataclass(frozen=True)
class FilterGains:
    """Positive filter constants and the triad confidence weights.

    Defaults are a working set for indoor flight scales.  ``s`` is
    consumed when triads are built inside :func:`step`; only positivity is
    enforced here (closed-loop stability margins are analysis-side and not
    checked at runtime).
    """

    k1: float = 3.0
    kv: float = 3.0
    ka: float = 70.0
    gamma_sigma: float = 0.1
    epsilon: float = 0.5
    k_sigma: float = 0.1
    s: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self) -> None:
        for name in ("k1", "kv", "ka", "gamma_sigma", "epsilon", "k_sigma"):
            if not float(getattr(self, name)) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        object.__setattr__(self, "s", _weights(self.s))


@dataclass(frozen=True)
class FilterState:
    """Estimator state at time ``t``.

    ``attitude`` is either a 3x3 rotation matrix or a scalar-first unit
    quaternion; the shape selects the variant.  States are immutable
    values: every operation returns a new one.
    """

    attitude: np.ndarray
    p_hat: np.ndarray
    v_hat: np.ndarray
    sigma_hat: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        att = np.asarray(self.attitude, dtype=float)
        if att.shape not in ((3, 3), (4,)):
            raise ValueError("attitude must be a 3x3 matrix or a 4-vector quaternion")
        object.__setattr__(self, "attitude", att)
        for name in ("p_hat", "v_hat", "sigma_hat"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, vec)
        _gate(self)

    @property
    def variant(self) -> str:
        return "matrix" if self.attitude.shape == (3, 3) else "quaternion"

    @cached_property
    def _rotation(self) -> np.ndarray:
        return self.attitude if self.variant == "matrix" else quat_to_rot(self.attitude)

    def rotation(self) -> np.ndarray:
        """Attitude as a rotation matrix regardless of variant (computed once per state)."""
        return self._rotation


def _gate(state: FilterState) -> FilterState:
    """Reject a state whose attitude left the group or whose values are not finite."""
    att = state.attitude
    if att.shape == (3, 3):
        err = att.T.dot(att) - _EYE3
        drift = math.sqrt(np.vdot(err, err))
        if not drift <= ATTITUDE_GATE:
            raise ValueError(f"attitude is not orthonormal (drift {drift:.2e})")
    elif not abs(math.sqrt(att.dot(att)) - 1.0) <= ATTITUDE_GATE:
        raise ValueError("quaternion attitude is not unit norm")
    if not all(map(math.isfinite, state.p_hat.tolist() + state.v_hat.tolist() + state.sigma_hat.tolist())):
        raise ValueError("state must be finite")
    return state


@dataclass(frozen=True)
class CorrectionTerms:
    """One evaluation of the correction and adaptation block."""

    e_r: float
    d_v: np.ndarray
    w_omega: np.ndarray
    w_v: np.ndarray
    w_a: np.ndarray
    sigma_dot: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d_v, dtype=float)
        if d.shape != (3, 3) or np.any(d != np.diag(np.diag(d))):
            raise ValueError("d_v must be a 3x3 diagonal matrix")


@dataclass(frozen=True)
class Diagnostics:
    """Per-step observability: attitude residual, innovation, adaptation."""

    e_r: float
    innovation_norm: float
    sigma_hat: np.ndarray
    dropout: bool = False
    dropout_reason: str = ""
    sigma_alert: bool = False


def correction_terms(
    state: FilterState, triads: TriadSet, p_y: np.ndarray, gains: FilterGains
) -> CorrectionTerms:
    """Covariance adaptation and correction factors from one measurement set.

    Computes, with ``v_hat_i = R_hat^T r_i`` and the triads' confidence
    weights ``s_i``:

    - ``e_r``: quarter-trace attitude residual
      ``(1/4) Tr sum s_i (r_i r_i^T - R_hat v_hat_i v_i^T R_hat^T)``,
      nonnegative and zero only at alignment;
    - ``d_v``: diagonal matrix of the weighted cross sum
      ``sum s_i v_i x v_hat_i``;
    - ``sigma_dot``: adaptation law
      ``gamma_sigma (e_r+2)/8 exp(e_r) d_v (sum s_i v_i x v_hat_i)
      - k_sigma gamma_sigma sigma_hat``;
    - ``w_omega``: attitude correction
      ``-(k1/2) R_hat (sum s_i v_i x v_hat_i)
      - (1/8)(e_r+2)/(e_r+1) R_hat d_v sigma_hat``;
    - ``w_v``: ``-(kv/epsilon)(p_y - p_hat) - skew(w_omega) p_hat``;
    - ``w_a``: ``-ka (p_y - p_hat) - skew(w_omega) v_hat``.

    Gravity is NOT folded into ``w_a`` here; the discrete step does that
    when it assembles the update exponential.
    """
    r_hat = state.rotation()
    s = triads.s
    # m = sum s_i v_hat_i v_i^T, so vex(m - m^T) = sum s_i v_i x v_hat_i and the
    # subtracted trace is Tr(R_hat m R_hat^T)
    m = triads.r.dot(r_hat).T.dot(s[:, None] * triads.v)
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = m.tolist()
    c0, c1, c2 = m21 - m12, m02 - m20, m10 - m01
    cross = np.array([c0, c1, c2])
    d_v = np.zeros((3, 3))
    d_v[0, 0], d_v[1, 1], d_v[2, 2] = c0, c1, c2
    e_r = 0.25 * float(s.dot((triads.r * triads.r).sum(axis=1)) - np.vdot(r_hat.dot(m), r_hat))

    g = gains
    sigma_dot = (
        g.gamma_sigma * (e_r + 2.0) / 8.0 * math.exp(e_r) * (cross * cross)
        - g.k_sigma * g.gamma_sigma * state.sigma_hat
    )
    w_omega = r_hat.dot(
        -(g.k1 / 2.0) * cross - 0.125 * (e_r + 2.0) / (e_r + 1.0) * (cross * state.sigma_hat)
    )
    innovation = p_y - state.p_hat
    w_v = -(g.kv / g.epsilon) * innovation - cross3(w_omega, state.p_hat)
    w_a = -g.ka * innovation - cross3(w_omega, state.v_hat)
    return _unchecked(
        CorrectionTerms, e_r=e_r, d_v=d_v, w_omega=w_omega, w_v=w_v, w_a=w_a, sigma_dot=sigma_dot
    )


def predict(state: FilterState, imu: ImuSample, dt: float) -> FilterState:
    """Right-translate the state by the exact IMU exponential.

    Block evaluation of ``X exp(u(skew(omega_m), 0, a_m, 1) dt)``: the
    attitude composes with the gyro rotation and the translation columns
    pick up the epsilon-coupled position increment.  The product's scalar
    coupling entry (dt in the bottom block) is not representable in the
    state; :func:`update` restores it before applying the left exponential
    so that a predict/update pair equals the full group product.  The
    result is a step's intermediate and is not gated.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    rot, t_p, t_v = _se23_blocks(imu.omega_m, _ZERO3, imu.a_m, 1.0, dt)
    r_hat = state.rotation()
    p_new = state.p_hat + state.v_hat * dt + r_hat.dot(t_p)
    v_new = state.v_hat + r_hat.dot(t_v)
    if state.variant == "matrix":
        att = state.attitude.dot(rot)
    else:
        att = quat_normalize(
            quat_multiply(state.attitude, quat_from_rotvec(imu.omega_m * dt))
        )
    return _unchecked(
        FilterState, attitude=att, p_hat=p_new, v_hat=v_new, sigma_hat=state.sigma_hat, t=state.t + dt
    )


def update(state: FilterState, w: CorrectionTerms, dt: float) -> FilterState:
    """Left-translate a predicted state by the correction exponential.

    Applies ``exp(-W dt)`` with ``W = u(skew(w_omega), w_v, w_a, 1)`` to
    the predicted embedding, restoring the dt coupling entry the predict
    product carries in its bottom block (dropping it would shift the
    position column by O(dt^2) per step and bias the closed loop).
    ``sigma_hat`` advances by one explicit Euler step of ``w.sigma_dot``.
    The result passes the gate of :class:`FilterState`.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    # exp(-W dt) is exp(W t) at t = -dt
    r_e, t_p, t_v = _se23_blocks(w.w_omega, w.w_v, w.w_a, 1.0, -dt)
    p_new = r_e.dot(state.p_hat) + t_p + dt * t_v
    v_new = r_e.dot(state.v_hat) + t_v
    if state.variant == "matrix":
        att = r_e.dot(state.attitude)
    else:
        att = quat_normalize(
            quat_multiply(quat_from_rotvec(w.w_omega * -dt), state.attitude)
        )
    sigma_new = state.sigma_hat + dt * w.sigma_dot
    return _gate(
        _unchecked(FilterState, attitude=att, p_hat=p_new, v_hat=v_new, sigma_hat=sigma_new, t=state.t)
    )


def step_with_fix(
    state: FilterState,
    imu: ImuSample,
    p_y: np.ndarray,
    env: ReferenceEnvironment,
    gains: FilterGains,
    dt: float,
) -> tuple[FilterState, Diagnostics]:
    """One discrete filter iteration given an already-reconstructed fix.

    Order: build triads from the IMU sample, evaluate corrections at the
    pre-prediction state, predict, update with gravity folded into the
    acceleration correction.  Raises DegenerateTriads if the vector
    observations are unusable (callers with a dropout policy catch it).
    """
    p_y = np.asarray(p_y, dtype=float)
    triads = build_triads(imu.a_m, imu.m_m, env, s=gains.s)
    w = correction_terms(state, triads, p_y, gains)
    folded = _unchecked(CorrectionTerms, **{**vars(w), "w_a": w.w_a - env.g_vec})
    new = update(predict(state, imu, dt), folded, dt)
    diag = _unchecked(
        Diagnostics,
        e_r=w.e_r,
        innovation_norm=math.dist(p_y.tolist(), state.p_hat.tolist()),
        sigma_hat=new.sigma_hat,
        dropout=False,
        dropout_reason="",
        sigma_alert=min(new.sigma_hat.tolist()) < SIGMA_ALERT_FLOOR,
    )
    return new, diag


def step(
    state: FilterState,
    imu: ImuSample,
    ranges: RangeSet,
    anchors: AnchorSet,
    env: ReferenceEnvironment,
    gains: FilterGains,
    dt: float,
) -> tuple[FilterState, Diagnostics]:
    """Full discrete iteration: solve the fix, then correct the state.

    On a degenerate fix geometry or degenerate triads the measurement is
    dropped: the state advances by predict only and the diagnostics flag
    the dropout with its reason.  Works for both attitude variants.
    """
    try:
        fix = solve_fix(anchors, ranges)
        return step_with_fix(state, imu, fix.p, env, gains, dt)
    except (GeometryDegenerate, DegenerateTriads) as err:
        pred = _gate(predict(state, imu, dt))
        diag = _unchecked(
            Diagnostics,
            e_r=float("nan"),
            innovation_norm=float("nan"),
            sigma_hat=pred.sigma_hat,
            dropout=True,
            dropout_reason=f"{type(err).__name__}: {err}",
            sigma_alert=False,
        )
        return pred, diag
