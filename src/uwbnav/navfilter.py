"""Nonlinear stochastic complementary navigation filter.

Fuses gyro/accelerometer/magnetometer triads with a UWB position fix on
the extended pose group.  The estimator carries attitude, position,
velocity, and an adaptive covariance-bound vector ``sigma_hat``; the
discrete path is a predict/update pair of exact group exponentials

    X_pred = X exp(U dt),        U = u(skew(omega_m), 0, a_m, 1)
    X_new  = exp(-W dt) X_pred,  W = u(skew(w_omega), w_v, w_a - g, 1)

with correction terms computed from the pre-prediction state.  Each is one
call of ``liegroup.se23_exp``, which returns the exponential's blocks on
floats (``update`` passes ``-dt``) and never builds the 5x5.  Both a
rotation-matrix and a unit-quaternion attitude parametrization are
supported; they share the translation block math exactly, so the two
variants track each other to round-off.  The continuous closed loop this
discretizes keeps gravity in the velocity law instead of folding it into
W; the two conventions encode identical dynamics.

Validation: every value a step reads or builds (FilterState, ImuSample,
Ranges, TriadSet, CorrectionTerms, Diagnostics) is one plain slotted
dataclass of floats with no checking constructor; the fix is the solver's
position, a float 3-tuple.  Inputs are checked once, at the boundary:
``RunConfig`` gates the initial state, and the harness checks each IMU and
range block whole (``_check_imu``, ``_check_ranges``) and builds a sample
only when a step reads it.  Inside a step, each producer checks what the
step can break before it builds its value: the measured triad's norms, a
fix's rank, conditioning and finiteness, unit quaternions and, once, the
output state (``update`` gates its result, ``step`` the predict-only state
of a dropout) against ``ATTITUDE_GATE`` and for NaN/inf.  The triad weights
are checked once, by ``FilterGains``.

Cost: a step runs once per IMU sample on 3-vectors and 3x3 matrices, where
a numpy call costs 0.3-1 us of dispatch around tens of nanoseconds of
arithmetic, and building or reading back a small array costs as much.  So
the values that cross the step's layers hold Python floats (attitude as
three row tuples or one quaternion 4-tuple, 3-vectors as 3-tuples, ``d_v``
as its diagonal) and each layer evaluates its products as scalar
expressions on them; no array is built or read inside a step.  The public
fields of every value are these float tuples; the harness and the metrics
stack a run's tuples into arrays once.  A step converts and re-checks
nothing already held as checked floats: samples, fixes and the weights in
``FilterGains.s`` are read as they are.  A product used once is written
out in place, in ``_product``'s operation order, and a solve walks its rows
in fused passes (see ``uwb``): a helper call, temporary tuple or extra pass
costs as much as the arithmetic it carries.  The step builds only acyclic
float containers, which reference counting frees, so offline runs pause the
cyclic collector (``harness.run_experiment``); an online caller that keeps
its states can do the same around its own loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attitude import DegenerateTriads, ImuSample, ReferenceEnvironment, TriadSet, build_triads
from .liegroup import _quat_rot_rows, cross3, quat_turn, se23_exp
from .uwb import AnchorSet, GeometryDegenerate, Ranges, solve_fix

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

ATTITUDE_GATE = 1e-6
_ZERO3 = (0.0, 0.0, 0.0)
_NAN = float("nan")


@dataclass(frozen=True)
class FilterGains:
    """Positive filter constants and the triad confidence weights.

    Defaults are a working set for indoor flight scales.  ``s`` holds the
    triad confidence weights (any 3-sequence or array), checked here once:
    three nonnegative values summing to 3, kept as a float 3-tuple, which
    :func:`correction_terms` reads as it is.  Of the constants only
    positivity is enforced (closed-loop stability margins are analysis-side
    and not checked at runtime; ``RunConfig`` bounds the ``sigma_hat``
    decay per step).
    """

    k1: float = 3.0
    kv: float = 3.0
    ka: float = 70.0
    gamma_sigma: float = 0.1
    epsilon: float = 0.5
    k_sigma: float = 0.1
    s: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("k1", "kv", "ka", "gamma_sigma", "epsilon", "k_sigma"):
            if not float(getattr(self, name)) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        try:
            s0, s1, s2 = map(float, np.asarray(self.s, dtype=float))
        except (TypeError, ValueError):
            raise ValueError("s must be 3 nonnegative weights summing to 3") from None
        if not (min(s0, s1, s2) >= 0.0 and abs(s0 + s1 + s2 - 3.0) <= 1e-9):
            raise ValueError("s must be 3 nonnegative weights summing to 3")
        object.__setattr__(self, "s", (s0, s1, s2))


@dataclass(slots=True)
class FilterState:
    """Estimator state, as float tuples.

    ``attitude`` is either a rotation matrix, as three row 3-tuples, or a
    scalar-first unit quaternion 4-tuple; its length selects the variant.
    ``p_hat``, ``v_hat`` and ``sigma_hat`` are 3-tuples.  A state holds what
    it is given: ``RunConfig`` gates the initial state, and every operation
    returns a new state, which :func:`update` and :func:`step` gate.
    """

    attitude: tuple
    p_hat: tuple
    v_hat: tuple
    sigma_hat: tuple

    @property
    def variant(self) -> str:
        return "matrix" if len(self.attitude) == 3 else "quaternion"

    def rotation(self) -> np.ndarray:
        """Attitude as a rotation matrix regardless of variant."""
        return np.array(_rows(self))


def _rows(state: FilterState):
    """Rows of the state's attitude as a rotation matrix, as Python floats.

    Not cached on the state: a run keeps every state it returns, and the
    rows would add about 0.5 kB to each.
    """
    att = state.attitude
    return att if len(att) == 3 else _quat_rot_rows(*att)


def _gate(state: FilterState) -> FilterState:
    """Reject a state whose attitude left the group or whose values are not finite."""
    att = state.attitude
    if len(att) == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = att
        # Frobenius norm of A^T A - I from the Gram entries of A's columns
        g00, g11, g22 = a0 * a0 + b0 * b0 + c0 * c0, a1 * a1 + b1 * b1 + c1 * c1, a2 * a2 + b2 * b2 + c2 * c2
        g01, g02, g12 = a0 * a1 + b0 * b1 + c0 * c1, a0 * a2 + b0 * b2 + c0 * c2, a1 * a2 + b1 * b2 + c1 * c2
        drift = math.sqrt(
            (g00 - 1.0) ** 2 + (g11 - 1.0) ** 2 + (g22 - 1.0) ** 2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)
        )
        if not drift <= ATTITUDE_GATE:
            raise ValueError(f"attitude is not orthonormal (drift {drift:.2e})")
    else:
        w, x, y, z = att
        if not abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= ATTITUDE_GATE:
            raise ValueError("quaternion attitude is not unit norm")
    if not all(map(math.isfinite, state.p_hat + state.v_hat + state.sigma_hat)):
        raise ValueError("state must be finite")
    return state


@dataclass(slots=True)
class CorrectionTerms:
    """One evaluation of the correction and adaptation block, as float tuples (see :func:`correction_terms`).

    ``e_r`` is the quarter-trace attitude residual, ``d_v_diag`` the
    diagonal of ``d_v`` and ``w_a`` the velocity correction with gravity not
    folded in.
    """

    e_r: float
    d_v_diag: tuple
    w_omega: tuple
    w_v: tuple
    w_a: tuple
    sigma_dot: tuple


@dataclass(slots=True)
class Diagnostics:
    """Per-step observability, as :func:`step_with_fix` and :func:`step` build it.

    ``e_r`` is the quarter-trace attitude residual and ``innovation_norm``
    the distance of the fix from the prior position (both NaN on a
    dropout) and ``dropout_reason`` the exception name and message of a
    dropout.
    """

    e_r: float
    innovation_norm: float
    dropout: bool
    dropout_reason: str


def _product(a, b) -> tuple:
    """Rows of the 3x3 product ``a b`` of two matrices given as float rows."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21, a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21, a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21, a20 * b02 + a21 * b12 + a22 * b22))


def correction_terms(
    state: FilterState, triads: TriadSet, p_y: tuple[float, float, float], gains: FilterGains, rows: tuple | None = None
) -> CorrectionTerms:
    """Covariance adaptation and correction factors from one measurement set.

    Computes, with ``v_hat_i = R_hat^T r_i`` and the confidence weights
    ``s_i`` of ``gains`` (``FilterGains.s``):

    - ``e_r``: quarter-trace attitude residual
      ``(1/4) Tr sum s_i (r_i r_i^T - R_hat v_hat_i v_i^T R_hat^T)``,
      nonnegative and zero only at alignment;
    - ``d_v``: diagonal matrix of the weighted cross sum
      ``sum s_i v_i x v_hat_i``, returned as its diagonal ``d_v_diag``;
    - ``sigma_dot``: adaptation law
      ``gamma_sigma (e_r+2)/8 exp(e_r) d_v (sum s_i v_i x v_hat_i)
      - k_sigma gamma_sigma sigma_hat``;
    - ``w_omega``: attitude correction
      ``-(k1/2) R_hat (sum s_i v_i x v_hat_i)
      - (1/8)(e_r+2)/(e_r+1) R_hat d_v sigma_hat``;
    - ``w_v``: ``-(kv/epsilon)(p_y - p_hat) - skew(w_omega) p_hat``;
    - ``w_a``: ``-ka (p_y - p_hat) - skew(w_omega) v_hat``.

    Gravity is NOT folded into ``w_a`` here; the discrete step does that
    when it assembles the update exponential.  ``rows``, the attitude's rotation rows, defaults to ``_rows(state)``.
    """
    r_hat = _rows(state) if rows is None else rows
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r_hat
    (s0, s1, s2), (ref, r_sq) = gains.s, triads.reference
    (v00, v01, v02), (v10, v11, v12), (v20, v21, v22) = triads.v
    # the rows of h = (r R_hat) are v_hat_i = R_hat^T r_i, so m = h^T (s v)
    # = sum s_i v_hat_i v_i^T, vex(m - m^T) = sum s_i v_i x v_hat_i, and the
    # subtracted trace Tr(R_hat m R_hat^T) is the inner product <R_hat m, R_hat>
    # (h, m and R_hat m written out in _product's operation order; v rebound to s v)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = ref
    h00, h01, h02, h10, h11, h12, h20, h21, h22 = (
        a00 * r00 + a01 * r10 + a02 * r20, a00 * r01 + a01 * r11 + a02 * r21, a00 * r02 + a01 * r12 + a02 * r22,
        a10 * r00 + a11 * r10 + a12 * r20, a10 * r01 + a11 * r11 + a12 * r21, a10 * r02 + a11 * r12 + a12 * r22,
        a20 * r00 + a21 * r10 + a22 * r20, a20 * r01 + a21 * r11 + a22 * r21, a20 * r02 + a21 * r12 + a22 * r22)
    v00, v01, v02, v10, v11, v12 = s0 * v00, s0 * v01, s0 * v02, s1 * v10, s1 * v11, s1 * v12
    v20, v21, v22 = s2 * v20, s2 * v21, s2 * v22
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = (
        h00 * v00 + h10 * v10 + h20 * v20, h00 * v01 + h10 * v11 + h20 * v21, h00 * v02 + h10 * v12 + h20 * v22,
        h01 * v00 + h11 * v10 + h21 * v20, h01 * v01 + h11 * v11 + h21 * v21, h01 * v02 + h11 * v12 + h21 * v22,
        h02 * v00 + h12 * v10 + h22 * v20, h02 * v01 + h12 * v11 + h22 * v21, h02 * v02 + h12 * v12 + h22 * v22)
    c0, c1, c2 = m21 - m12, m02 - m20, m10 - m01
    trace = ((r00 * m00 + r01 * m10 + r02 * m20) * r00 + (r00 * m01 + r01 * m11 + r02 * m21) * r01
             + (r00 * m02 + r01 * m12 + r02 * m22) * r02 + (r10 * m00 + r11 * m10 + r12 * m20) * r10
             + (r10 * m01 + r11 * m11 + r12 * m21) * r11 + (r10 * m02 + r11 * m12 + r12 * m22) * r12
             + (r20 * m00 + r21 * m10 + r22 * m20) * r20 + (r20 * m01 + r21 * m11 + r22 * m21) * r21
             + (r20 * m02 + r21 * m12 + r22 * m22) * r22)
    e_r = 0.25 * ((s0 * r_sq[0] + s1 * r_sq[1] + s2 * r_sq[2]) - trace)

    g = gains
    sg0, sg1, sg2 = state.sigma_hat
    k_cross, k_decay = g.gamma_sigma * (e_r + 2.0) / 8.0 * math.exp(e_r), g.k_sigma * g.gamma_sigma
    sigma_dot = (k_cross * (c0 * c0) - k_decay * sg0, k_cross * (c1 * c1) - k_decay * sg1,
                 k_cross * (c2 * c2) - k_decay * sg2)
    k_att, k_adapt = -(g.k1 / 2.0), 0.125 * (e_r + 2.0) / (e_r + 1.0)
    u0, u1, u2 = k_att * c0 - k_adapt * (c0 * sg0), k_att * c1 - k_adapt * (c1 * sg1), k_att * c2 - k_adapt * (c2 * sg2)
    w_omega = (r00 * u0 + r01 * u1 + r02 * u2, r10 * u0 + r11 * u1 + r12 * u2, r20 * u0 + r21 * u1 + r22 * u2)
    (o0, o1, o2), p_hat = p_y, state.p_hat
    i0, i1, i2 = o0 - p_hat[0], o1 - p_hat[1], o2 - p_hat[2]
    k_v, k_a = -(g.kv / g.epsilon), -g.ka
    (x0, x1, x2), (z0, z1, z2) = cross3(w_omega, p_hat), cross3(w_omega, state.v_hat)
    return CorrectionTerms(
        e_r, (c0, c1, c2), w_omega, (k_v * i0 - x0, k_v * i1 - x1, k_v * i2 - x2),
        (k_a * i0 - z0, k_a * i1 - z1, k_a * i2 - z2), sigma_dot,
    )


def predict(state: FilterState, imu: ImuSample, dt: float, rows: tuple | None = None) -> FilterState:
    """Right-translate the state by the exact IMU exponential.

    Block evaluation of ``X exp(u(skew(omega_m), 0, a_m, 1) dt)``: the
    attitude composes with the gyro rotation and the translation columns
    pick up the epsilon-coupled position increment.  The product's scalar
    coupling entry (dt in the bottom block) is not representable in the
    state; :func:`update` restores it before applying the left exponential
    so that a predict/update pair equals the full group product.  The
    result is a step's intermediate and is not gated; ``rows`` as in :func:`correction_terms`.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    omega = imu.omega_m
    rot, (tp0, tp1, tp2), (tv0, tv1, tv2) = se23_exp(omega, _ZERO3, imu.a_m, 1.0, dt)
    rows = _rows(state) if rows is None else rows
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    (p0, p1, p2), (v0, v1, v2) = state.p_hat, state.v_hat
    p_new = (p0 + v0 * dt + (r00 * tp0 + r01 * tp1 + r02 * tp2), p1 + v1 * dt + (r10 * tp0 + r11 * tp1 + r12 * tp2),
             p2 + v2 * dt + (r20 * tp0 + r21 * tp1 + r22 * tp2))
    v_new = (v0 + (r00 * tv0 + r01 * tv1 + r02 * tv2), v1 + (r10 * tv0 + r11 * tv1 + r12 * tv2),
             v2 + (r20 * tv0 + r21 * tv1 + r22 * tv2))
    if len(state.attitude) == 3:
        att = _product(rows, rot)
    else:
        att = quat_turn(state.attitude, omega, dt)
    return FilterState(att, p_new, v_new, state.sigma_hat)


def update(state: FilterState, w: CorrectionTerms, dt: float, g) -> FilterState:
    """Left-translate a predicted state by the correction exponential.

    Applies ``exp(-W dt)`` with ``W = u(skew(w_omega), w_v, w_a - g, 1)``
    to the predicted embedding, restoring the dt coupling entry the predict
    product carries in its bottom block (dropping it would shift the
    position column by O(dt^2) per step and bias the closed loop).  ``g``
    is the gravity vector (three floats) the discrete step folds into the
    acceleration correction.  ``sigma_hat`` advances by one explicit
    Euler step of ``w.sigma_dot``: ``sigma_hat (1 - k_sigma gamma_sigma dt)
    + dt k_cross c^2`` per component, with ``c = w.d_v_diag`` and
    ``k_cross = gamma_sigma (e_r + 2)/8 exp(e_r) > 0``, so a nonnegative
    ``sigma_hat`` stays nonnegative while ``k_sigma gamma_sigma dt < 1``
    (``RunConfig`` requires both).  The result passes the state gate
    (``ATTITUDE_GATE``, finite values).
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    w_omega = w.w_omega
    (a0, a1, a2), (g0, g1, g2) = w.w_a, g
    # exp(-W dt) is exp(W t) at t = -dt
    w_a = (a0 - g0, a1 - g1, a2 - g2)
    rot, (tp0, tp1, tp2), (tv0, tv1, tv2) = se23_exp(w_omega, w.w_v, w_a, 1.0, -dt)
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = rot
    (p0, p1, p2), (v0, v1, v2) = state.p_hat, state.v_hat
    p_new = (e00 * p0 + e01 * p1 + e02 * p2 + tp0 + dt * tv0, e10 * p0 + e11 * p1 + e12 * p2 + tp1 + dt * tv1,
             e20 * p0 + e21 * p1 + e22 * p2 + tp2 + dt * tv2)
    v_new = (e00 * v0 + e01 * v1 + e02 * v2 + tv0, e10 * v0 + e11 * v1 + e12 * v2 + tv1,
             e20 * v0 + e21 * v1 + e22 * v2 + tv2)
    att = state.attitude
    if len(att) == 3:
        att = _product(rot, att)
    else:
        att = quat_turn(att, w_omega, -dt, left=True)
    (sg0, sg1, sg2), (sd0, sd1, sd2) = state.sigma_hat, w.sigma_dot
    sigma_new = (sg0 + dt * sd0, sg1 + dt * sd1, sg2 + dt * sd2)
    return _gate(FilterState(att, p_new, v_new, sigma_new))


def step_with_fix(
    state: FilterState,
    imu: ImuSample,
    p_y: tuple[float, float, float],
    env: ReferenceEnvironment,
    gains: FilterGains,
    dt: float,
) -> tuple[FilterState, Diagnostics]:
    """One discrete filter iteration given an already-reconstructed fix.

    Order: build triads from the IMU sample, evaluate corrections at the
    pre-prediction state, predict, update with gravity folded into the
    acceleration correction (``update``'s ``g``), evaluating the attitude's
    rotation rows once for both.  Raises DegenerateTriads if the vector
    observations are unusable (callers with a dropout policy catch it).
    """
    triads = build_triads(imu.a_m, imu.m_m, env)
    rows = _rows(state)
    w = correction_terms(state, triads, p_y, gains, rows)
    new = update(predict(state, imu, dt, rows), w, dt, env._g)
    return new, Diagnostics(w.e_r, math.dist(p_y, state.p_hat), False, "")


def step(
    state: FilterState,
    imu: ImuSample,
    ranges: Ranges,
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
        return step_with_fix(state, imu, solve_fix(anchors, ranges), env, gains, dt)
    except (GeometryDegenerate, DegenerateTriads) as err:
        pred = _gate(predict(state, imu, dt))
        return pred, Diagnostics(_NAN, _NAN, True, f"{type(err).__name__}: {err}")
