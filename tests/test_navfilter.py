"""Tests for the discrete and continuous navigation filter."""

import math

import numpy as np
import pytest
from conftest import noisy_imu_and_fixes, random_rotation
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import (
    closed_loop_rhs,
    correction_eval,
    corrections,
    imu_sample,
    imu_of,
    nav_matrix,
    propagate_truth,
    rk4_closed_loop_step,
    state_arrays,
    state_of,
    tangent_matrix,
    tdoa_ranges,
    toa_ranges,
)
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from uwbnav.attitude import ReferenceEnvironment, build_triads
from uwbnav.harness import _collector_paused
from uwbnav.liegroup import (
    attitude_distance,
    quat_to_rot,
    rot_to_quat,
    so3_exp,
)
from uwbnav.navfilter import (
    ATTITUDE_GATE,
    Diagnostics,
    FilterGains,
    _gate,
    correction_terms,
    predict,
    step,
    step_with_fix,
    update,
)
from uwbnav.sim import NoiseSpec, generate_trajectory
from uwbnav.uwb import AnchorSet

ENV = ReferenceEnvironment()
G = ENV.g_vec
GAINS = FilterGains()

BOX = AnchorSet(
    anchors=np.array(
        [[x, y, z] for x in (-4.0, 4.0) for y in (-4.0, 4.0) for z in (0.5, 3.0)]
    )
)


def imu_at(traj, i, noise=None, rng=None):
    vdot = traj.rot[i] @ traj.a[i] + G
    return imu_sample(traj.rot[i], traj.omega[i], vdot, ENV, noise=noise, rng=rng)


def state_at(traj, i, sigma=None, variant="matrix"):
    att = traj.rot[i] if variant == "matrix" else rot_to_quat(traj.rot[i])
    return state_of(att, traj.p[i], traj.v[i], np.zeros(3) if sigma is None else sigma)


def zero_corrections(**fields):
    zero = {"e_r": 0.0, "d_v_diag": np.zeros(3), "w_omega": np.zeros(3), "w_v": np.zeros(3), "w_a": np.zeros(3),
            "sigma_dot": np.zeros(3)}
    return corrections(**{**zero, **fields})


class TestFilterGains:
    def test_defaults_are_working_set(self):
        assert (GAINS.k1, GAINS.kv, GAINS.ka) == (3.0, 3.0, 70.0)
        assert (GAINS.gamma_sigma, GAINS.epsilon, GAINS.k_sigma) == (0.1, 0.5, 0.1)

    @pytest.mark.parametrize("name", ["k1", "kv", "ka", "gamma_sigma", "epsilon", "k_sigma"])
    def test_positivity_enforced(self, name):
        with pytest.raises(ValueError):
            FilterGains(**{name: 0.0})

    def test_weights_must_sum_to_three(self):
        with pytest.raises(ValueError, match="s must be 3 nonnegative weights summing to 3"):
            FilterGains(s=np.array([1.0, 1.0, 2.0]))

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError):
            FilterGains(s=np.array([np.nan, 1.0, 1.0]))

    @pytest.mark.parametrize("s", [[1.0, 1.0, 1.5], [1.0, 1.0], [[1.0, 1.0, 1.0]], "abc", [3.5, 0.0, -0.5]])
    def test_rejects_bad_weights(self, s):
        with pytest.raises(ValueError, match="s must be 3 nonnegative weights summing to 3"):
            FilterGains(s=s)

    def test_custom_weights_recorded(self):
        gains = FilterGains(s=np.array([1.5, 1.0, 0.5]))
        assert gains.s == (1.5, 1.0, 0.5) and all(type(x) is float for x in gains.s)

    def test_gains_compare_by_value(self):
        # once a ValueError: the weights were an ndarray field
        assert FilterGains() == FilterGains(s=[1, 1, 1])
        assert FilterGains() != FilterGains(s=(1.5, 1.0, 0.5))


class TestStateGate:
    """The state gate: ``RunConfig`` runs it on the initial state, ``update`` and ``step`` on the states they return."""

    def test_variant_dispatch(self):
        m = state_of(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3))
        q = state_of(np.array([1.0, 0, 0, 0]), np.zeros(3), np.zeros(3), np.zeros(3))
        assert m.variant == "matrix"
        assert q.variant == "quaternion"
        assert np.allclose(q.rotation(), np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            _gate(state_of(np.eye(3) * 1.1, np.zeros(3), np.zeros(3), np.zeros(3)))

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(ValueError, match="not unit norm"):
            _gate(state_of(np.array([1.0, 0, 0, 0.1]), np.zeros(3), np.zeros(3), np.zeros(3)))

    @pytest.mark.parametrize("attitude", [np.full((3, 3), np.nan), np.full(4, np.nan)])
    def test_rejects_nan_attitude(self, attitude):
        with pytest.raises(ValueError):
            _gate(state_of(attitude, np.zeros(3), np.zeros(3), np.zeros(3)))

    @pytest.mark.parametrize("name", ["p_hat", "v_hat", "sigma_hat"])
    def test_rejects_nan_vector(self, name):
        vecs = {"p_hat": np.zeros(3), "v_hat": np.zeros(3), "sigma_hat": np.zeros(3)}
        vecs[name] = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="state must be finite"):
            _gate(state_of(np.eye(3), **vecs))

    def test_update_gates_its_result(self):
        # zero corrections leave the attitude as it is, off the group
        state = state_of(np.eye(3) * 1.1, np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="not orthonormal"):
            update(state, zero_corrections(), 0.01, (0.0, 0.0, 0.0))


class TestCorrectionTerms:
    def test_zero_error_fixed_point(self, rng):
        r = random_rotation(rng)
        traj_state = state_of(r, np.array([1.0, -2.0, 0.5]), rng.normal(size=3), np.zeros(3))
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        w = correction_terms(traj_state, triads, traj_state.p_hat, GAINS)
        assert abs(w.e_r) < 1e-14
        assert np.allclose(w.w_omega, 0.0, atol=1e-14)
        assert np.allclose(w.w_v, 0.0, atol=1e-13)
        assert np.allclose(w.w_a, 0.0, atol=1e-13)
        assert np.allclose(w.d_v_diag, 0.0, atol=1e-14)

    def test_expression_oracle(self, rng):
        """Every output line matches an independent elementwise evaluation."""
        for trial in range(50):
            r = random_rotation(rng)
            r_hat = random_rotation(rng)
            p_hat, v_hat = rng.normal(size=3), rng.normal(size=3)
            sigma_hat = rng.normal(size=3)
            p_y = rng.normal(size=3)
            sample = imu_sample(r, np.zeros(3), rng.normal(size=3), ENV)
            state = state_of(r_hat, p_hat, v_hat, sigma_hat)
            triads = build_triads(sample.a_m, sample.m_m, ENV)
            got = correction_terms(state, triads, p_y, GAINS)
            e_r, cross, sigma_dot, w_omega, w_v, w_a = correction_eval(
                r_hat, p_hat, v_hat, sigma_hat, sample.omega_m, sample.a_m, sample.m_m,
                p_y, ENV, GAINS,
            )
            assert abs(got.e_r - e_r) < 1e-12
            assert np.allclose(got.d_v_diag, cross, atol=1e-12)
            assert np.allclose(got.sigma_dot, sigma_dot, atol=1e-12)
            assert np.allclose(got.w_omega, w_omega, atol=1e-12)
            assert np.allclose(got.w_v, w_v, atol=1e-11)
            assert np.allclose(got.w_a, w_a, atol=1e-11)

    def test_weights_come_from_gains(self, rng):
        """Non-uniform weights in ``FilterGains`` reach ``e_r`` and ``d_v`` and match the elementwise oracle."""
        weighted = FilterGains(s=(1.5, 1.0, 0.5))
        r, r_hat = random_rotation(rng), random_rotation(rng)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        state = state_of(r_hat, np.zeros(3), np.zeros(3), np.zeros(3))
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        got = correction_terms(state, triads, np.zeros(3), weighted)
        uniform = correction_terms(state, triads, np.zeros(3), GAINS)
        e_r, cross, *_ = correction_eval(
            r_hat, np.zeros(3), np.zeros(3), np.zeros(3), sample.omega_m, sample.a_m, sample.m_m,
            np.zeros(3), ENV, weighted,
        )
        assert abs(got.e_r - e_r) < 1e-12 and np.allclose(got.d_v_diag, cross, atol=1e-12)
        assert abs(got.e_r - uniform.e_r) > 1e-6
        assert not np.allclose(got.d_v_diag, uniform.d_v_diag, atol=1e-6)

    def test_sigma_decays_without_triad_error(self, rng):
        r = random_rotation(rng)
        sigma = np.array([0.4, -0.2, 1.1])
        state = state_of(r, np.zeros(3), np.zeros(3), sigma)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        w = correction_terms(state, triads, np.zeros(3), GAINS)
        assert np.allclose(w.sigma_dot, -GAINS.k_sigma * GAINS.gamma_sigma * sigma, atol=1e-14)

    def test_residual_nonnegative_and_zero_only_at_alignment(self, rng):
        for _ in range(100):
            r = random_rotation(rng)
            r_hat = random_rotation(rng)
            sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
            triads = build_triads(sample.a_m, sample.m_m, ENV)
            state = state_of(r_hat, np.zeros(3), np.zeros(3), np.zeros(3))
            w = correction_terms(state, triads, np.zeros(3), GAINS)
            assert w.e_r > -1e-12
            misalignment = attitude_distance(r @ r_hat.T)
            if misalignment > 1e-3:
                assert w.e_r > 1e-6


class TestPredict:
    def test_zero_inputs_advance_position_only(self):
        state = state_of(np.eye(3), np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, -0.5]), np.zeros(3))
        imu = imu_of(omega_m=np.zeros(3), a_m=np.zeros(3), m_m=np.array([1.0, 0, 0]))
        out = predict(state, imu, 0.1)
        assert np.allclose(out.attitude, np.eye(3))
        assert np.allclose(out.p_hat, np.array(state.p_hat) + 0.1 * np.array(state.v_hat), atol=1e-15)
        assert np.allclose(out.v_hat, state.v_hat)

    def test_pure_rotation_quarter_turn(self, rng):
        r0 = random_rotation(rng)
        state = state_of(r0, np.zeros(3), np.zeros(3), np.zeros(3))
        imu = imu_of(omega_m=np.array([0.0, 0.0, 1.0]), a_m=np.zeros(3), m_m=np.ones(3))
        out = predict(state, imu, np.pi / 2)
        assert np.allclose(out.attitude, r0 @ so3_exp(np.array([0, 0, np.pi / 2])), atol=1e-14)

    def test_matches_matrix_exponential_oracle(self, rng):
        for _ in range(30):
            r0 = random_rotation(rng)
            state = state_of(r0, rng.normal(size=3), rng.normal(size=3), np.zeros(3))
            imu = imu_of(omega_m=rng.normal(size=3), a_m=rng.normal(size=3), m_m=np.ones(3))
            dt = 0.05
            out = predict(state, imu, dt)
            u = tangent_matrix(imu.omega_m, np.zeros(3), imu.a_m, 1.0)
            full = nav_matrix(r0, state.p_hat, state.v_hat) @ expm(u * dt)
            assert np.allclose(out.attitude, full[:3, :3], atol=1e-13)
            assert np.allclose(out.p_hat, full[:3, 3], atol=1e-13)
            assert np.allclose(out.v_hat, full[:3, 4], atol=1e-13)

    def test_quaternion_variant_matches_matrix(self, rng):
        r0 = random_rotation(rng)
        p, v = rng.normal(size=3), rng.normal(size=3)
        imu = imu_of(omega_m=rng.normal(size=3), a_m=rng.normal(size=3), m_m=np.ones(3))
        m_out = predict(state_of(r0, p, v, np.zeros(3)), imu, 0.02)
        q_out = predict(state_of(rot_to_quat(r0), p, v, np.zeros(3)), imu, 0.02)
        assert np.allclose(q_out.rotation(), m_out.attitude, atol=1e-13)
        assert np.allclose(q_out.p_hat, m_out.p_hat, atol=1e-14)
        assert np.allclose(q_out.v_hat, m_out.v_hat, atol=1e-14)

    def test_rejects_nonpositive_dt(self):
        state = state_of(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3))
        imu = imu_of(omega_m=np.zeros(3), a_m=np.zeros(3), m_m=np.ones(3))
        with pytest.raises(ValueError):
            predict(state, imu, 0.0)


class TestUpdate:
    def test_zero_corrections_touch_only_sigma(self, rng):
        r0 = random_rotation(rng)
        state = state_of(r0, rng.normal(size=3), rng.normal(size=3), np.array([1.0, 2.0, 3.0]))
        w = zero_corrections(sigma_dot=np.array([0.1, 0.0, -0.1]))
        out = update(state, w, 0.01, (0.0, 0.0, 0.0))
        assert np.array_equal(out.attitude, state.attitude) or np.allclose(out.attitude, state.attitude, atol=1e-15)
        assert np.allclose(out.p_hat, state.p_hat, atol=1e-15)
        assert np.allclose(out.v_hat, state.v_hat, atol=1e-15)
        assert np.allclose(out.sigma_hat, state.sigma_hat + 0.01 * np.array(w.sigma_dot))

    def test_gravity_argument_equals_folded_corrections(self, rng):
        # update subtracts g from w_a on floats: the same IEEE operation as
        # folding it into a copy of the corrections
        for attitude in (random_rotation(rng), rot_to_quat(random_rotation(rng))):
            state = state_of(attitude, rng.normal(size=3), rng.normal(size=3), np.abs(rng.normal(size=3)))
            w = corrections(
                e_r=0.3, d_v_diag=rng.normal(size=3), w_omega=rng.normal(size=3), w_v=rng.normal(size=3),
                w_a=rng.normal(size=3), sigma_dot=rng.normal(size=3),
            )
            got = update(state, w, 0.01, G.tolist())
            folded = corrections(
                e_r=w.e_r, d_v_diag=w.d_v_diag, w_omega=w.w_omega, w_v=w.w_v, w_a=w.w_a - G, sigma_dot=w.sigma_dot
            )
            want = update(state, folded, 0.01, (0.0, 0.0, 0.0))
            for field in ("attitude", "p_hat", "v_hat", "sigma_hat"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_predict_update_pair_matches_full_group_product(self, rng):
        """The pair equals expm(-W dt) @ (X expm(U dt)) including the
        scalar coupling entry the intermediate state cannot carry."""
        for _ in range(30):
            r0 = random_rotation(rng)
            state = state_of(r0, rng.normal(size=3), rng.normal(size=3), np.zeros(3))
            imu = imu_of(omega_m=rng.normal(size=3), a_m=rng.normal(size=3), m_m=np.ones(3))
            w = corrections(
                e_r=0.3,
                d_v_diag=rng.normal(size=3),
                w_omega=rng.normal(size=3),
                w_v=rng.normal(size=3),
                w_a=rng.normal(size=3),
                sigma_dot=np.zeros(3),
            )
            dt = 0.01
            got = update(predict(state, imu, dt), w, dt, (0.0, 0.0, 0.0))
            u = tangent_matrix(imu.omega_m, np.zeros(3), imu.a_m, 1.0)
            wm = tangent_matrix(w.w_omega, w.w_v, w.w_a, 1.0)
            full = expm(-wm * dt) @ nav_matrix(r0, state.p_hat, state.v_hat) @ expm(u * dt)
            assert np.allclose(got.attitude, full[:3, :3], atol=1e-13)
            assert np.allclose(got.p_hat, full[:3, 3], atol=1e-13)
            assert np.allclose(got.v_hat, full[:3, 4], atol=1e-13)

    def test_fixed_point_reproduces_truth_propagation(self):
        # A spinning hover keeps the accelerometer aligned with gravity
        # (zero linear acceleration), so the triad corrections vanish
        # identically and the pair must equal the exact truth flow.
        r, p = so3_exp(np.array([0.0, 0.0, 0.7])), np.array([1.0, -2.0, 1.5])
        omega = np.array([0.0, 0.0, 0.5])
        body_a = r.T @ (-G)
        imu = imu_sample(r, omega, np.zeros(3), ENV)
        state = state_of(r, p, np.zeros(3), np.zeros(3))
        triads = build_triads(imu.a_m, imu.m_m, ENV)
        w = correction_terms(state, triads, p, GAINS)
        dt = 0.01
        out = update(predict(state, imu, dt), w, dt, G.tolist())
        r_next, p_next, v_next = propagate_truth(r, p, np.zeros(3), omega, body_a, ENV, dt)
        assert np.linalg.norm(out.p_hat - p_next) < 1e-9
        assert np.linalg.norm(out.v_hat - v_next) < 1e-9
        assert attitude_distance(out.attitude @ r_next.T) < 1e-18


class TestStepWithFix:
    def test_equilibrium_holds_over_many_steps(self):
        traj = generate_trajectory("hover", {"p0": [1.0, -1.0, 2.0], "duration": 100.0, "rate": 100.0})
        state = state_at(traj, 0)
        worst = 0.0
        for i in range(10_000):
            imu = imu_at(traj, i)
            state, _ = step_with_fix(state, imu, traj.p[i], ENV, GAINS, traj.dt)
            worst = max(
                worst,
                float(np.linalg.norm(state.p_hat - traj.p[i + 1])),
                float(np.linalg.norm(state.v_hat - traj.v[i + 1])),
                float(attitude_distance(state.attitude @ traj.rot[i + 1].T)),
            )
        assert worst < 1e-6

    def test_sigma_geometric_decay_at_equilibrium(self):
        traj = generate_trajectory("hover", {"duration": 2.0, "rate": 100.0})
        sigma0 = np.array([1.0, 0.5, 2.0])
        state = state_at(traj, 0, sigma=sigma0)
        n = 100
        for i in range(n):
            state, _ = step_with_fix(state, imu_at(traj, i), traj.p[i], ENV, GAINS, traj.dt)
        ratio = 1.0 - traj.dt * GAINS.k_sigma * GAINS.gamma_sigma
        assert np.allclose(state.sigma_hat, sigma0 * ratio**n, rtol=1e-12)

    def test_converges_from_offset_initialization(self):
        traj = generate_trajectory("circle", {"duration": 30.0, "rate": 100.0})
        state = state_of(
            so3_exp(np.array([0.0, 0.0, 0.6])),
            traj.p[0] + np.array([-2.0, -3.0, 0.0]),
            np.zeros(3),
            np.zeros(3),
        )
        for i in range(len(traj) - 1):
            state, _ = step_with_fix(state, imu_at(traj, i), traj.p[i], ENV, GAINS, traj.dt)
        # Steady-state floors are systematic: the accelerometer triad reads
        # gravity plus centripetal acceleration, tilting the attitude fix.
        i = len(traj) - 1
        assert np.linalg.norm(state.p_hat - traj.p[i]) < 0.03
        assert np.linalg.norm(state.v_hat - traj.v[i]) < 0.1
        assert attitude_distance(state.attitude @ traj.rot[i].T) < 3e-3


class TestStep:
    def test_full_step_with_exact_toa_tracks_truth(self):
        traj = generate_trajectory("circle", {"duration": 5.0, "rate": 100.0})
        state = state_at(traj, 0)
        for i in range(len(traj) - 1):
            ranges = toa_ranges(traj.p[i], BOX)
            state, diag = step(state, imu_at(traj, i), ranges, BOX, ENV, GAINS, traj.dt)
            assert not diag.dropout
        i = len(traj) - 1
        assert np.linalg.norm(state.p_hat - traj.p[i]) < 0.03

    def test_ring_tdoa_matches_direct_fix_feed(self):
        traj = generate_trajectory("circle", {"duration": 2.0, "rate": 100.0})
        s1 = state_at(traj, 0)
        s2 = state_at(traj, 0)
        for i in range(200):
            imu = imu_at(traj, i)
            ranges = tdoa_ranges(traj.p[i], BOX, "tdoa-ring")
            s1, _ = step(s1, imu, ranges, BOX, ENV, GAINS, traj.dt)
            s2, _ = step_with_fix(s2, imu, traj.p[i], ENV, GAINS, traj.dt)
        assert math.dist(s1.p_hat, s2.p_hat) < 1e-6
        assert math.dist(s1.v_hat, s2.v_hat) < 1e-6

    def test_degenerate_geometry_becomes_predict_only_dropout(self):
        traj = generate_trajectory("hover", {"duration": 1.0, "rate": 100.0})
        few = AnchorSet(anchors=BOX.anchors[:3])
        state = state_at(traj, 0)
        imu = imu_at(traj, 0)
        ranges = toa_ranges(traj.p[0], few)
        out, diag = step(state, imu, ranges, few, ENV, GAINS, traj.dt)
        assert diag.dropout
        assert "GeometryDegenerate" in diag.dropout_reason
        direct = predict(state, imu, traj.dt)
        assert np.allclose(out.p_hat, direct.p_hat)
        assert np.allclose(out.attitude, direct.attitude)
        assert np.array_equal(out.sigma_hat, state.sigma_hat)

    def test_degenerate_triads_become_predict_only_dropout(self):
        traj = generate_trajectory("hover", {"duration": 1.0, "rate": 100.0})
        state = state_at(traj, 0)
        bad = imu_of(
            omega_m=np.zeros(3),
            a_m=np.array([0.0, 0.0, -9.81]),
            m_m=np.array([0.0, 0.0, 1.0]),
        )
        ranges = toa_ranges(traj.p[0], BOX)
        out, diag = step(state, bad, ranges, BOX, ENV, GAINS, traj.dt)
        assert diag.dropout
        assert "DegenerateTriads" in diag.dropout_reason

    @pytest.mark.parametrize("variant", ["matrix", "quaternion"])
    def test_overflowing_gyro_raises_instead_of_returning_nan(self, variant):
        # a finite but absurd rate overflows the exponential blocks; the
        # output gate must refuse the non-finite state
        traj = generate_trajectory("hover", {"duration": 1.0, "rate": 100.0})
        state = state_at(traj, 0, variant=variant)
        sample = imu_at(traj, 0)
        imu = imu_of(omega_m=np.array([1e300, 0.0, 0.0]), a_m=sample.a_m, m_m=sample.m_m)
        ranges = toa_ranges(traj.p[0], BOX)
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            step(state, imu, ranges, BOX, ENV, GAINS, traj.dt)

    def test_variants_agree_closely(self):
        traj = generate_trajectory("circle", {"duration": 2.0, "rate": 100.0})
        m = state_of(np.eye(3), traj.p[0] + [0.5, -0.5, 0.2], np.zeros(3), np.zeros(3))
        q = state_of(np.array([1.0, 0, 0, 0]), m.p_hat, np.zeros(3), np.zeros(3))
        for i in range(200):
            imu = imu_at(traj, i)
            ranges = tdoa_ranges(traj.p[i], BOX, "tdoa-ring")
            m, _ = step(m, imu, ranges, BOX, ENV, GAINS, traj.dt)
            q, _ = step(q, imu, ranges, BOX, ENV, GAINS, traj.dt)
        assert np.linalg.norm(q.rotation() - m.attitude) < 1e-11
        assert math.dist(q.p_hat, m.p_hat) < 1e-11
        assert math.dist(q.v_hat, m.v_hat) < 1e-11

    def test_group_invariants_survive_noisy_steps(self):
        traj = generate_trajectory("circle", {"duration": 20.0, "rate": 100.0})
        noise = NoiseSpec(seed=7)
        rng = noise.stream()
        m = state_at(traj, 0)
        q = state_at(traj, 0, variant="quaternion")
        for i in range(2000):
            imu = imu_at(traj, i, noise=noise, rng=rng)
            p_y = traj.p[i] + rng.normal(0.0, noise.sigma_range, 3)
            m, _ = step_with_fix(m, imu, p_y, ENV, GAINS, traj.dt)
            q, _ = step_with_fix(q, imu, p_y, ENV, GAINS, traj.dt)
        att = np.array(m.attitude)
        assert np.linalg.norm(att.T @ att - np.eye(3)) < 1e-12
        assert abs(np.linalg.norm(q.attitude) - 1.0) < 1e-14


def _oracle_tangent(omega, v, a):
    """5x5 tangent matrix u(skew(omega), v, a, 1), written out independently."""
    m = np.zeros((5, 5))
    m[:3, :3] = [[0.0, -omega[2], omega[1]], [omega[2], 0.0, -omega[0]], [-omega[1], omega[0], 0.0]]
    m[:3, 3], m[:3, 4], m[4, 3] = v, a, 1.0
    return m


def _oracle_rotation(attitude):
    attitude = np.array(attitude)
    if attitude.shape == (3, 3):
        return attitude
    return Rotation.from_quat(np.roll(attitude, -1)).as_matrix()


class TestKernelAgainstExpmOracle:
    """Each state the kernel produced, stepped once by an oracle that shares
    no code with it: the straight-line correction block of reference.py and
    scipy's expm of the 5x5 tangent matrices, exp(-W dt) X exp(U dt)."""

    @pytest.mark.parametrize("variant", ["matrix", "quaternion"])
    def test_noisy_steps_match_one_step_oracle(self, variant):
        traj = generate_trajectory("circle", {"duration": 6.0, "rate": 100.0})
        dt = traj.dt
        noise = NoiseSpec(seed=23)
        rng = noise.stream()
        r0 = so3_exp(np.array([0.2, -0.1, 0.6]))
        state = state_of(
            r0 if variant == "matrix" else rot_to_quat(r0),
            traj.p[0] + np.array([-2.0, -3.0, 0.5]),
            np.zeros(3),
            np.array([0.3, -0.2, 0.1]),
        )
        worst = 0.0
        for i in range(550):
            imu = imu_at(traj, i, noise=noise, rng=rng)
            p_y = traj.p[i] + rng.normal(0.0, noise.sigma_range, 3)
            new, _ = step_with_fix(state, imu, p_y, ENV, GAINS, dt)

            attitude, p_hat, v_hat, sigma_hat = state_arrays(state)
            omega_m, a_m, m_m = map(np.array, (imu.omega_m, imu.a_m, imu.m_m))
            r = _oracle_rotation(attitude)
            _, _, sigma_dot, w_omega, w_v, w_a = correction_eval(
                r, p_hat, v_hat, sigma_hat, omega_m, a_m, m_m, p_y, ENV, GAINS,
            )
            x = np.eye(5)
            x[:3, :3], x[:3, 3], x[:3, 4] = r, p_hat, v_hat
            x_next = (
                expm(-_oracle_tangent(w_omega, w_v, w_a - G) * dt)
                @ x
                @ expm(_oracle_tangent(omega_m, np.zeros(3), a_m) * dt)
            )
            worst = max(
                worst,
                np.abs(_oracle_rotation(new.attitude) - x_next[:3, :3]).max(),
                np.abs(new.p_hat - x_next[:3, 3]).max(),
                np.abs(new.v_hat - x_next[:3, 4]).max(),
                np.abs(new.sigma_hat - (sigma_hat + dt * sigma_dot)).max(),
            )
            state = new
        assert worst <= 1e-10


_finite = st.floats(min_value=-1e200, max_value=1e200, allow_nan=False)


@given(
    variant=st.sampled_from(["matrix", "quaternion"]),
    topology=st.sampled_from(["toa", "tdoa-main", "tdoa-ring"]),
    rotvec=arrays(float, 3, elements=st.floats(-4.0, 4.0)),
    p_hat=arrays(float, 3, elements=_finite),
    v_hat=arrays(float, 3, elements=_finite),
    sigma_hat=arrays(float, 3, elements=_finite),
    imu=arrays(float, (3, 3), elements=_finite),
    tag=arrays(float, 3, elements=_finite),
    dt=st.floats(1e-4, 0.1),
)
def test_step_returns_a_finite_state_on_the_group_or_raises(
    variant, topology, rotvec, p_hat, v_hat, sigma_hat, imu, tag, dt
):
    rot = Rotation.from_rotvec(rotvec)
    attitude = rot.as_matrix() if variant == "matrix" else np.roll(rot.as_quat(), 1)
    with np.errstate(all="ignore"):
        state = state_of(attitude, p_hat, v_hat, sigma_hat)
        sample = imu_of(omega_m=imu[0], a_m=imu[1], m_m=imu[2])
        ranges = tdoa_ranges(tag, BOX, topology)
        if not np.isfinite(ranges.values).all():
            return  # the tag position overflows the ranges themselves, which the block check rejects
        try:
            new, _ = step(state, sample, ranges, BOX, ENV, GAINS, dt)
        except ValueError:
            return
    for vec in (new.p_hat, new.v_hat, new.sigma_hat, new.attitude):
        assert np.isfinite(vec).all()
    att = np.array(new.attitude)
    if variant == "matrix":
        assert np.linalg.norm(att.T @ att - np.eye(3)) <= ATTITUDE_GATE
    else:
        assert abs(np.linalg.norm(att) - 1.0) <= ATTITUDE_GATE


class TestContinuousRhs:
    """The continuous closed loop that criterion 7 integrates (``reference.closed_loop_rhs``)."""

    def test_hover_velocity_derivative_vanishes(self):
        r = so3_exp(np.array([0.0, 0.0, 0.4]))
        p, v = np.array([1.0, 1.0, 1.0]), np.array([0.2, 0.0, 0.0])
        # aligned triads and a fix at the estimate: every correction vanishes
        r_dot, p_dot, v_dot, _ = closed_loop_rhs(
            r, p, v, np.zeros(3), np.zeros(3), r.T @ (-G), r.T @ ENV.m_r, p, ENV, GAINS
        )
        assert np.allclose(v_dot, 0.0, atol=1e-14)
        assert np.allclose(p_dot, v)
        assert np.allclose(r_dot, 0.0)

    def test_flow_is_tangent_to_the_group(self, rng):
        for _ in range(20):
            r = random_rotation(rng)
            r_dot, _, _, _ = closed_loop_rhs(
                r, rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), rng.normal(size=3),
                rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), ENV, GAINS,
            )
            assert np.allclose(r_dot.T @ r + r.T @ r_dot, 0.0, atol=1e-12)


def _endpoint_gap(dt: float, horizon: float = 1.0) -> float:
    """Gap between the discrete filter and an RK4 reference on the same
    piecewise-constant measurement stream."""
    traj = generate_trajectory("lissajous", {"duration": horizon, "rate": 1.0 / dt})
    state = state_of(
        so3_exp(np.array([0.0, 0.0, 0.5])),
        traj.p[0] + np.array([-2.0, -3.0, 0.5]),
        np.zeros(3),
        np.zeros(3),
    )
    r, p, v, sigma = np.array(state.attitude), np.array(state.p_hat), np.array(state.v_hat), np.zeros(3)
    for i in range(len(traj) - 1):
        imu = imu_at(traj, i)
        state, _ = step_with_fix(state, imu, traj.p[i], ENV, GAINS, dt)
        r, p, v, sigma = rk4_closed_loop_step(
            r, p, v, sigma, imu.omega_m, imu.a_m, imu.m_m, traj.p[i], ENV, GAINS, dt
        )
    return float(
        np.linalg.norm(state.p_hat - p)
        + np.linalg.norm(state.v_hat - v)
        + np.linalg.norm(state.attitude - r)
    )


class TestDiscreteContinuousConsistency:
    def test_halving_dt_shrinks_the_gap(self):
        coarse = _endpoint_gap(0.02)
        fine = _endpoint_gap(0.01)
        assert coarse / fine >= 1.9


class TestBoundednessSurrogate:
    """Desk-scale proxy for mean-square ultimate boundedness: noisy runs
    settle into a bounded envelope instead of diverging."""

    TRAJECTORY = {"p0": [2.0, 0.0, 1.5], "radius": 2.0, "period": 10.0, "rate": 100.0}

    def test_block_draw_matches_per_sample_draw(self):
        traj = generate_trajectory("circle", {**self.TRAJECTORY, "duration": 3.0})
        n = len(traj) - 1
        noise = NoiseSpec(seed=7)
        imu, p_y = noisy_imu_and_fixes(traj, noise, ENV, n)
        rng = noise.stream()
        for i in range(n):
            want = imu_at(traj, i, noise=noise, rng=rng)
            for name in ("omega_m", "a_m", "m_m"):
                assert np.array_equal(getattr(imu[i], name), getattr(want, name)), (i, name)
            assert np.array_equal(p_y[i], traj.p[i] + rng.normal(0.0, noise.sigma_range, 3)), i

    def test_fifty_seeded_runs_stay_in_envelope(self):
        traj = generate_trajectory("circle", {**self.TRAJECTORY, "duration": 60.0})
        n = len(traj) - 1
        # kept states are acyclic (tests/test_collector.py), so the collector only rescans them
        with _collector_paused():
            for seed in range(50):
                imu, p_y = noisy_imu_and_fixes(traj, NoiseSpec(seed=seed), ENV, n)
                state = state_of(
                    np.eye(3),
                    traj.p[0] + np.array([-2.0, -3.0, 0.0]),
                    np.zeros(3),
                    np.zeros(3),
                )
                states = []
                for i in range(n):
                    state, _ = step_with_fix(state, imu[i], p_y[i], ENV, GAINS, traj.dt)
                    states.append(state)
                att = np.array([s.attitude for s in states])
                series = np.column_stack([
                    attitude_distance(att @ traj.rot[1:].transpose(0, 2, 1)),
                    np.linalg.norm(traj.p[1:] - np.array([s.p_hat for s in states]), axis=1),
                    np.linalg.norm(traj.v[1:] - np.array([s.v_hat for s in states]), axis=1),
                    np.linalg.norm(np.array([s.sigma_hat for s in states]), axis=1),
                ])
                tail = series[n // 2 :]
                peaks = tail.max(axis=0)
                medians = np.median(tail, axis=0)
                assert np.all(peaks <= 5.0 * medians), f"seed {seed}: {peaks} vs {medians}"
