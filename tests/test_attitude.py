"""Tests for IMU measurement models and vector-triad construction."""

import numpy as np
import pytest
from conftest import random_rotation
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbnav.attitude import (
    REFERENCE_LIMIT,
    DegenerateTriads,
    ReferenceEnvironment,
    _check_measured,
    _weights,
    build_triads,
    measure_imu,
)
from uwbnav.liegroup import skew, so3_exp

from reference import imu_sample, pa, vex, weighting_matrices

ENV = ReferenceEnvironment()


rotvec = st.builds(
    lambda x, y, z: np.array([x, y, z]),
    *[st.floats(-3.0, 3.0, allow_nan=False) for _ in range(3)],
)


class TestReferenceEnvironment:
    def test_defaults(self):
        assert np.allclose(ENV.g_vec, [0, 0, 9.81])
        assert np.allclose(ENV.m_r, [-1.3, 0, 1.5])

    def test_rejects_collinear_references(self):
        with pytest.raises(ValueError):
            ReferenceEnvironment(g_vec=np.array([0.0, 0.0, 9.81]), m_r=np.array([0.0, 0.0, 2.0]))

    def test_rejects_zero_field(self):
        with pytest.raises(ValueError):
            ReferenceEnvironment(m_r=np.zeros(3))

    @pytest.mark.parametrize("name", ["g_vec", "m_r"])
    def test_coordinates_bounded_so_squares_stay_finite(self, name):
        at_limit = ReferenceEnvironment(**{name: np.array([REFERENCE_LIMIT, 0.0, 1.0])})
        assert np.isfinite(at_limit._reference[1]).all()
        with pytest.raises(ValueError, match="must lie within 1e\\+150 of the origin"):
            ReferenceEnvironment(**{name: np.array([np.nextafter(REFERENCE_LIMIT, np.inf), 0.0, 1.0])})


class TestMeasureImu:
    def test_hover_accel_reads_minus_gravity(self):
        _, accel, _ = measure_imu(np.eye(3), np.zeros(3), np.zeros(3), ENV)
        assert np.allclose(accel, -ENV.g_vec, atol=1e-15)

    def test_magnetometer_is_body_frame_reference(self):
        r = random_rotation(7)
        _, _, mag = measure_imu(r, np.zeros(3), np.zeros(3), ENV)
        assert np.allclose(mag, r.T @ ENV.m_r, atol=1e-14)

    def test_gyro_passthrough(self):
        omega = np.array([0.1, -0.2, 0.3])
        gyro, _, _ = measure_imu(np.eye(3), omega, np.zeros(3), ENV)
        assert np.array_equal(gyro, omega)

    def test_accel_inverts_specific_force(self):
        r = random_rotation(11)
        vdot = np.array([0.4, -1.1, 0.25])
        _, accel, _ = measure_imu(r, np.zeros(3), vdot, ENV)
        assert np.allclose(r @ accel + ENV.g_vec, vdot, atol=1e-13)

    def test_noise_statistics(self):
        from uwbnav.sim import NoiseSpec

        spec = NoiseSpec(
            sigma_omega=np.full(3, 0.01), sigma_a=np.full(3, 0.05), sigma_m=0.2
        )
        rng = np.random.default_rng(99)
        n = 20000
        rot = np.broadcast_to(np.eye(3), (n, 3, 3))
        gyro, _, _ = measure_imu(
            rot, np.zeros((n, 3)), np.zeros((n, 3)), ENV, rng.standard_normal((n, 9)),
            (spec.sigma_omega, spec.sigma_a, spec.sigma_m),
        )
        assert np.allclose(gyro.std(axis=0), 0.01, rtol=0.05)
        assert np.allclose(gyro.mean(axis=0), 0.0, atol=4 * 0.01 / np.sqrt(n))


class TestBuildTriads:
    def test_zero_noise_triads_are_rotated_references(self):
        for seed in range(20):
            r = random_rotation(seed)
            sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
            triads = build_triads(sample.a_m, sample.m_m, ENV)
            for vi, ri in zip(triads.v, triads.reference[0]):
                assert np.allclose(vi, r.T @ ri, atol=1e-12)

    def test_rows_are_unit(self):
        r = random_rotation(5)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        assert np.allclose(np.linalg.norm(triads.v, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(triads.reference[0], axis=1), 1.0, atol=1e-12)
        assert np.allclose(triads.reference[1], 1.0, atol=1e-12)

    def test_parallel_observations_rejected(self):
        with pytest.raises(DegenerateTriads):
            build_triads(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 2.0]), ENV)

    def test_zero_observation_rejected(self):
        with pytest.raises(DegenerateTriads):
            build_triads(np.zeros(3), np.array([1.0, 0.0, 0.0]), ENV)

    def test_custom_weights_recorded(self):
        r = random_rotation(2)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        s = np.array([1.5, 1.0, 0.5])
        triads = build_triads(sample.a_m, sample.m_m, ENV, s=s)
        assert triads.s == tuple(s)

    def test_weights_must_sum_to_three(self):
        r = random_rotation(2)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        with pytest.raises(ValueError):
            build_triads(sample.a_m, sample.m_m, ENV, s=np.array([1.0, 1.0, 2.0]))


class TestWeightingMatrices:
    def test_reference_weighting_is_weighted_outer_sum(self):
        r = random_rotation(13)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        s = np.array([1.2, 0.9, 0.9])
        triads = build_triads(sample.a_m, sample.m_m, ENV, s=s)
        m_r, m_b = weighting_matrices(triads)
        want_r = sum(si * np.outer(ri, ri) for si, ri in zip(s, triads.reference[0]))
        want_b = sum(si * np.outer(vi, vi) for si, vi in zip(s, triads.v))
        assert np.allclose(m_r, want_r, atol=1e-14)
        assert np.allclose(m_b, want_b, atol=1e-14)

    def test_comoment_positive_definite_for_noncollinear_triads(self):
        r = random_rotation(17)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        m_r, _ = weighting_matrices(triads)
        comoment = np.trace(m_r) * np.eye(3) - m_r
        assert np.all(np.linalg.eigvalsh(comoment) > 0.1)

    def test_unit_weights_give_unit_trace_rows(self):
        r = random_rotation(23)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        m_r, m_b = weighting_matrices(build_triads(sample.a_m, sample.m_m, ENV))
        assert np.isclose(np.trace(m_r), 3.0, atol=1e-12)
        assert np.isclose(np.trace(m_b), 3.0, atol=1e-12)


class TestMeasurementIdentities:
    """Cross-term and trace identities linking triads to attitude error."""

    @settings(max_examples=150)
    @given(rotvec, rotvec, st.floats(0.1, 1.9))
    def test_cross_sum_equals_projected_error(self, rv_true, rv_hat, s0):
        r = so3_exp(rv_true)
        r_hat = so3_exp(rv_hat)
        s = np.array([s0, 1.0, 2.0 - s0])
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        triads = build_triads(sample.a_m, sample.m_m, ENV, s=s)
        v_hat = (r_hat.T @ np.transpose(triads.reference[0])).T

        cross = np.zeros(3)
        for si, vi, vhi in zip(s, triads.v, v_hat):
            cross += si * np.cross(vi, vhi)

        m_r, _ = weighting_matrices(triads)
        r_tilde = r @ r_hat.T
        lhs = vex(pa(m_r @ r_tilde))
        assert np.allclose(lhs, 0.5 * r_hat @ cross, atol=1e-10)

    @settings(max_examples=150)
    @given(rotvec, rotvec)
    def test_trace_residual_equals_weighted_distance(self, rv_true, rv_hat):
        r = so3_exp(rv_true)
        r_hat = so3_exp(rv_hat)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        v_hat = (r_hat.T @ np.transpose(triads.reference[0])).T

        m_r, _ = weighting_matrices(triads)
        r_tilde = r @ r_hat.T
        lhs = 0.25 * np.trace(m_r @ (np.eye(3) - r_tilde))

        acc = np.zeros((3, 3))
        for si, vi, vhi in zip(triads.s, triads.v, v_hat):
            acc += si * np.outer(vhi, vi)
        rhs = 0.25 * np.trace(m_r - r_hat @ acc @ r_hat.T)
        assert np.isclose(lhs, rhs, atol=1e-10)


class TestTriadSetValidation:
    """The checks :func:`build_triads` runs on the measured rows and the weights before it builds a TriadSet."""

    def test_rejects_nonunit_rows(self):
        v = np.eye(3)
        v[0] *= 2.0
        with pytest.raises(ValueError, match="measured triad rows must be unit vectors"):
            _check_measured(*v.tolist())

    def test_rejects_nan_rows(self):
        with pytest.raises(ValueError, match="measured triad rows must be unit vectors"):
            _check_measured(*np.full((3, 3), np.nan).tolist())

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="s must be 3 nonnegative weights summing to 3"):
            _weights(np.array([1.0, 1.0, 1.5]))

    def test_rejects_non_orthogonal_third_row(self):
        v = np.eye(3)
        v[2] = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        with pytest.raises(ValueError, match="third measured vector must be orthogonal to the first two"):
            _check_measured(*v.tolist())
