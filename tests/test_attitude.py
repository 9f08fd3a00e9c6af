"""Tests for IMU measurement models and vector-triad construction."""

import math

import numpy as np
import pytest
from conftest import random_rotation
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbnav.attitude import (
    REFERENCE_LIMIT,
    EPS_DEGENERATE,
    DegenerateTriads,
    ReferenceEnvironment,
    build_triads,
    measure_imu,
)
from uwbnav.liegroup import skew, so3_exp
from uwbnav.navfilter import FilterGains

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



class TestWeightingMatrices:
    def test_reference_weighting_is_weighted_outer_sum(self):
        r = random_rotation(13)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        s = np.array([1.2, 0.9, 0.9])
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        m_r, m_b = weighting_matrices(triads, FilterGains(s=s))
        want_r = sum(si * np.outer(ri, ri) for si, ri in zip(s, triads.reference[0]))
        want_b = sum(si * np.outer(vi, vi) for si, vi in zip(s, triads.v))
        assert np.allclose(m_r, want_r, atol=1e-14)
        assert np.allclose(m_b, want_b, atol=1e-14)

    def test_comoment_positive_definite_for_noncollinear_triads(self):
        r = random_rotation(17)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        m_r, _ = weighting_matrices(triads, FilterGains())
        comoment = np.trace(m_r) * np.eye(3) - m_r
        assert np.all(np.linalg.eigvalsh(comoment) > 0.1)

    def test_unit_weights_give_unit_trace_rows(self):
        r = random_rotation(23)
        sample = imu_sample(r, np.zeros(3), np.zeros(3), ENV)
        m_r, m_b = weighting_matrices(build_triads(sample.a_m, sample.m_m, ENV), FilterGains())
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
        triads = build_triads(sample.a_m, sample.m_m, ENV)
        v_hat = (r_hat.T @ np.transpose(triads.reference[0])).T

        cross = np.zeros(3)
        for si, vi, vhi in zip(s, triads.v, v_hat):
            cross += si * np.cross(vi, vhi)

        m_r, _ = weighting_matrices(triads, FilterGains(s=s))
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

        gains = FilterGains()
        m_r, _ = weighting_matrices(triads, gains)
        r_tilde = r @ r_hat.T
        lhs = 0.25 * np.trace(m_r @ (np.eye(3) - r_tilde))

        acc = np.zeros((3, 3))
        for si, vi, vhi in zip(gains.s, triads.v, v_hat):
            acc += si * np.outer(vhi, vi)
        rhs = 0.25 * np.trace(m_r - r_hat @ acc @ r_hat.T)
        assert np.isclose(lhs, rhs, atol=1e-10)


def _direction(x, y, z, scale):
    """``(x, y, z)`` scaled by ``10**scale``."""
    k = 10.0 ** scale
    return x * k, y * k, z * k


def _near_collinear(axis, scale_a, scale_m, stretch):
    """Readings along ``axis`` and at an angle ``stretch * EPS_DEGENERATE`` from it, at two magnitudes."""
    u = np.array(axis) / math.hypot(*axis)
    w = np.cross(u, [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0])
    angle = stretch * EPS_DEGENERATE
    m = math.cos(angle) * u + math.sin(angle) * (w / np.linalg.norm(w))
    return _direction(*u.tolist(), scale_a), _direction(*m.tolist(), scale_m)


unit_range = st.floats(-1.0, 1.0)
scale = st.floats(-200.0, 200.0)
any_finite = st.floats(allow_nan=False, allow_infinity=False)
axis = st.tuples(unit_range, unit_range, unit_range).filter(lambda v: math.hypot(*v) > 0.1)
readings = st.one_of(
    st.tuples(st.builds(_direction, unit_range, unit_range, unit_range, scale),
              st.builds(_direction, unit_range, unit_range, unit_range, scale)),
    st.builds(_near_collinear, axis, scale, scale, st.floats(0.5, 4.0)),
    st.tuples(st.tuples(any_finite, any_finite, any_finite), st.tuples(any_finite, any_finite, any_finite)),
)


class TestTriadSetValidation:
    """What :func:`build_triads` returns for any finite readings: degenerate, or a unit, orthogonal triad."""

    @settings(max_examples=400, derandomize=True)
    @given(readings)
    def test_rows_are_unit_and_orthogonal_or_degenerate(self, pair):
        a_m, m_m = pair
        try:
            triads = build_triads(a_m, m_m, ENV)
        except DegenerateTriads:
            return
        # unit rows, the third orthogonal to the first two
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = triads.v
        assert all(abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-9 for x, y, z in triads.v), triads.v
        assert abs(x3 * x1 + y3 * y1 + z3 * z1) <= 1e-9 and abs(x3 * x2 + y3 * y2 + z3 * z2) <= 1e-9, triads.v

    @pytest.mark.parametrize("a_m,m_m", [((1e200, 1.0, 0.0), (0.0, 1.0, 0.0)), ((0.0, 0.0, 1.0), (1e300, 1e300, 0.0))])
    def test_overflowing_norm_ends_in_the_cross_product(self, a_m, m_m):
        # the overflowing row normalizes to zero, so its cross product has zero norm
        with pytest.raises(DegenerateTriads, match="measured cross product has near-zero norm"):
            build_triads(a_m, m_m, ENV)
