import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from uwbnav import liegroup as lg

from conftest import random_rotation
from reference import (
    NotAntisymmetric, pa, rot_to_quat_per_matrix, se23_matrix, so3_exp_per_vector, tangent_matrix, vex,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)
# signed zeros and angles past a half-turn per step, for the sign of a zero output
component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-400.0, 400.0))


def test_skew_layout():
    m = lg.skew([1.0, 2.0, 3.0])
    assert np.array_equal(m, np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]]))


@given(vec3, vec3)
def test_skew_matches_cross_product(v, y):
    assert np.allclose(lg.skew(v) @ y, np.cross(v, y), atol=1e-9)


@given(vec3)
def test_vex_inverts_skew(v):
    assert np.allclose(vex(lg.skew(v)), v)


def test_vex_rejects_symmetric_part(rng):
    m = rng.normal(size=(3, 3))
    m = m + m.T  # fully symmetric, far from antisymmetric
    with pytest.raises(NotAntisymmetric):
        vex(m)


@given(st.tuples(*[finite] * 9).map(lambda t: np.array(t).reshape(3, 3)))
def test_pa_is_antisymmetric_projection(m):
    p = pa(m)
    assert np.allclose(p, -p.T)
    assert np.allclose(pa(p), p)


def test_attitude_distance_analytic(rng):
    assert lg.attitude_distance(np.eye(3)) == 0.0
    half_turn = Rotation.from_rotvec([np.pi, 0, 0]).as_matrix()
    assert lg.attitude_distance(half_turn) == pytest.approx(1.0)
    for _ in range(20):
        angle = rng.uniform(0, np.pi)
        r = Rotation.from_rotvec(angle * np.array([0, 0, 1])).as_matrix()
        assert lg.attitude_distance(r) == pytest.approx((1 - np.cos(angle)) / 2)


def test_attitude_distance_frobenius_identity(rng):
    # tr(I - R)/4 == ||I - R||_F^2 / 8 on rotations
    for _ in range(50):
        r = random_rotation(rng)
        d = lg.attitude_distance(r)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(np.linalg.norm(np.eye(3) - r) ** 2 / 8, abs=1e-12)


class TestSo3Exp:
    def test_matches_expm_oracle(self, rng):
        for _ in range(200):
            w = rng.normal(size=3) * rng.uniform(0, 4)
            assert np.allclose(lg.so3_exp(w), expm(lg.skew(w)), atol=1e-12)

    def test_small_angle_branch(self):
        w = np.array([1e-12, -1e-12, 1e-12])
        r = lg.so3_exp(w)
        assert np.abs(r - (np.eye(3) + lg.skew(w))).max() <= 1e-20

    def test_zero_gives_identity(self):
        assert np.array_equal(lg.so3_exp(np.zeros(3)), np.eye(3))

    def test_stacked_matches_per_vector(self, rng):
        w = rng.normal(size=(400, 3)) * rng.uniform(0, 4, (400, 1))
        w[:50] *= 1e-8  # small-angle branch
        w[50] = 0.0
        expect = np.array([so3_exp_per_vector(x) for x in w])
        assert np.array_equal(lg.so3_exp(w), expect)
        assert np.array_equal(lg.so3_exp(w.reshape(4, 100, 3)), expect.reshape(4, 100, 3, 3))
        assert np.array_equal(lg.so3_exp(w[7]), expect[7])

    def test_quarter_turn_about_z(self):
        r = lg.so3_exp([0.0, 0.0, np.pi / 2])
        assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)

    @given(vec3)
    def test_output_is_rotation(self, w):
        r = lg.so3_exp(w)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0)


class TestSe23Exp:
    def test_matches_expm_oracle(self, rng):
        worst = 0.0
        for _ in range(300):
            u = (rng.normal(size=3) * 3, rng.normal(size=3) * 2, rng.normal(size=3) * 5, rng.normal())
            dt = rng.uniform(0, 0.6)
            gap = np.abs(se23_matrix(*u, dt) - expm(tangent_matrix(*u) * dt)).max()
            worst = max(worst, gap)
        assert worst < 1e-12

    def test_small_angle_matches_expm(self):
        u = ([1e-9, 0, -1e-9], [1, 2, 3], [4, 5, 6], 1.0)
        assert np.allclose(se23_matrix(*u, 1.0), expm(tangent_matrix(*u)), atol=1e-14)

    def test_zero_input_gives_identity(self):
        rot, t_p, t_v = lg.se23_exp((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0.37)
        assert rot == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert t_p == t_v == (0.0, 0.0, 0.0)

    def test_pure_translation_columns(self):
        rot, t_p, t_v = lg.se23_exp((0.0, 0.0, 0.0), (1.0, -2.0, 3.0), (0.5, 0.0, -0.5), 0.0, 0.25)
        assert np.allclose(rot, np.eye(3))
        assert np.allclose(t_p, np.array([1.0, -2.0, 3.0]) * 0.25)
        assert np.allclose(t_v, np.array([0.5, 0.0, -0.5]) * 0.25)

    def test_eps_couples_velocity_column(self):
        dt = 0.1
        _, t_p, _ = lg.se23_exp((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0, dt)
        # position column picks up eps * dt^2 * a / 2 when omega == 0
        assert np.allclose(t_p, [2.0 * dt * dt * 0.5, 0.0, 0.0])

    def test_returns_python_floats(self, rng):
        rot, t_p, t_v = lg.se23_exp(*(rng.normal(size=3).tolist() for _ in range(3)), 1.0, 0.01)
        assert {type(x) for x in (*rot[0], *rot[1], *rot[2], *t_p, *t_v)} == {float}

    @staticmethod
    def _t_p_by_the_full_series(omega, v, a, eps, dt):
        """``t_p = J1 v dt + eps dt^2 J2 a``, with ``J1 v dt`` written out as ``se23_exp`` evaluates it for any ``v``."""
        (ox, oy, oz), (vx, vy, vz), (ax, ay, az) = omega, v, a
        wx, wy, wz = ox * dt, oy * dt, oz * dt
        theta = math.hypot(wx, wy, wz)
        t2 = theta * theta
        _, b_c, c_c, d_c = lg._rodrigues_coefficients(theta)
        j1, j2 = 1.0 - c_c * t2, 0.5 - d_c * t2
        x, y, z = vx * dt, vy * dt, vz * dt
        d = c_c * (wx * x + wy * y + wz * z)
        j1v = (j1 * x + b_c * (wy * z - wz * y) + d * wx, j1 * y + b_c * (wz * x - wx * z) + d * wy,
               j1 * z + b_c * (wx * y - wy * x) + d * wz)
        d = d_c * (wx * ax + wy * ay + wz * az)
        j2a = (j2 * ax + c_c * (wy * az - wz * ay) + d * wx, j2 * ay + c_c * (wz * ax - wx * az) + d * wy,
               j2 * az + c_c * (wx * ay - wy * ax) + d * wz)
        k = eps * dt * dt
        return tuple(p + k * q for p, q in zip(j1v, j2a))

    @settings(max_examples=300, derandomize=True)
    @given(st.tuples(component, component, component), st.tuples(component, component, component),
           st.tuples(component, component, component), st.floats(0.01, 2.0), st.floats(-1.0, 1.0))
    # a half-turn or more per step (1 - C theta^2 < 0), where J1 v dt at v = +0.0 can be -0.0
    @example((-300.0, -200.0, 100.0), (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), 1.0, 0.01)
    def test_zero_v_keeps_the_full_series_bits(self, omega, v, a, eps, dt):
        # predict's calls (v = +0.0) skip the J1 v dt series and must keep its bits
        if any(v):
            _, t_p, _ = lg.se23_exp(omega, v, a, eps, dt)
            assert [x.hex() for x in t_p] == [x.hex() for x in self._t_p_by_the_full_series(omega, v, a, eps, dt)]
        _, t_p, _ = lg.se23_exp(omega, (0.0, 0.0, 0.0), a, eps, dt)
        zero = self._t_p_by_the_full_series(omega, (0.0, 0.0, 0.0), a, eps, dt)
        assert [x.hex() for x in t_p] == [x.hex() for x in zero]

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="tangent input must be finite"):
            lg.se23_exp((0.0, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, 0.0), 1.0, 0.01)

    @pytest.mark.parametrize("a", [(1e308, 1e308, 0.0), (-1e308, 0.0, -1e308)])
    def test_rejects_finite_inputs_summing_past_the_float_range(self, a):
        # the nine inputs are tested as one sum: finite values whose sum overflows are refused with them
        with pytest.raises(ValueError, match="tangent input must be finite"):
            lg.se23_exp((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), a, 1.0, 1.0)
        lg.se23_exp((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1e308, -1e308, 1e308), 1.0, 1.0)  # a finite sum passes


def test_tangent_matrix_layout():
    m = tangent_matrix([1, 2, 3], [4, 5, 6], [7, 8, 9], 0.5)
    assert np.array_equal(m[:3, :3], lg.skew([1, 2, 3]))
    assert np.array_equal(m[:3, 3], [4, 5, 6])
    assert np.array_equal(m[:3, 4], [7, 8, 9])
    assert m[4, 3] == 0.5
    assert np.array_equal(m[3, :], np.zeros(5))
    assert np.array_equal(m[4, [0, 1, 2, 4]], np.zeros(4))


class TestQuaternions:
    def test_quat_to_rot_quarter_turn(self):
        q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        assert np.allclose(lg.quat_to_rot(q), [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)

    def test_against_scipy(self, rng):
        for _ in range(100):
            rot = Rotation.random(random_state=rng)
            xyzw = rot.as_quat()
            q = np.concatenate([[xyzw[3]], xyzw[:3]])
            assert np.allclose(lg.quat_to_rot(q), rot.as_matrix(), atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(200):
            r = random_rotation(rng)
            q = lg.rot_to_quat(r)
            assert q[0] >= 0.0
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(lg.quat_to_rot(q), r, atol=1e-12)

    @pytest.mark.parametrize("axis", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    def test_round_trip_near_half_turn(self, axis):
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        r = Rotation.from_rotvec((np.pi - 1e-9) * axis).as_matrix()
        q = lg.rot_to_quat(r)
        assert np.allclose(lg.quat_to_rot(q), r, atol=1e-9)

    def test_stacked_rot_to_quat_matches_per_matrix(self, rng):
        # each Shepperd branch (trace, then each diagonal pivot), the latter
        # with the scalar part coming out negative before the sign rule
        rotvecs = [[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]]
        for axis in np.eye(3):
            for sign in (1.0, -1.0):
                rotvecs.append(sign * 2.8 * axis + 0.05)
        stack = np.concatenate([Rotation.from_rotvec(rotvecs).as_matrix(),
                                [random_rotation(rng) for _ in range(300)]])
        diag = stack[:, [0, 1, 2], [0, 1, 2]]
        case = np.argmax(np.column_stack([diag.sum(axis=1), diag]), axis=1)
        assert set(case[: len(rotvecs)]) == {0, 1, 2, 3}
        numerator = np.array([r[2, 1] - r[1, 2] for r in stack[:8]])
        assert (numerator[case[:8] == 1] < 0).any()
        expect = np.array([rot_to_quat_per_matrix(r) for r in stack])
        assert np.array_equal(lg.rot_to_quat(stack), expect)
        assert np.array_equal(lg.rot_to_quat(stack.reshape(2, -1, 3, 3)), expect.reshape(2, -1, 4))
        assert np.array_equal(lg.rot_to_quat(stack[3]), expect[3])

    def test_stacked_quat_to_rot_matches_single(self, rng):
        q = rng.normal(size=(50, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        assert np.array_equal(lg.quat_to_rot(q), np.array([lg.quat_to_rot(x) for x in q]))

    def test_sign_ambiguity_resolved(self, rng):
        r = random_rotation(rng)
        q = lg.rot_to_quat(r)
        assert np.allclose(lg.quat_to_rot(-q), lg.quat_to_rot(q))

    @pytest.mark.parametrize("left", [False, True])
    def test_turn_is_homomorphism(self, rng, left):
        for _ in range(100):
            ra, w, dt = random_rotation(rng), rng.normal(size=3), rng.uniform(-0.5, 0.5)
            turned = lg.quat_to_rot(lg.quat_turn(lg.rot_to_quat(ra), w, dt, left))
            want = so3_exp_per_vector(w * dt) @ ra if left else ra @ so3_exp_per_vector(w * dt)
            assert np.allclose(turned, want, atol=1e-12)

    @given(vec3)
    def test_turn_of_identity_matches_so3_exp(self, w):
        assert np.allclose(lg.quat_to_rot(lg.quat_turn((1.0, 0.0, 0.0, 0.0), w, 1.0)), lg.so3_exp(w), atol=1e-9)

    def test_turn_small_angle(self):
        w = np.array([1e-9, 2e-9, -1e-9])
        q = lg.quat_turn((1.0, 0.0, 0.0, 0.0), w, 1.0)
        assert np.allclose(q[1:], 0.5 * w, rtol=1e-12)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)

    def test_turn_rejects_zero(self):
        with pytest.raises(ValueError, match="cannot normalize a zero or non-finite quaternion"):
            lg.quat_turn(np.zeros(4), (0.1, 0.2, 0.3), 0.01)
