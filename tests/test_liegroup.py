import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from uwbnav import liegroup as lg

from conftest import random_rotation
from reference import rot_to_quat_per_matrix, so3_exp_per_vector, tangent_matrix

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def test_skew_layout():
    m = lg.skew([1.0, 2.0, 3.0])
    assert np.array_equal(m, np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]]))


@given(vec3, vec3)
def test_skew_matches_cross_product(v, y):
    assert np.allclose(lg.skew(v) @ y, np.cross(v, y), atol=1e-9)


@given(vec3)
def test_vex_inverts_skew(v):
    assert np.allclose(lg.vex(lg.skew(v)), v)


def test_vex_rejects_symmetric_part(rng):
    m = rng.normal(size=(3, 3))
    m = m + m.T  # fully symmetric, far from antisymmetric
    with pytest.raises(lg.NotAntisymmetric):
        lg.vex(m)


@given(st.tuples(*[finite] * 9).map(lambda t: np.array(t).reshape(3, 3)))
def test_pa_is_antisymmetric_projection(m):
    p = lg.pa(m)
    assert np.allclose(p, -p.T)
    assert np.allclose(lg.pa(p), p)


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


def _log_cases(rng) -> np.ndarray:
    """Rotation vectors: uniform random, tiny (down to the identity) and within 1e-9 of a half-turn."""
    axes = rng.normal(size=(60, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    tiny = axes[:20] * np.array([0.0, 1e-16, 1e-12, 1e-10, 1e-8] * 4)[:, None]
    near_pi = (np.pi - 1e-9) * axes[20:40]
    return np.concatenate([Rotation.random(200, random_state=rng).as_rotvec(), tiny, near_pi])


class TestSo3Log:
    def test_matches_scipy_rotvec(self, rng):
        r = Rotation.from_rotvec(_log_cases(rng)).as_matrix()
        want = Rotation.from_matrix(r).as_rotvec()
        assert np.abs(lg.so3_log(r) - want).max() <= 1e-14

    def test_inverts_so3_exp(self, rng):
        r = Rotation.from_rotvec(_log_cases(rng)).as_matrix()
        assert np.abs(lg.so3_exp(lg.so3_log(r)) - r).max() <= 1e-14

    def test_identity_is_zero(self):
        assert np.array_equal(lg.so3_log(np.eye(3)), np.zeros(3))

    def test_stack_shapes(self, rng):
        r = Rotation.from_rotvec(_log_cases(rng)[:240]).as_matrix()
        flat = lg.so3_log(r)
        assert flat.shape == (240, 3)
        assert np.array_equal(lg.so3_log(r.reshape(4, 60, 3, 3)), flat.reshape(4, 60, 3))
        assert np.array_equal(lg.so3_log(r[5]), flat[5])


class TestSe23Exp:
    def test_matches_expm_oracle(self, rng):
        worst = 0.0
        for _ in range(300):
            u = lg.TangentInput(
                omega=rng.normal(size=3) * 3,
                v=rng.normal(size=3) * 2,
                a=rng.normal(size=3) * 5,
                eps=rng.normal(),
            )
            dt = rng.uniform(0, 0.6)
            gap = np.abs(lg.se23_exp(u, dt) - expm(tangent_matrix(u) * dt)).max()
            worst = max(worst, gap)
        assert worst < 1e-12

    def test_small_angle_matches_expm(self):
        u = lg.TangentInput(omega=[1e-9, 0, -1e-9], v=[1, 2, 3], a=[4, 5, 6], eps=1.0)
        assert np.allclose(lg.se23_exp(u, 1.0), expm(tangent_matrix(u)), atol=1e-14)

    def test_zero_input_gives_identity(self):
        u = lg.TangentInput(omega=np.zeros(3), v=np.zeros(3), a=np.zeros(3), eps=0.0)
        assert np.array_equal(lg.se23_exp(u, 0.37), np.eye(5))

    def test_pure_translation_columns(self):
        u = lg.TangentInput(omega=np.zeros(3), v=[1.0, -2.0, 3.0], a=[0.5, 0.0, -0.5], eps=0.0)
        e = lg.se23_exp(u, 0.25)
        assert np.allclose(e[:3, :3], np.eye(3))
        assert np.allclose(e[:3, 3], np.array([1.0, -2.0, 3.0]) * 0.25)
        assert np.allclose(e[:3, 4], np.array([0.5, 0.0, -0.5]) * 0.25)
        assert e[4, 3] == 0.0

    def test_eps_couples_velocity_column(self):
        u = lg.TangentInput(omega=np.zeros(3), v=np.zeros(3), a=[1.0, 0.0, 0.0], eps=2.0)
        dt = 0.1
        e = lg.se23_exp(u, dt)
        # position column picks up eps * dt^2 * a / 2 when omega == 0
        assert np.allclose(e[:3, 3], [2.0 * dt * dt * 0.5, 0.0, 0.0])
        assert e[4, 3] == pytest.approx(2.0 * dt)


def test_tangent_matrix_layout():
    u = lg.TangentInput(omega=[1, 2, 3], v=[4, 5, 6], a=[7, 8, 9], eps=0.5)
    m = tangent_matrix(u)
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

    def test_multiply_is_homomorphism(self, rng):
        for _ in range(100):
            ra, rb = random_rotation(rng), random_rotation(rng)
            qa, qb = lg.rot_to_quat(ra), lg.rot_to_quat(rb)
            assert np.allclose(lg.quat_to_rot(lg.quat_multiply(qa, qb)), ra @ rb, atol=1e-12)

    @given(vec3)
    def test_from_rotvec_matches_so3_exp(self, w):
        assert np.allclose(lg.quat_to_rot(lg.quat_from_rotvec(w)), lg.so3_exp(w), atol=1e-9)

    def test_from_rotvec_small_angle(self):
        w = np.array([1e-9, 2e-9, -1e-9])
        q = lg.quat_from_rotvec(w)
        assert np.allclose(q[1:], 0.5 * w, rtol=1e-12)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            lg.quat_normalize(np.zeros(4))
