"""Tests for truth propagation, flight profiles, and velocity reconstruction.

Truth propagation is the exact-flow oracle of ``tests/reference.py``; the
profiles must match it.
"""

import numpy as np
import pytest
from scipy.signal import savgol_filter

from uwbnav import sim
from uwbnav.attitude import ReferenceEnvironment
from uwbnav.liegroup import attitude_distance
from uwbnav.sim import (
    BadParams,
    NoiseSpec,
    TooFewSamples,
    TruthTrajectory,
    generate_trajectory,
    reconstruct_velocity,
)

from reference import propagate_truth, scaled_noise, so3_exp_per_vector

ENV = ReferenceEnvironment()
G = ENV.g_vec


class TestPropagateTruth:
    def test_hover_with_thrust_is_stationary(self):
        p0 = np.array([1.0, 2.0, 3.0])
        r, p, v = propagate_truth(np.eye(3), p0, np.zeros(3), np.zeros(3), -G, ENV, dt=0.01)
        assert np.allclose(p, p0, atol=1e-14)
        assert np.allclose(v, 0.0, atol=1e-14)
        assert np.allclose(r, np.eye(3), atol=1e-15)

    def test_free_fall_matches_ballistics(self):
        dt = 0.5
        _, p, v = propagate_truth(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), ENV, dt=dt)
        assert np.allclose(v, G * dt, atol=1e-13)
        assert np.allclose(p, 0.5 * G * dt * dt, atol=1e-13)

    def test_constant_velocity_drift(self):
        v0 = np.array([1.0, -2.0, 0.5])
        _, p, v = propagate_truth(np.eye(3), np.zeros(3), v0, np.zeros(3), -G, ENV, dt=0.2)
        assert np.allclose(p, v0 * 0.2, atol=1e-13)
        assert np.allclose(v, v0, atol=1e-14)

    def test_two_half_steps_equal_one_for_constant_inputs(self):
        rng = np.random.default_rng(3)
        x = (
            np.linalg.qr(rng.normal(size=(3, 3)))[0] * np.sign(np.linalg.det(np.linalg.qr(rng.normal(size=(3, 3)))[0])),
            rng.normal(size=3),
            rng.normal(size=3),
        )
        assert np.linalg.det(x[0]) > 0.0  # a rotation, not a reflection
        omega = np.array([0.3, -0.1, 0.8])
        a = np.array([0.5, 0.2, -9.0])
        one = propagate_truth(*x, omega, a, ENV, dt=0.02)
        half = propagate_truth(*propagate_truth(*x, omega, a, ENV, dt=0.01), omega, a, ENV, dt=0.01)
        assert np.allclose(one[1], half[1], atol=1e-12)
        assert np.allclose(one[2], half[2], atol=1e-12)
        assert np.allclose(one[0], half[0], atol=1e-13)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            propagate_truth(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), ENV, dt=0.0)


class TestGenerateTrajectory:
    def test_hover_profile(self):
        traj = generate_trajectory("hover", {"p0": [0, 0, 1], "duration": 2.0, "rate": 50.0})
        assert len(traj) == 101
        assert np.allclose(traj.p, [0, 0, 1])
        assert np.allclose(traj.v, 0.0)
        assert np.allclose(traj.a, -G)

    @pytest.mark.parametrize("kind", ["circle", "lissajous"])
    def test_yaw_rotations_match_per_sample_oracle(self, kind):
        params = {"duration": 3.0, "rate": 50.0}
        traj = generate_trajectory(kind, params, ENV)
        if kind == "circle":
            psi = 2.0 * np.pi / 10.0 * traj.t
        else:
            psi = 0.6 * np.sin(2.0 * np.pi * 0.05 * traj.t)
        rot = np.array([so3_exp_per_vector([0.0, 0.0, x]) for x in psi])
        assert np.array_equal(traj.rot, rot)

    def test_circle_closes_after_period(self):
        traj = generate_trajectory(
            "circle", {"p0": [2, 0, 1.5], "radius": 2.0, "period": 5.0, "duration": 5.0, "rate": 100.0}
        )
        assert np.allclose(traj.p[-1], traj.p[0], atol=1e-9)
        assert np.allclose(traj.rot[-1], traj.rot[0], atol=1e-9)

    def test_circle_speed_is_circumference_over_period(self):
        r, period = 1.5, 8.0
        traj = generate_trajectory(
            "circle", {"p0": [r, 0, 1], "radius": r, "period": period, "duration": 4.0, "rate": 100.0}
        )
        speeds = np.linalg.norm(traj.v, axis=1)
        assert np.allclose(speeds, 2 * np.pi * r / period, atol=1e-12)

    def test_circle_inputs_are_constant(self):
        traj = generate_trajectory("circle", {"duration": 1.0, "rate": 100.0})
        assert np.allclose(traj.omega, traj.omega[0], atol=1e-15)
        assert np.allclose(traj.a, traj.a[0], atol=1e-12)

    def test_circle_is_exactly_propagable(self):
        """Constant body inputs: the sampled profile equals the exact flow."""
        traj = generate_trajectory(
            "circle", {"p0": [2, 0, 1], "radius": 2.0, "period": 6.0, "duration": 3.0, "rate": 50.0}
        )
        r, p, v = traj.rot[0], traj.p[0], traj.v[0]
        worst_p = worst_r = 0.0
        for i in range(1, len(traj)):
            r, p, v = propagate_truth(r, p, v, traj.omega[i - 1], traj.a[i - 1], ENV, traj.dt)
            worst_p = max(worst_p, float(np.linalg.norm(p - traj.p[i])))
            worst_r = max(worst_r, float(attitude_distance(r @ traj.rot[i].T)))
        assert worst_p < 1e-9
        assert worst_r < 1e-18

    def test_lissajous_velocity_consistent_with_positions(self):
        traj = generate_trajectory("lissajous", {"duration": 10.0, "rate": 100.0})
        v_est = reconstruct_velocity(traj.p, traj.dt)
        err = np.linalg.norm(v_est[20:-20] - traj.v[20:-20], axis=1)
        assert err.max() < 1e-5

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("spiral", {}),
            ("circle", {"radius": -1.0}),
            ("circle", {"bogus": 1}),
            ("hover", {"duration": -5.0}),
            ("hover", {"p0": [1, 2]}),
            ("replay", {}),
            ("circle", {"radius": np.nan}),
            ("circle", {"period": np.nan}),
            ("circle", {"yaw0": np.inf}),
            ("hover", {"duration": np.nan}),
            ("hover", {"duration": np.inf}),
            ("hover", {"rate": np.nan}),
            ("hover", {"yaw": np.nan}),
            ("hover", {"p0": [np.nan, 0.0, 1.0]}),
            ("lissajous", {"amplitude": [1.0, np.nan, 0.3]}),
            ("lissajous", {"frequency": [0.1, 0.15, np.inf]}),
            ("lissajous", {"phase": [np.nan, 0.0, 0.0]}),
            ("lissajous", {"yaw_amplitude": np.nan}),
            ("lissajous", {"yaw_frequency": np.inf}),
        ],
    )
    def test_bad_params(self, kind, params):
        with pytest.raises(BadParams):
            generate_trajectory(kind, params)

    def test_sample_ceiling(self, monkeypatch):
        # the ceiling is checked on duration * rate, before any array exists
        monkeypatch.setattr(sim, "MAX_SAMPLES", 100)
        assert len(generate_trajectory("hover", {"duration": 1.0, "rate": 100.0})) == 101
        with pytest.raises(BadParams, match=r"duration \* rate gives 101 samples, above the ceiling of 100"):
            generate_trajectory("hover", {"duration": 1.0, "rate": 101.0})
        monkeypatch.undo()
        with pytest.raises(BadParams, match="ceiling of 1e\\+07"):
            generate_trajectory("hover", {"duration": 1e300, "rate": 1e300})

    def test_trajectory_validation(self):
        t = np.array([0.0, 0.0, 0.1])
        with pytest.raises(BadParams):
            TruthTrajectory(
                t=t,
                rot=np.tile(np.eye(3), (3, 1, 1)),
                p=np.zeros((3, 3)),
                v=np.zeros((3, 3)),
                omega=np.zeros((3, 3)),
                a=np.zeros((3, 3)),
            )


class TestReconstructVelocity:
    def test_linear_motion_exact(self):
        t = np.arange(200) * 0.01
        p = np.outer(t, [1.0, -0.5, 2.0]) + [3.0, 0.0, 1.0]
        v = reconstruct_velocity(p, 0.01)
        assert np.allclose(v, [1.0, -0.5, 2.0], atol=1e-10)

    def test_constant_position_gives_zero(self):
        p = np.tile([1.0, 2.0, 3.0], (50, 1))
        assert np.allclose(reconstruct_velocity(p, 0.1), 0.0, atol=1e-12)

    def test_sinusoid_within_one_percent(self):
        t = np.arange(500) * 0.01
        p = np.stack([np.sin(2 * np.pi * 0.5 * t), np.zeros_like(t), np.zeros_like(t)], axis=1)
        want = np.pi * np.cos(2 * np.pi * 0.5 * t)
        got = reconstruct_velocity(p, 0.01)[:, 0]
        scale = np.abs(want).max()
        assert np.abs(got[5:-5] - want[5:-5]).max() < 0.01 * scale

    def test_short_series_shrinks_window(self):
        t = np.arange(7) * 0.1
        p = np.outer(t, [2.0, 0.0, 0.0])
        v = reconstruct_velocity(p, 0.1)
        assert np.allclose(v[:, 0], 2.0, atol=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            reconstruct_velocity(np.zeros((4, 3)), 0.1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            reconstruct_velocity(np.zeros((20, 3)), dt)

    @pytest.mark.parametrize("dt", [0.002, 0.01, 0.1])
    @pytest.mark.parametrize("n", [5, 6, 7, 10, 11, 12, 500])
    def test_matches_scipy_savgol(self, n, dt):
        # scipy's interp-mode Savitzky-Golay derivative with the same window
        # shrink is the oracle, on a noisy curved flight
        rng = np.random.default_rng(1000 * n + int(1 / dt))
        t = np.arange(n) * dt
        p = np.stack([2.0 * np.sin(0.6 * t), 2.0 * np.cos(0.6 * t), 1.5 + 0.1 * t], axis=1)
        p += 1e-3 * rng.standard_normal((n, 3))
        window = min(11, n if n % 2 else n - 1)
        ref = savgol_filter(p, window, 3, deriv=1, delta=dt, axis=0, mode="interp")
        got = reconstruct_velocity(p, dt)
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


class TestNoiseSpec:
    def test_defaults(self):
        spec = NoiseSpec()
        assert np.allclose(spec.sigma_omega, 0.01)
        assert np.allclose(spec.sigma_a, 0.05)
        assert spec.sigma_m == 0.2
        assert spec.sigma_range == 0.05

    def test_stream_is_reproducible(self):
        spec = NoiseSpec(seed=42)
        a = spec.stream().normal(size=10)
        b = spec.stream().normal(size=10)
        assert np.array_equal(a, b)

    def test_scaled_copy(self):
        spec = NoiseSpec()
        half = scaled_noise(spec, 0.5)
        assert np.allclose(half.sigma_omega, 0.005)
        assert np.allclose(half.sigma_a, 0.025)
        assert half.sigma_m == 0.1
        assert scaled_noise(spec, 1.0) is spec

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_m=-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"sigma_m": np.nan}, {"sigma_range": np.inf}, {"sigma_range": np.nan},
         {"sigma_omega": [0.01, np.nan, 0.01]}, {"sigma_a": [np.inf, 0.05, 0.05]}],
    )
    def test_rejects_non_finite_sigma(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**kwargs)
