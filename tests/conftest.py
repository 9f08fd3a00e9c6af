import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial.transform import Rotation

from uwbnav.attitude import _imu_rows, measure_imu

# Numeric property tests routinely blow the default deadline on first-run
# JIT-less numpy; disable it globally.
settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix, independent of the library under test."""
    return Rotation.random(random_state=rng).as_matrix()


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def noisy_imu_and_fixes(traj, noise, env, n):
    """IMU samples and noisy position fixes for the first ``n`` samples of ``traj``, drawn as one block.

    Row ``i`` of a ``standard_normal((n, 12))`` draw holds what one sample's
    IMU noise (gyro, accelerometer, magnetometer) followed by
    ``rng.normal(0, sigma_range, 3)`` on the fix would draw for sample ``i``,
    in that order; the readings come from ``measure_imu`` on the whole block.
    """
    z = noise.stream().standard_normal((n, 12))
    rot = traj.rot[:n]
    vdot = (rot @ traj.a[:n, :, None])[:, :, 0] + env.g_vec
    sigmas = (noise.sigma_omega, noise.sigma_a, noise.sigma_m)
    gyro, accel, mag = measure_imu(rot, traj.omega[:n], vdot, env, z[:, :9], sigmas)
    p_y = traj.p[:n] + (0.0 + noise.sigma_range * z[:, 9:])  # loc + scale * z, as Generator.normal
    return _imu_rows(np.concatenate([gyro, accel, mag], axis=1)), p_y
