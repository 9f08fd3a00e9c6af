"""The filter step's float layers against their numpy forms in ``reference``.

Each layer evaluates its products on Python floats; the oracle is the same
math written with array products.  The two may differ in summation order
only, so every output must agree to 1e-12 (relative above magnitude one),
layer by layer on random inputs and over whole noisy closed-loop runs.
"""

import numpy as np
import pytest
from conftest import random_rotation
from reference import (
    build_triads_numpy,
    correction_terms_numpy,
    corrections,
    imu_of,
    predict_numpy,
    state_of,
    step_numpy,
    update_numpy,
)

from uwbnav.attitude import ReferenceEnvironment, build_triads
from uwbnav.harness import RunConfig, synthesize_measurements
from uwbnav.liegroup import rot_to_quat
from uwbnav.navfilter import FilterGains, correction_terms, predict, step, update
from uwbnav.sim import generate_trajectory

TRIALS = 200
VARIANTS = ("matrix", "quaternion")
TOL = {"rtol": 1e-12, "atol": 1e-12}


def _state(rng, variant):
    r = random_rotation(rng)
    return state_of(
        r if variant == "matrix" else rot_to_quat(r), rng.normal(0.0, 3.0, 3), rng.normal(size=3), rng.normal(size=3)
    )


def _imu(rng):
    return imu_of(rng.normal(size=3), rng.normal(0.0, 10.0, 3), rng.normal(size=3))


def _gains(rng):
    positive = {k: rng.uniform(0.05, 5.0) for k in ("k1", "kv", "ka", "gamma_sigma", "epsilon", "k_sigma")}
    return FilterGains(**positive, s=3.0 * rng.dirichlet(np.ones(3)))


def _env(rng):
    return ReferenceEnvironment(g_vec=rng.normal(0.0, 10.0, 3), m_r=rng.normal(size=3))


def _assert_states_close(got, want):
    for name in ("attitude", "p_hat", "v_hat", "sigma_hat"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), **TOL, err_msg=name)


def test_build_triads_matches_numpy_oracle():
    rng = np.random.default_rng(901)
    for _ in range(TRIALS):
        env, a_m, m_m, s = _env(rng), rng.normal(0.0, 10.0, 3), rng.normal(size=3), _gains(rng).s
        got, want = build_triads(a_m, m_m, env, s=s), build_triads_numpy(a_m, m_m, env, s=s)
        np.testing.assert_allclose(got.v, want.v, **TOL)
        for got_side, want_side in zip(got.reference, want.reference):
            np.testing.assert_allclose(got_side, want_side, **TOL)
        assert got.s == want.s


@pytest.mark.parametrize("variant", VARIANTS)
def test_correction_terms_match_numpy_oracle(variant):
    rng = np.random.default_rng(902)
    for _ in range(TRIALS):
        state, gains, env = _state(rng, variant), _gains(rng), _env(rng)
        triads = build_triads(rng.normal(0.0, 10.0, 3), rng.normal(size=3), env, s=gains.s)
        p_y = state.p_hat + rng.normal(0.0, 0.5, 3)
        got, want = correction_terms(state, triads, p_y, gains), correction_terms_numpy(state, triads, p_y, gains)
        assert got.e_r == pytest.approx(want.e_r, **{"rel": 1e-12, "abs": 1e-12})
        for name in ("d_v_diag", "w_omega", "w_v", "w_a", "sigma_dot"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), **TOL, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_matches_numpy_oracle(variant):
    rng = np.random.default_rng(903)
    for _ in range(TRIALS):
        state, imu, dt = _state(rng, variant), _imu(rng), rng.uniform(1e-3, 0.1)
        _assert_states_close(predict(state, imu, dt), predict_numpy(state, imu, dt))


@pytest.mark.parametrize("variant", VARIANTS)
def test_update_matches_numpy_oracle(variant):
    rng = np.random.default_rng(904)
    for _ in range(TRIALS):
        state, dt = _state(rng, variant), rng.uniform(1e-3, 0.1)
        w = corrections(
            rng.uniform(), rng.normal(size=3), rng.normal(size=3), rng.normal(0.0, 10.0, 3), rng.normal(0.0, 50.0, 3),
            rng.normal(size=3),
        )
        g = ReferenceEnvironment().g_vec
        _assert_states_close(update(state, w, dt, g.tolist()), update_numpy(state, w, dt, g))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
def test_noisy_runs_match_numpy_oracle(topology, variant):
    """3000 closed-loop steps of the stock circle flight, noise on, from the stock offset start."""
    cfg = RunConfig(topology=topology, variant=variant, duration=30.0, seed=17)
    env, anchors, gains = cfg.env(), cfg.anchor_set(), cfg.gains()
    traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, env)
    imu, ranges = synthesize_measurements(traj, anchors, topology, cfg.noise(), env)
    got = want = cfg.initial_state()
    trace_got, trace_want = [], []
    for i in range(len(traj) - 1):
        got, _ = step(got, imu[i], ranges[i], anchors, env, gains, cfg.dt)
        want = step_numpy(want, imu[i], ranges[i], anchors, env, gains, cfg.dt)
        trace_got.append(np.concatenate([np.ravel(got.attitude), got.p_hat, got.v_hat, got.sigma_hat]))
        trace_want.append(np.concatenate([np.ravel(want.attitude), want.p_hat, want.v_hat, want.sigma_hat]))
    assert len(trace_got) == 3000
    np.testing.assert_allclose(np.array(trace_got), np.array(trace_want), **TOL)
