"""Harness tests: config parsing, synthesis, dataset IO, experiment runs."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uwbnav import harness, liegroup, sim
from uwbnav.attitude import ImuSample, ReferenceEnvironment
from uwbnav.harness import (
    VARIANTS,
    ClockError,
    ConfigError,
    NumericalFailure,
    RunConfig,
    SchemaError,
    default_anchors,
    ingest_dataset,
    load_config,
    measurement_blocks,
    recompute_metrics,
    run_experiment,
    synthesize_measurements,
    write_dataset,
)
from uwbnav.navfilter import step
from uwbnav.sim import NoiseSpec, generate_trajectory
from uwbnav.uwb import TOPOLOGIES, AnchorSet, GeometryDegenerate, Ranges, solve_fix

from reference import (
    imu_rows,
    imu_sample,
    measurement_blocks_whole,
    near_coplanar_anchors,
    range_rows,
    synthesize_per_sample,
    tdoa_ranges,
    toa_ranges,
    write_csv_whole,
    write_dataset_rows,
    write_dataset_whole,
    write_run_whole,
)

REPLAY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "dataset_replay.yaml"
REPLAY_LEVER = np.array(yaml.safe_load(REPLAY_CONFIG.read_text())["tag_offset"])
CHUNK = sim._CHUNK_ROWS


# five anchors on the floor plane, and the same set with one anchor 1e-8 m above it
PLANAR_ANCHORS = [[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [3.0, 3.0, 0.0], [-3.0, 3.0, 0.0], [0.0, 0.0, 0.0]]
NEAR_PLANAR_ANCHORS = [*PLANAR_ANCHORS[:3], [-3.0, 3.0, 1.0e-8], PLANAR_ANCHORS[4]]


def _traj(duration=2.0, rate=50.0, kind="circle", **params):
    env = ReferenceEnvironment()
    params.setdefault("p0", [2.0, 0.0, 1.5])
    params.update(duration=duration, rate=rate)
    return generate_trajectory(kind, params, env)


class TestRunConfig:
    def test_stock_defaults(self):
        cfg = RunConfig()
        assert cfg.k1 == 3.0 and cfg.kv == 3.0 and cfg.ka == 70.0
        assert cfg.gamma_sigma == 0.1 and cfg.epsilon == 0.5 and cfg.k_sigma == 0.1
        assert np.allclose(cfg.p_hat0, [-2.0, -3.0, 0.0])
        assert np.allclose(cfg.v_hat0, 0.0) and np.allclose(cfg.sigma_hat0, 0.0)
        assert cfg.sigma_m == 0.2 and cfg.sigma_range == 0.05
        assert cfg.rate == 100.0 and cfg.filter_rate == 100.0
        assert np.allclose(cfg.m_r, [-1.3, 0.0, 1.5])

    def test_dt_is_reciprocal_filter_rate(self):
        assert RunConfig(rate=500.0, filter_rate=100.0).dt == pytest.approx(0.01)

    def test_scalar_sigma_broadcasts(self):
        cfg = RunConfig(sigma_omega=0.02, sigma_a=0.1)
        assert cfg.sigma_omega.shape == (3,) and np.all(cfg.sigma_omega == 0.02)
        assert np.all(cfg.sigma_a == 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "magic"},
            {"mode": "dataset"},
            {"topology": "tof"},
            {"variant": "cayley"},
            {"duration": 0.0},
            {"rate": -1.0},
            {"filter_rate": 0.0},
            {"p_hat0": [1.0, 2.0]},
            {"sigma_omega": [0.1, 0.1]},
            {"sigma_omega": [0.01, np.nan, 0.01]},
            {"sigma_a": -0.05},
            {"sigma_m": np.nan},
            {"sigma_range": -np.inf},
            {"sigma_range": np.inf},
            {"duration": True},
            {"duration": np.nan},
            {"duration": np.inf},
            {"filter_rate": np.nan},
            {"k1": -1.0},
            {"k1": np.nan},
            {"s": [1.0, 1.0, np.nan]},
            {"p_hat0": [np.nan, 0.0, 0.0]},
            {"r_hat0": [np.nan, 0.0, 0.0]},
            {"tag_offset": [np.nan, 0.0, 0.0]},
            {"g_vec": [0.0, 0.0, np.nan]},
            {"m_r": [0.0, 0.0, 9.81]},
            {"anchors": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]]},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, -1, "3", None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert RunConfig(seed=np.int64(7)).noise().seed == 7

    @pytest.mark.parametrize(
        "topology,count", [("toa", 2), ("toa", 3), ("tdoa-main", 4), ("tdoa-ring", 4), ("toa", 0)]
    )
    def test_too_few_anchors_for_topology(self, topology, count):
        with pytest.raises(ConfigError, match="anchors"):
            RunConfig(topology=topology, anchors=default_anchors().anchors[:count])

    @pytest.mark.parametrize("topology,count", [("toa", 4), ("tdoa-main", 5), ("tdoa-ring", 5)])
    def test_anchor_floor_is_enough(self, topology, count):
        anchors = default_anchors().anchors[[0, 1, 2, 4, 7][:count]]
        assert len(RunConfig(topology=topology, anchors=anchors).anchor_set()) == count

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize(
        "anchors,match",
        [
            (PLANAR_ANCHORS, "system rank 2 below 3 unknowns"),
            ([[float(k), 0.0, 0.0] for k in range(5)], "system rank 1 below 3 unknowns"),
            (NEAR_PLANAR_ANCHORS, r"condition number .* above ceiling 1e\+08"),
        ],
        ids=["planar", "collinear", "near-planar"],
    )
    def test_anchors_that_give_no_fix(self, topology, anchors, match):
        # every solve under this geometry fails its rank or condition test, whatever the ranges
        with pytest.raises(ConfigError, match=rf"^anchors give no {topology} fix: {match}"):
            RunConfig(topology=topology, anchors=anchors)

    @pytest.mark.parametrize("clock", ["filter_rate", "rate"])
    def test_sample_ceiling_names_the_clock_key(self, clock):
        # a synthetic flight is sampled at filter_rate, which defaults to rate: the key the config set is named
        message = rf"^{clock}: duration \* {clock} gives 6e\+07 samples, above the ceiling of 1e\+07$"
        with pytest.raises(ConfigError, match=message):
            RunConfig(duration=60.0, **{clock: 1.0e6})
        assert RunConfig(duration=10.0, **{clock: 1.0e6}).filter_rate == 1.0e6  # at the ceiling

    def test_sample_ceiling_leaves_dataset_mode(self, tmp_path):
        # a replay's length is its dataset's
        cfg = RunConfig(mode="dataset", dataset_dir=str(tmp_path), duration=60.0, filter_rate=1.0e6)
        assert cfg.duration * cfg.filter_rate > sim.MAX_SAMPLES

    def test_component_builders(self):
        cfg = RunConfig(k1=2.5, seed=9, sigma_m=0.3, g_vec=[0.0, 0.0, 9.8])
        assert cfg.gains().k1 == 2.5
        assert cfg.noise().seed == 9 and cfg.noise().sigma_m == 0.3
        assert cfg.env().g_vec[2] == 9.8
        assert len(cfg.anchor_set()) == 8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["matrix", "quaternion"])
    def test_initial_attitude_off_the_group_rejected(self, variant):
        # a finite rotation vector whose exponential overflows fails the state gate, without a warning
        with pytest.raises(ConfigError, match="r_hat0: (attitude is not orthonormal|cannot normalize)"):
            RunConfig(r_hat0=[1.0e300, 0.0, 0.0], variant=variant)

    @pytest.mark.parametrize("overrides", [{"p_hat0": [1e308, 1e308, 0.0]}, {"v_hat0": [0.0, -1e308, -1e308]},
                                           {"p_hat0": [1e308, 0.0, 0.0], "sigma_hat0": [1e308, 0.0, 0.0]}])
    def test_initial_state_summing_past_the_float_range_rejected(self, overrides):
        # each value is finite; the state gate tests their sum, which overflows: the refusal names the keys, not r_hat0
        with pytest.raises(ConfigError, match=r"^p_hat0, v_hat0, sigma_hat0: state must be finite: their nine values "
                                              r"sum past the float range$"):
            RunConfig(**overrides)

    @pytest.mark.parametrize("sigma_hat0", [[-20.0, 0.0, 0.0], [0.0, 0.0, -1.0e-300]])
    def test_sigma_hat0_must_be_nonnegative(self, sigma_hat0):
        # sigma_hat bounds a covariance; a component below about -6 flips the attitude correction
        with pytest.raises(ConfigError, match=r"sigma_hat0 must be nonnegative \(it bounds a covariance\)"):
            RunConfig(sigma_hat0=sigma_hat0)

    @pytest.mark.parametrize(
        "k_sigma,gamma_sigma,rate,filter_rate,decay",
        [(100.0, 1.0, 100.0, None, "1.0"), (190.0, 1.0, 100.0, None, "1.9"), (150.0, 1.0, 500.0, 100.0, "1.5")],
    )
    def test_sigma_decay_must_stay_below_one_step(self, k_sigma, gamma_sigma, rate, filter_rate, decay):
        # the Euler step scales sigma_hat by 1 - k_sigma gamma_sigma dt, with dt the filter clock's interval
        message = rf"k_sigma \* gamma_sigma / filter_rate must be below 1, got {decay}\b"
        with pytest.raises(ConfigError, match=message):
            RunConfig(k_sigma=k_sigma, gamma_sigma=gamma_sigma, rate=rate, filter_rate=filter_rate)

    @pytest.mark.parametrize("key,value", [("duration", 3.0), ("rate", 50.0)], ids=["duration", "rate"])
    def test_trajectory_params_cannot_set_the_flight_clock(self, key, value):
        # the config's own duration and rate set the flight: a trajectory
        # parameter that overrode them ran 300 steps for duration 1.0, or fed
        # 50 Hz samples to a filter integrating at 100 Hz
        with pytest.raises(ConfigError, match=rf"^trajectory_params: '{key}' is not a circle parameter"):
            RunConfig(duration=1.0, topology="toa", trajectory_params={key: value})

    def test_trajectory_params_of_another_kind_rejected(self):
        with pytest.raises(ConfigError, match="^trajectory_params: 'amplitude' is not a circle parameter"):
            RunConfig(trajectory="circle", trajectory_params={"radius": 1.0, "amplitude": [1.0, 1.0, 0.0]})

    @pytest.mark.parametrize("params", [None, 5, "radius", ["radius"], ("p0",)], ids=repr)
    def test_trajectory_params_must_be_a_mapping(self, tmp_path, params):
        # None and 5 raised a bare TypeError, text was read as its characters'
        # keys ("'a' is not a circle parameter"), and a list passed
        # construction to fail in run_experiment's dict() with a bare ValueError
        with pytest.raises(ConfigError, match=rf"^trajectory_params must be a mapping of circle parameters, got "
                                              rf"{re.escape(repr(params))}$"):
            RunConfig(duration=1.0, trajectory_params=params, out=str(tmp_path / "run"))

    @pytest.mark.parametrize("mode", ["synthetic", "dataset"])
    def test_unknown_trajectory_kind_rejected(self, tmp_path, mode):
        with pytest.raises(ConfigError, match="^trajectory must be one of .*, got 'spiral'"):
            RunConfig(mode=mode, dataset_dir=str(tmp_path), topology="tdoa-main", trajectory="spiral")

    @pytest.mark.parametrize("mode", ["synthetic", "dataset"])
    def test_filter_rate_is_not_checked_against_rate(self, tmp_path, mode):
        # a synthetic flight is sampled at filter_rate, and a dataset's own
        # clock is checked against it at ingest: rate describes neither
        cfg = RunConfig(mode=mode, dataset_dir=str(tmp_path), rate=100.0, filter_rate=30.0, topology="tdoa-main")
        assert cfg.dt == 1.0 / 30.0

    def test_sigma_bounds_accept_their_edges(self):
        cfg = RunConfig(k_sigma=99.9999, gamma_sigma=1.0, sigma_hat0=[0.0, -0.0, 1.0e155])
        assert cfg.initial_state().sigma_hat == (0.0, 0.0, 1.0e155)

    def test_initial_state_variants(self):
        rotvec = [0.0, 0.0, 0.4]
        matrix = RunConfig(r_hat0=rotvec).initial_state()
        quat = RunConfig(r_hat0=rotvec, variant="quaternion").initial_state()
        assert matrix.variant == "matrix" and quat.variant == "quaternion"
        assert np.allclose(matrix.rotation(), quat.rotation(), atol=1e-12)
        assert np.allclose(matrix.p_hat, [-2.0, -3.0, 0.0])


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(["matrix", "quaternion"]),
    st.floats(1.0e-6, 0.999999),
    st.floats(0.01, 10.0),
    st.sampled_from([50.0, 100.0, 200.0]),
    arrays(np.float64, 3, elements=st.floats(0.0, 100.0)),
)
@example("tdoa-ring", "quaternion", 0.999999, 1.0, 100.0, np.array([100.0, 0.0, 0.0]))
def test_accepted_sigma_config_keeps_sigma_hat_nonnegative(topology, variant, decay, gamma_sigma, rate, sigma_hat0):
    # sigma_hat0 >= 0 and k_sigma gamma_sigma dt < 1 keep every Euler step of sigma_hat >= 0
    cfg = RunConfig(duration=0.5, rate=rate, topology=topology, variant=variant, gamma_sigma=gamma_sigma,
                    k_sigma=decay * rate / gamma_sigma, sigma_hat0=sigma_hat0)
    traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": rate}, cfg.env())
    imu, ranges = synthesize_measurements(traj, cfg.anchor_set(), topology, cfg.noise(), cfg.env())
    state = cfg.initial_state()
    for i in range(len(traj) - 1):
        state, _ = step(state, imu[i], ranges[i], cfg.anchor_set(), cfg.env(), cfg.gains(), cfg.dt)
        assert min(state.sigma_hat) >= 0.0, (i, state.sigma_hat)


class TestLoadConfig:
    def test_file_overrides_and_routing(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "trajectory: circle\nradius: 1.5\nperiod: 8.0\nka: 50.0\nseed: 4\n"
        )
        cfg = load_config(path)
        assert cfg.trajectory_params == {"radius": 1.5, "period": 8.0}
        assert cfg.ka == 50.0 and cfg.seed == 4

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("seed: 4\ntopology: tdoa-main\n")
        cfg = load_config(path, {"seed": 11, "topology": None})
        assert cfg.seed == 11
        assert cfg.topology == "tdoa-main"

    def test_defaults_without_file(self):
        assert load_config(None).ka == 70.0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path).kv == 3.0

    @pytest.mark.parametrize(
        "text,match",
        [
            ("bogus_key: 1\n", "unknown config keys"),
            ("- a\n- b\n", "mapping"),
            ("1: a\nbogus_key: b\n", "unknown config keys"),
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, text, match):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_unsigned_exponent_still_numeric(self, tmp_path):
        # YAML 1.1 parses "1e12" as a string; the config must not
        path = tmp_path / "run.yaml"
        path.write_text("ka: 1.0e12\n")
        assert load_config(path).ka == 1.0e12

    def test_non_numeric_scalar_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("ka: seventy\n")
        with pytest.raises(ConfigError, match="number"):
            load_config(path)

    def test_dataset_mode_rejects_toa(self, tmp_path):
        # the dataset layout carries TDOA rows only; replaying them under a
        # toa label would mislabel the run
        path = tmp_path / "run.yaml"
        path.write_text(f"mode: dataset\ndataset_dir: {tmp_path}\ntopology: toa\n")
        with pytest.raises(ConfigError, match="tdoa"):
            load_config(path)

    def test_dataset_dir_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset_dir does not exist"):
            RunConfig(mode="dataset", dataset_dir=str(tmp_path / "absent"))

    @pytest.mark.parametrize("text", [
        (REPLAY_CONFIG.parent / "circle.yaml").read_text(),
        REPLAY_CONFIG.read_text().replace("data/const1", "."),
        "seed: 0x1f\nka: 1e3\ns: [0.5, 1.0, 1.5]\ntrajectory: 'hover'\nout: \"r\"  # text\n",
    ], ids=["circle", "dataset_replay", "mixed"])
    def test_parses_as_the_python_loader_does(self, tmp_path, monkeypatch, text):
        # libyaml's scanner and parser where PyYAML has them, PyYAML's own otherwise
        path = tmp_path / "run.yaml"
        path.write_text(text)
        fast = load_config(path)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        slow = load_config(path)
        for name in RunConfig.__dataclass_fields__:
            a, b = getattr(fast, name), getattr(slow, name)
            assert type(a) is type(b) and (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b), name


class TestMetricsRow:
    """Range checks of a metrics.csv row (``harness._check_metrics``)."""

    def test_accepts_valid_row(self):
        harness._check_metrics(att_err=0.2, pos_err=0.1, vel_err=0.3, sigma_norm=0.4)

    @pytest.mark.parametrize("field,value", [("att_err", 1.5), ("att_err", -0.1),
                                             ("pos_err", -1.0), ("vel_err", -0.2),
                                             ("pos_err", np.nan), ("vel_err", np.nan),
                                             ("pos_err", np.inf), ("vel_err", np.inf),
                                             ("sigma_norm", np.nan), ("sigma_norm", np.inf)])
    def test_rejects_out_of_range(self, field, value):
        kwargs = dict(att_err=0.1, pos_err=0.1, vel_err=0.1, sigma_norm=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            harness._check_metrics(**kwargs)


class TestSynthesizeMeasurements:
    def test_noise_free_streams_are_exact(self):
        traj = _traj()
        env = ReferenceEnvironment()
        anchors = default_anchors()
        imu_stream, ranges = synthesize_measurements(traj, anchors, "toa", None, env)
        assert len(imu_stream) == len(traj) == len(ranges)
        for i in (0, len(traj) // 2, len(traj) - 1):
            vdot = traj.rot[i] @ traj.a[i] + env.g_vec
            clean = imu_sample(traj.rot[i], traj.omega[i], vdot, env)
            assert np.allclose(imu_stream[i].omega_m, clean.omega_m, atol=1e-12)
            assert np.allclose(imu_stream[i].a_m, clean.a_m, atol=1e-12)
            assert np.allclose(imu_stream[i].m_m, clean.m_m, atol=1e-12)
            assert np.allclose(ranges[i].values, toa_ranges(traj.p[i], anchors).values, atol=1e-12)

    @pytest.mark.parametrize("topology", ["tdoa-main", "tdoa-ring"])
    def test_tdoa_topologies_match_forward_model(self, topology):
        traj = _traj(duration=0.5)
        anchors = default_anchors()
        _, ranges = synthesize_measurements(
            traj, anchors, topology, None, ReferenceEnvironment()
        )
        for i in (0, len(traj) - 1):
            expect = tdoa_ranges(traj.p[i], anchors, topology)
            assert np.allclose(ranges[i].values, expect.values, atol=1e-12)

    def test_tag_offset_displaces_ranging_only(self):
        traj = _traj(duration=0.5)
        anchors = default_anchors()
        env = ReferenceEnvironment()
        lever = np.array([-0.012, 0.001, 0.091])
        imu_a, plain = synthesize_measurements(traj, anchors, "tdoa-ring", None, env)
        imu_b, moved = synthesize_measurements(
            traj, anchors, "tdoa-ring", None, env, tag_offset=lever
        )
        assert np.allclose(imu_a[3].a_m, imu_b[3].a_m, atol=1e-15)
        expect = tdoa_ranges(traj.p[0] + traj.rot[0] @ lever, anchors, "tdoa-ring")
        assert np.allclose(moved[0].values, expect.values, atol=1e-12)
        assert not np.allclose(moved[0].values, plain[0].values)

    def test_same_seed_reproduces_stream(self):
        traj = _traj(duration=1.0)
        anchors = default_anchors()
        env = ReferenceEnvironment()
        noise = NoiseSpec(seed=21)
        a = synthesize_measurements(traj, anchors, "toa", noise, env)
        b = synthesize_measurements(traj, anchors, "toa", noise, env)
        assert all(
            np.array_equal(x.a_m, y.a_m) and np.array_equal(x.m_m, y.m_m)
            for x, y in zip(a[0], b[0])
        )
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a[1], b[1]))

    @pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
    @pytest.mark.parametrize("noise", [None, NoiseSpec(seed=13)], ids=["noise-free", "constant"])
    @pytest.mark.parametrize("lever", [None, REPLAY_LEVER], ids=["no-lever", "replay-lever"])
    def test_matches_per_sample_oracle(self, topology, noise, lever):
        traj = _traj(duration=2.0, rate=50.0)
        anchors = default_anchors()
        env = ReferenceEnvironment()
        imu, ranges = synthesize_measurements(traj, anchors, topology, noise, env, lever)
        imu_ref, ranges_ref = synthesize_per_sample(traj, anchors, topology, noise, env, lever)
        for name in ("omega_m", "a_m", "m_m"):
            got = np.array([getattr(s, name) for s in imu])
            assert np.array_equal(got, np.array([getattr(s, name) for s in imu_ref])), name
        got = np.array([r.values for r in ranges])
        assert np.array_equal(got, np.array([r.values for r in ranges_ref]))
        assert {r.topology for r in ranges} == {r.topology for r in ranges_ref} == {topology}

    def test_block_check_names_first_bad_field(self):
        traj = _traj(duration=0.5)
        traj.omega[3, 1] = np.inf
        traj.a[2, 0] = np.nan
        with pytest.raises(ValueError, match="a_m must be a finite 3-vector"):
            synthesize_measurements(traj, default_anchors(), "toa", None, ReferenceEnvironment())


class TestMeasurementBlocks:
    @pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
    def test_rows_hold_the_blocks(self, topology):
        traj = _traj(duration=1.0)
        args = (traj, default_anchors(), topology, NoiseSpec(seed=3), ReferenceEnvironment(), REPLAY_LEVER)
        imu, ranges = measurement_blocks(*args)
        imu_rows, range_rows = synthesize_measurements(*args)
        assert np.array_equal(imu, [[*s.omega_m, *s.a_m, *s.m_m] for s in imu_rows])
        assert np.array_equal(ranges, [r.values for r in range_rows])
        assert {r.topology for r in range_rows} == {topology}

    # one chunk short, exact and over; three chunks and a ragged one
    @pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("kind", ["hover", "circle", "lissajous"])
    def test_chunks_match_whole_flight_pass(self, kind, topology, n):
        traj = _traj(duration=(n - 1) / 50.0, rate=50.0, kind=kind)
        assert len(traj) == n
        env = ReferenceEnvironment()
        for noise in (None, NoiseSpec(seed=n)):
            for lever in (np.zeros(3), REPLAY_LEVER):
                args = (traj, default_anchors(), topology, noise, env, lever)
                for got, want in zip(measurement_blocks(*args), measurement_blocks_whole(*args)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (noise, lever)

    def test_tag_beyond_anchor_limit_is_config_error(self):
        traj = _traj(duration=0.5)
        with pytest.raises(ConfigError, match="tag_offset"):
            measurement_blocks(traj, default_anchors(), "toa", None, ReferenceEnvironment(), np.array([0, 0, 2e150]))

    @pytest.mark.parametrize("lever", [None, REPLAY_LEVER], ids=["no-lever", "lever"])
    def test_tag_beyond_anchor_limit_in_the_last_chunk(self, lever):
        # each chunk checks its own tag positions: a far tag on the flight's last row alone is refused
        traj = _traj(duration=2 * CHUNK / 50.0 + 0.1)
        assert len(sim._chunks(len(traj))) == 3
        traj.p[-1, 0] = 2e150
        with pytest.raises(ConfigError, match=r"^the tag must stay within 1e\+150 of the origin, or its ranges overflow"):
            measurement_blocks(traj, default_anchors(), "tdoa-main", NoiseSpec(seed=1), ReferenceEnvironment(), lever)


def _bits(value) -> tuple:
    """A sample's fields, every float as its hex form, so a signed zero or a NaN counts."""
    return tuple(
        tuple(x.hex() for x in field) if isinstance(field, tuple) else field
        for field in (getattr(value, name) for name in type(value).__slots__)
    )


def _streamed(seq) -> bool:
    """Whether iterating ``seq`` gives, bit for bit, the samples that indexing it forward and backward gives."""
    n, streamed = len(seq), [_bits(x) for x in seq]
    return streamed == [_bits(seq[i]) for i in range(n)] == [_bits(seq[i]) for i in range(-n, 0)]


class TestRowSequence:
    """The per-sample sequences that synthesis and ingest return: each row is built when it is read."""

    @pytest.fixture
    def streams(self):
        args = (_traj(duration=0.5), default_anchors(), "tdoa-ring", NoiseSpec(seed=4), ReferenceEnvironment())
        return measurement_blocks(*args), synthesize_measurements(*args)

    def test_length_and_indexing(self, streams):
        (imu_block, range_block), (imu, ranges) = streams
        n = len(imu_block)
        assert len(imu) == len(ranges) == n
        expect_imu, expect_ranges = imu_rows(imu_block), range_rows(range_block, "tdoa-ring")
        for i in (0, 1, n // 2, n - 1, -1, -2, -n):
            assert _bits(imu[i]) == _bits(expect_imu[i]), i
            assert _bits(ranges[i]) == _bits(expect_ranges[i]), i

    def test_index_past_the_end_stops_iteration(self, streams):
        _, seqs = streams
        for seq in seqs:
            n = len(seq)
            for i in (n, n + 1, -n - 1):
                with pytest.raises(IndexError):
                    seq[i]
            assert len(list(seq)) == n
            assert sum(1 for _ in seq) == n  # a second pass reads the rows again

    @pytest.mark.parametrize("cut", [slice(None, -1), slice(3, 9), slice(None, None, 2), slice(None, None, -3),
                                     slice(5, 2)])
    def test_slice_is_a_sequence_over_the_sliced_rows(self, streams, cut):
        _, seqs = streams
        for seq in seqs:
            part = seq[cut]
            assert type(part) is type(seq)
            rows = range(len(seq))[cut]
            assert len(part) == len(rows)
            assert [_bits(x) for x in part] == [_bits(seq[i]) for i in rows]
            assert _streamed(part)

    def test_empty_block(self):
        rows = harness._Rows(np.empty((0, 9)), ImuSample, 3)
        assert len(rows) == 0 and list(rows) == [] and _streamed(rows)
        with pytest.raises(IndexError):
            rows[0]

    def test_layout_is_one_group_or_three(self):
        for groups in (2, 9):
            with pytest.raises(ValueError, match=f"one field group or three, got {groups}"):
                harness._Rows(np.zeros((4, 9)), ImuSample, groups)

    @pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
    @pytest.mark.parametrize("noise", [None, NoiseSpec(seed=13)], ids=["noise-free", "noise"])
    @pytest.mark.parametrize("lever", [None, REPLAY_LEVER], ids=["no-lever", "replay-lever"])
    def test_rows_match_retired_builders(self, topology, noise, lever):
        args = (_traj(duration=1.0), default_anchors(), topology, noise, ReferenceEnvironment(), lever)
        imu_block, range_block = measurement_blocks(*args)
        imu, ranges = synthesize_measurements(*args)
        assert [_bits(s) for s in imu] == [_bits(s) for s in imu_rows(imu_block)]
        assert [_bits(r) for r in ranges] == [_bits(r) for r in range_rows(range_block, topology)]
        assert _streamed(imu) and _streamed(ranges)

    def test_ingested_rows_match_retired_builders(self, tmp_path):
        traj = _traj(duration=2.0, rate=50.0)
        anchors = default_anchors()
        imu_block, diffs = measurement_blocks(traj, anchors, "tdoa-main", NoiseSpec(seed=6), ReferenceEnvironment())
        out = write_dataset(tmp_path / "ds", traj, anchors, "tdoa-main", imu_block, diffs)
        _, _, imu, ranges = ingest_dataset(out, 10.0, topology="tdoa-main")
        table = np.loadtxt(out / "imu.csv", delimiter=",", skiprows=1)
        assert [_bits(s) for s in imu] == [_bits(s) for s in imu_rows(table[::5, 1:10])]
        assert [_bits(r) for r in ranges] == [_bits(r) for r in range_rows(diffs[::5], "tdoa-main")]
        assert _streamed(imu) and _streamed(ranges)

    def test_streams_hold_only_their_blocks(self):
        # one ImuSample and one Ranges per sample, bulk-built, took ~812 B a ring-TDOA sample;
        # its 9 + 8 readings take 136 B as float64
        traj = _traj(duration=99.99, rate=100.0)
        assert len(traj) == 10_000
        args = (traj, default_anchors(), "tdoa-ring", NoiseSpec(seed=5), ReferenceEnvironment())
        synthesize_measurements(*args)  # a first call may import numpy.random, which stays loaded
        tracemalloc.start()
        try:
            streams = synthesize_measurements(*args)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(streams[0]) == len(traj)
        assert held / len(traj) <= 200, held / len(traj)


class TestWriteCsv:
    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("template", ["default", "estimates"])
    def test_chunks_match_whole_block_writer(self, tmp_path, n, template):
        rng = np.random.default_rng(n)
        # values across the float range, with the signed zeros and NaNs a run can write
        block = rng.standard_normal((n, 17)) * 10.0 ** rng.integers(-300, 300, (n, 17))
        block[::5, 3] = -0.0
        block[::7, 14:16] = np.nan
        if template == "estimates":
            header, row = harness._ESTIMATE_HEADER, ",".join(["%.17g"] * 16 + ["%d"])
            block[:, 16] = rng.integers(0, 2, n)
        else:
            header, row = [f"c{k}" for k in range(17)], None
        harness._write_csv(tmp_path / "chunks.csv", header, block)  # a 0 or 1 reads as %d writes it
        write_csv_whole(tmp_path / "whole.csv", header, block, row)
        written = (tmp_path / "chunks.csv").read_bytes()
        assert written == (tmp_path / "whole.csv").read_bytes()
        assert written.count(b"\n") == n + 1

    def test_memory_does_not_grow_with_length(self, tmp_path):
        # formatting a whole block at once peaked near 580 B per 10-value row
        header = [f"c{k}" for k in range(10)]
        peaks = []
        for n in (10_000, 40_000):
            block = np.random.default_rng(n).standard_normal((n, 10))
            tracemalloc.start()
            try:
                harness._write_csv(tmp_path / "m.csv", header, block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks


class TestFlightMemory:
    """A simulated flight's stages each hold one chunk of temporaries, whatever its length."""

    @pytest.mark.parametrize("stage", ["generate_trajectory", "measurement_blocks", "write_dataset"])
    def test_peak_beyond_result_does_not_grow_with_length(self, tmp_path, stage):
        # whole-flight passes grew this excess by about 9.2 MB (trajectory), 13.0 MB (blocks)
        # and 8.6 MB (dataset) from 10,000 to 40,000 samples of this flight
        env, anchors = ReferenceEnvironment(), default_anchors()
        excess = []
        for n in (10_000, 40_000):
            params = {"p0": [2.0, 0.0, 1.5], "duration": (n - 1) / 500.0, "rate": 500.0}
            traj = generate_trajectory("circle", params, env)
            args = (traj, anchors, "tdoa-main", NoiseSpec(seed=1), env, REPLAY_LEVER)
            blocks = measurement_blocks(*args)  # a first call may import numpy.random, which stays loaded
            run = {
                "generate_trajectory": lambda: generate_trajectory("circle", params, env),
                "measurement_blocks": lambda: measurement_blocks(*args),
                "write_dataset": lambda: write_dataset(tmp_path / "ds", traj, anchors, "tdoa-main", *blocks),
            }[stage]
            tracemalloc.start()
            try:
                result = run()  # noqa: F841 -- held while the traced memory is read
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            excess.append(peak - held)
        assert abs(excess[1] - excess[0]) < 1_000_000, excess


class TestRunMemory:
    """A run's history is one float block and its tail a chunk at a time: the traced peak per step is what it holds.

    Each variant's peak is measured once (about 7 s, tracemalloc's cost) and read by both cases.
    """

    @pytest.fixture(scope="class", params=["matrix", "quaternion"])
    def per_step(self, request, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp(request.param)

        def stock_toa(duration):
            overrides = {"duration": duration, "variant": request.param, "out": str(tmp_path / f"{duration:g}")}
            return load_config(REPLAY_CONFIG.parent / "circle.yaml", overrides)

        run_experiment(stock_toa(1.0))  # untraced: loads what a run imports lazily
        peaks = {}
        for duration in (10.0, 40.0):
            tracemalloc.start()
            try:
                assert run_experiment(stock_toa(duration))["topology"] == "toa"
                peaks[duration] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return (peaks[40.0] - peaks[10.0]) / 3000, peaks

    def test_peak_per_added_step(self, per_step):
        # a FilterState and a Diagnostics kept per step, stacked afterwards,
        # grew the peak by about 1,800 B (matrix) and 1,500 B (quaternion) per step
        assert per_step[0] <= 1000, per_step

    def test_tail_holds_no_whole_run_temporaries(self, per_step):
        # the truth (176 B), measurement blocks (136 B), history (168 B matrix, 128 B quaternion)
        # and four error columns (32 B) are held; the metrics, estimates and quaternion blocks
        # built whole over them once peaked at about 722 B (matrix) and 754 B (quaternion)
        assert per_step[0] <= 600, per_step


class TestWriteDataset:
    @pytest.mark.parametrize("topology", ["tdoa-main", "tdoa-ring"])
    @pytest.mark.parametrize("noise", [None, NoiseSpec(seed=13)], ids=["noise-free", "noise"])
    @pytest.mark.parametrize("lever", [np.zeros(3), REPLAY_LEVER], ids=["zero-offset", "replay-lever"])
    # 101 samples, inside one write chunk; 3 chunks and a ragged last one
    @pytest.mark.parametrize("duration", [2.0, (3 * CHUNK + 6) / 50.0], ids=["one-chunk", "ragged-chunks"])
    def test_matches_row_writer(self, tmp_path, topology, noise, lever, duration):
        traj = _traj(duration=duration, rate=50.0)
        assert duration == 2.0 or (len(traj) > 3 * CHUNK and len(traj) % CHUNK)
        args = (traj, default_anchors(), topology, noise, ReferenceEnvironment(), lever)
        write_dataset(tmp_path / "blocks", traj, default_anchors(), topology, *measurement_blocks(*args))
        write_dataset_rows(tmp_path / "rows", traj, default_anchors(), *synthesize_measurements(*args))
        for name in ("truth.csv", "imu.csv", "anchors.csv", "tdoa.csv"):
            assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "rows" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "topology,imu_cols,diff_cols,match",
        [("toa", 9, 8, "tdoa topology"), ("tdoa", 9, 7, "tdoa topology"),
         ("tdoa-main", 6, 7, r"\(26, 9\) IMU block"), ("tdoa-main", 9, 8, r"\(26, 7\) range block")],
    )
    def test_rejects_what_it_cannot_write(self, tmp_path, topology, imu_cols, diff_cols, match):
        traj = _traj(duration=0.5, rate=50.0)
        with pytest.raises(SchemaError, match=match):
            write_dataset(tmp_path / "ds", traj, default_anchors(), topology,
                          np.zeros((len(traj), imu_cols)), np.zeros((len(traj), diff_cols)))
        assert not (tmp_path / "ds").exists()


class TestWriteSets:
    """Each artifact set, written in one pass with shared values formatted once, has the bytes of the plain writer.

    The plain writer (``reference.write_dataset_whole``, ``write_run_whole``) formats every file on its own
    through one ``%.17g`` template over its whole table; the flights end at the chunk edges.
    """

    SAMPLES = [2, CHUNK, CHUNK + 1, 2 * CHUNK + 1]

    @staticmethod
    def _same_files(tmp_path, names):
        for name in names:
            assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("topology", ["tdoa-main", "tdoa-ring"])
    def test_dataset_matches_whole_file_writer(self, tmp_path, samples, topology):
        traj = _traj(duration=(samples - 1) / 50.0)
        assert len(traj) == samples
        args = (traj, default_anchors(), topology, NoiseSpec(seed=samples), ReferenceEnvironment(), REPLAY_LEVER)
        imu, diffs = measurement_blocks(*args)
        imu[::3, 4] = diffs[::2, 1] = -0.0
        write_dataset(tmp_path / "set", traj, default_anchors(), topology, imu, diffs)
        write_dataset_whole(tmp_path / "whole", traj, default_anchors(), topology, imu, diffs)
        self._same_files(tmp_path, ["truth.csv", "imu.csv", "anchors.csv", "tdoa.csv"])
        assert b",-0\n" in (tmp_path / "set" / "tdoa.csv").read_bytes()

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_run_matches_whole_file_writer(self, tmp_path, samples, variant):
        traj = _traj(duration=(samples - 1) / 50.0)
        n, k = samples - 1, 9 if variant == "matrix" else 4
        rng = np.random.default_rng(samples)
        history = rng.standard_normal((n, k + 12)) * 10.0 ** rng.integers(-8, 8, (n, k + 12))
        rot = traj.rot[::-1][:n]  # rotations, not the truth's own
        history[:, :k] = rot.reshape(n, 9) if k == 9 else liegroup.rot_to_quat(rot)
        history[:, -1] = 0.0
        history[::3, -3:] = [np.nan, np.nan, 1.0]  # dropout rows
        history[1::4, [k, k + 6, -3]] = -0.0
        errors = np.abs(rng.standard_normal((4, n)))
        errors[1, ::5] = -0.0
        (tmp_path / "set").mkdir()
        harness._write_run(tmp_path / "set", traj, history, errors)
        write_run_whole(tmp_path / "whole", traj, history, errors)
        self._same_files(tmp_path, ["truth.csv", "estimates.csv", "metrics.csv"])
        estimates = (tmp_path / "set" / "estimates.csv").read_text()
        assert ",nan,nan,1\n" in estimates and (n < 2 or ",-0," in estimates)


class TestDatasetRoundTrip:
    @pytest.fixture
    def dataset(self, tmp_path):
        traj = _traj(duration=2.0, rate=50.0)
        anchors = default_anchors()
        env = ReferenceEnvironment()
        imu, diffs = measurement_blocks(traj, anchors, "tdoa-ring", NoiseSpec(seed=5), env)
        out = write_dataset(tmp_path / "ds", traj, anchors, "tdoa-ring", imu, diffs)
        return out, traj, imu, diffs

    def test_files_written(self, dataset):
        out = dataset[0]
        for name in ("truth.csv", "imu.csv", "anchors.csv", "tdoa.csv"):
            assert (out / name).exists()

    def test_full_rate_round_trip(self, dataset):
        out, traj, imu, diffs = dataset
        got_traj, got_anchors, got_imu, got_ranges = ingest_dataset(out, 50.0)
        assert np.allclose(got_traj.t, traj.t, atol=1e-12)
        assert np.allclose(got_traj.p, traj.p, atol=1e-12)
        assert max(
            np.abs(got_traj.rot[i] - traj.rot[i]).max() for i in range(len(traj))
        ) < 1e-12
        assert np.allclose(got_anchors.anchors, default_anchors().anchors)
        assert np.allclose(got_imu[7].a_m, imu[7, 3:6], atol=1e-15)
        assert np.allclose(got_ranges[7].values, diffs[7], atol=1e-15)
        # velocity comes back through the derivative reconstruction
        assert np.max(np.linalg.norm(got_traj.v - traj.v, axis=1)) < 1e-3

    def test_decimation_keeps_every_fifth(self, dataset):
        out, traj, imu, diffs = dataset
        got_traj, _, got_imu, got_ranges = ingest_dataset(out, 10.0)
        assert len(got_traj) == (len(traj) + 4) // 5
        assert np.allclose(got_traj.t, traj.t[::5], atol=1e-12)
        assert np.allclose(got_ranges[1].values, diffs[5], atol=1e-15)
        assert np.allclose(got_imu[1].omega_m, imu[5, 0:3], atol=1e-15)

    @pytest.mark.parametrize("filter_rate", [50.0, 10.0])
    def test_decimated_arrays_own_their_data(self, dataset, filter_rate):
        # a view would keep the whole full-rate table alive through the run
        traj, _, imu, _ = ingest_dataset(dataset[0], filter_rate)
        for name in ("t", "p", "v"):
            assert getattr(traj, name).base is None, name
        assert imu._rows.obj.base is None, "imu"

    def test_non_integer_decimation_rejected(self, dataset):
        with pytest.raises(ConfigError, match="decimation"):
            ingest_dataset(dataset[0], 30.0)

    def test_main_topology_round_trip(self, tmp_path):
        traj = _traj(duration=0.5, rate=50.0)
        anchors = default_anchors()
        imu, diffs = measurement_blocks(traj, anchors, "tdoa-main", None, ReferenceEnvironment())
        out = write_dataset(tmp_path / "ds", traj, anchors, "tdoa-main", imu, diffs)
        _, _, _, got = ingest_dataset(out, 50.0, topology="tdoa-main")
        assert np.allclose(got[3].values, diffs[3], atol=1e-15)

    def test_toa_topology_rejected(self, dataset):
        with pytest.raises(ConfigError, match="tdoa"):
            ingest_dataset(dataset[0], 50.0, topology="toa")

    def test_too_few_anchors_is_schema_error(self, tmp_path):
        # a self-consistent main-topology dataset whose four anchors cannot
        # support a fix
        four = AnchorSet(anchors=default_anchors().anchors[[0, 1, 2, 4]])
        traj = _traj(duration=0.5, rate=50.0)
        imu, diffs = measurement_blocks(traj, four, "tdoa-main", None, ReferenceEnvironment())
        out = write_dataset(tmp_path / "ds", traj, four, "tdoa-main", imu, diffs)
        with pytest.raises(SchemaError, match="anchors.csv: anchors give no tdoa-main fix: need at least 5 anchors, got 4"):
            ingest_dataset(out, 50.0, topology="tdoa-main")

    @pytest.mark.parametrize("topology", TOPOLOGIES[1:])
    @pytest.mark.parametrize("anchors", [PLANAR_ANCHORS, NEAR_PLANAR_ANCHORS], ids=["planar", "near-planar"])
    def test_anchors_that_give_no_fix_are_schema_error(self, dataset, topology, anchors):
        out = dataset[0]
        rows = "".join(f"{k},{x!r},{y!r},{z!r}\n" for k, (x, y, z) in enumerate(anchors, 1))
        (out / "anchors.csv").write_text("id,x,y,z\n" + rows)
        with pytest.raises(SchemaError, match=f"^anchors.csv: anchors give no {topology} fix: "):
            ingest_dataset(out, 50.0, topology=topology)

    def test_anchor_rows_in_any_order(self, dataset):
        out = dataset[0]
        header, *rows = (out / "anchors.csv").read_text().splitlines()
        (out / "anchors.csv").write_text("\n".join([header, *rows[::-1]]) + "\n")
        assert np.array_equal(ingest_dataset(out, 50.0)[1].anchors, default_anchors().anchors)

    @pytest.mark.parametrize("ids", [[1, 1, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 9], [0, 1, 2, 3, 4, 5, 6, 7]])
    def test_anchor_ids_must_number_the_anchors(self, dataset, ids):
        # ids other than 1..N were once sorted and renumbered silently
        out = dataset[0]
        header, *rows = (out / "anchors.csv").read_text().splitlines()
        rows = [",".join([str(i)] + row.split(",")[1:]) for i, row in zip(ids, rows)]
        (out / "anchors.csv").write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(SchemaError, match="anchors.csv: ids must be 1 to 8, each once"):
            ingest_dataset(out, 50.0)

    def test_missing_file_names_it(self, dataset):
        (dataset[0] / "imu.csv").unlink()
        with pytest.raises(SchemaError, match="imu.csv"):
            ingest_dataset(dataset[0], 50.0)

    def test_missing_column_names_it(self, dataset):
        out = dataset[0]
        lines = (out / "truth.csv").read_text().splitlines()
        lines[0] = lines[0].replace(",qw", ",w")
        (out / "truth.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="qw"):
            ingest_dataset(out, 50.0)

    def test_bad_cell_is_schema_error(self, dataset):
        out = dataset[0]
        lines = (out / "imu.csv").read_text().splitlines()
        parts = lines[3].split(",")
        parts[2] = "not-a-number"
        lines[3] = ",".join(parts)
        (out / "imu.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="imu.csv"):
            ingest_dataset(out, 50.0)

    @pytest.mark.parametrize(
        "name,column",
        [("imu.csv", "mx"), ("tdoa.csv", "d"), ("anchors.csv", "x"), ("truth.csv", "qw")],
    )
    def test_non_finite_cell_is_schema_error(self, dataset, name, column):
        out = dataset[0]
        lines = (out / name).read_text().splitlines()
        parts = lines[3].split(",")
        parts[lines[0].split(",").index(column)] = "nan"
        lines[3] = ",".join(parts)
        (out / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"{name}: non-finite value in column '{column}'"):
            ingest_dataset(out, 50.0)

    def test_non_unit_truth_quaternion_is_schema_error(self, dataset):
        out = dataset[0]
        lines = (out / "truth.csv").read_text().splitlines()
        parts = lines[3].split(",")
        parts[4] = "5"
        lines[3] = ",".join(parts)
        (out / "truth.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"truth.csv: columns 'qw'..'qz' are not a unit quaternion \(data row 3\)"):
            ingest_dataset(out, 50.0)

    def test_non_monotone_clock_rejected(self, dataset):
        out = dataset[0]
        for name in ("truth.csv", "imu.csv"):
            lines = (out / name).read_text().splitlines()
            lines[2], lines[3] = lines[3], lines[2]
            (out / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(ClockError, match="^truth.csv: timestamps must be strictly increasing$"):
            ingest_dataset(out, 50.0)

    def test_clock_mismatch_rejected(self, dataset):
        out = dataset[0]
        lines = (out / "imu.csv").read_text().splitlines()
        parts = lines[1].split(",")
        parts[0] = "0.003"
        lines[1] = ",".join(parts)
        (out / "imu.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ClockError, match="disagree"):
            ingest_dataset(out, 50.0)

    def test_wrong_pair_pattern_rejected(self, dataset):
        out = dataset[0]
        lines = (out / "tdoa.csv").read_text().splitlines()
        parts = lines[1].split(",")
        parts[1], parts[2] = "3", "7"
        lines[1] = ",".join(parts)
        (out / "tdoa.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="topology"):
            ingest_dataset(out, 50.0)

    def test_nearest_tick_hold(self, tmp_path):
        # TDOA groups sit half a tick after the IMU clock and stop two ticks
        # early: every tick is halfway between two groups (the earlier one
        # wins), the first tick precedes every group, the last two follow them
        traj = _traj(duration=2.0, rate=4.0)
        anchors = default_anchors()
        imu, diffs = measurement_blocks(traj, anchors, "tdoa-ring", NoiseSpec(seed=2), ReferenceEnvironment())
        out = write_dataset(tmp_path / "ds", traj, anchors, "tdoa-ring", imu, diffs)
        k = len(anchors)
        lines = (out / "tdoa.csv").read_text().splitlines()
        header, rows = lines[0], lines[1:]
        shifted = []
        for g in range(len(traj) - 2):
            for row in rows[g * k : (g + 1) * k]:
                shifted.append(",".join([repr(g / 4 + 0.125)] + row.split(",")[1:]))
        (out / "tdoa.csv").write_text("\n".join([header] + shifted) + "\n")
        _, _, _, got = ingest_dataset(out, 4.0)
        times = np.arange(len(traj) - 2) / 4 + 0.125
        argmin_rule = [int(np.argmin(np.abs(times - tick))) for tick in traj.t]
        assert argmin_rule == [0, 0, 1, 2, 3, 4, 5, 6, 6]
        for tick, group in enumerate(argmin_rule):
            assert np.array_equal(got[tick].values, diffs[group])

    def test_unordered_tdoa_clock_rejected(self, dataset):
        out = dataset[0]
        lines = (out / "tdoa.csv").read_text().splitlines()
        k = len(default_anchors())
        lines[1 + k : 1 + 2 * k], lines[1 + 2 * k : 1 + 3 * k] = (
            lines[1 + 2 * k : 1 + 3 * k], lines[1 + k : 1 + 2 * k]
        )
        (out / "tdoa.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ClockError, match="tdoa.csv"):
            ingest_dataset(out, 50.0)

    @pytest.mark.filterwarnings("error")
    def test_empty_tdoa_rejected(self, dataset):
        out = dataset[0]
        (out / "tdoa.csv").write_text("t,i,j,d\n")
        with pytest.raises(SchemaError, match="tdoa.csv has no rows"):
            ingest_dataset(out, 50.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_table_reads_empty(self, tmp_path, body):
        # no data rows is an empty table, with no loadtxt warning on the way
        path = tmp_path / "tdoa.csv"
        path.write_text("t,i,j,d\n" + body)
        assert harness._read_csv(path, ["t", "i", "j", "d"]).shape == (0, 4)

    @pytest.mark.parametrize("body,message", [
        # text that float() reads and numpy's parser does not
        ("0.0,1,2,0.5\n1_0,1,2,0.5\n", "non-numeric value '1_0' in column 't' (data row 2)"),
        ("0.0,1,2,0.5\n１,1,2,0.5\n", "non-numeric value '１' in column 't' (data row 2)"),
        # a whitespace-only line is a data row; an empty one is not
        ("0.0,1,2,0.5\n\n   \n1.0,1,2,0.5\n", "non-numeric value '   ' in column 't' (data row 2)"),
        ("0.0,1,2,0.5\n1.0,1,2,0.5\n \t\n", "non-numeric value ' \\t' in column 't' (data row 3)"),
        (" \n", "non-numeric value ' ' in column 't' (data row 1)"),
        # the schema defines no comments: a '#' line or cell tail is a bad cell, not skipped or cut off
        ("0.0,1,2,0.5\n# note\n1.0,1,2,0.5\n", "non-numeric value '# note' in column 't' (data row 2)"),
        ("0.0,1,2,0.5#junk\n1.0,1,2,0.5\n", "non-numeric value '0.5#junk' in column 'd' (data row 1)"),
    ], ids=["underscore", "full-width", "blank-between", "blank-after", "blank-only", "comment-line", "comment-tail"])
    def test_cell_numpy_refuses_is_named(self, tmp_path, body, message):
        # numpy's own message, with 0-based rows, once reached the user
        path = tmp_path / "tdoa.csv"
        path.write_text("t,i,j,d\n" + body, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            harness._read_csv(path, ["t", "i", "j", "d"])
        assert str(err.value) == f"tdoa.csv: {message}"

    def test_short_tick_rejected(self, dataset):
        out = dataset[0]
        lines = (out / "tdoa.csv").read_text().splitlines()
        del lines[4]
        (out / "tdoa.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="rows"):
            ingest_dataset(out, 50.0)

    @pytest.mark.parametrize("edit", ["swap", "delete"])
    def test_malformed_tick_between_filter_ticks_rejected(self, dataset, edit):
        # at 10 Hz only every 5th 50 Hz tick is replayed; the rows of the
        # ticks in between were once never checked
        out = dataset[0]
        k = len(default_anchors())
        lines = (out / "tdoa.csv").read_text().splitlines()
        row = 1 + k + 2  # third row of the second tick
        if edit == "swap":
            lines[row], lines[row + 1] = lines[row + 1], lines[row]
        else:
            del lines[row]
        (out / "tdoa.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="t=0.02"):
            ingest_dataset(out, 10.0)

    def test_fractional_pair_id_rejected(self, dataset):
        # an id of 1.5 once read as anchor 1
        out = dataset[0]
        lines = (out / "tdoa.csv").read_text().splitlines()
        parts = lines[3].split(",")
        lines[3] = ",".join([parts[0], parts[1] + ".5"] + parts[2:])
        (out / "tdoa.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="anchor pairs at t=0 do not match"):
            ingest_dataset(out, 50.0)


# anchor sets that give no fix under some topology: below a floor, rank deficient, or ill-conditioned
UNFIXABLE = {
    "three": default_anchors().anchors[:3],
    "four": default_anchors().anchors[[0, 1, 2, 4]],
    "collinear": np.array([[float(k), 0.0, 0.0] for k in range(5)]),
    "coplanar": np.array(PLANAR_ANCHORS),
    "near-coplanar": near_coplanar_anchors().anchors,
}


@pytest.mark.parametrize(
    "topology,case", [(t, c) for t in TOPOLOGIES for c in UNFIXABLE if (t, c) != ("toa", "four")]
)
def test_config_ingest_and_solve_give_one_reason(tmp_path, topology, case):
    # the anchor set's one verdict: a solve raises its reason, the config
    # refuses with it (exit 2) and a replayed anchors.csv with it (exit 3)
    points = UNFIXABLE[case]
    anchors = AnchorSet(anchors=points)
    with pytest.raises(GeometryDegenerate) as solved:
        solve_fix(anchors, tdoa_ranges(np.array([0.3, -0.2, 1.1]), anchors, topology))
    reason = str(solved.value)
    assert reason.startswith(f"anchors give no {topology} fix: ")
    with pytest.raises(ConfigError) as configured:
        RunConfig(topology=topology, anchors=points, out=str(tmp_path / "run"))
    assert str(configured.value) == reason
    if topology == "toa":  # the dataset layout carries TDOA rows only
        return
    traj = _traj(duration=0.5)
    ring = default_anchors()
    out = write_dataset(tmp_path / "ds", traj, ring, topology, *measurement_blocks(
        traj, ring, topology, None, ReferenceEnvironment()))
    (out / "anchors.csv").write_text("id,x,y,z\n" + "".join(
        f"{k},{x!r},{y!r},{z!r}\n" for k, (x, y, z) in enumerate(points.tolist(), 1)))
    with pytest.raises(SchemaError) as ingested:
        ingest_dataset(out, 50.0, topology)
    assert str(ingested.value) == f"anchors.csv: {reason}"


class TestRunExperiment:
    def test_writes_artifacts_and_summary(self, tmp_path):
        cfg = RunConfig(duration=2.0, topology="toa", seed=1, out=str(tmp_path / "run"))
        summary = run_experiment(cfg)
        for name in ("truth.csv", "estimates.csv", "metrics.csv", "summary.json"):
            assert (tmp_path / "run" / name).exists()
        assert summary["steps"] == 200
        assert summary["dropouts"] == 0
        assert summary["final"]["pos_err"] < 0.5

    def test_hover_zero_noise_perfect_init_stays_put(self, tmp_path):
        cfg = RunConfig(
            trajectory="hover",
            trajectory_params={"p0": [0.5, -0.5, 1.5]},
            duration=2.0,
            topology="toa",
            sigma_omega=0.0, sigma_a=0.0, sigma_m=0.0, sigma_range=0.0,
            p_hat0=[0.5, -0.5, 1.5],
            out=str(tmp_path / "run"),
        )
        summary = run_experiment(cfg)
        m = np.loadtxt(tmp_path / "run" / "metrics.csv", delimiter=",", skiprows=1)
        assert np.max(m[:, 1]) < 1e-9
        assert np.max(m[:, 2]) < 1e-6
        assert np.max(m[:, 3]) < 1e-6
        assert summary["time_to_pos_below_0.3"] == pytest.approx(cfg.dt)

    def test_same_seed_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            cfg = RunConfig(duration=1.0, seed=17, out=str(tmp_path / name))
            run_experiment(cfg)
            blobs.append((tmp_path / name / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seed_differs(self, tmp_path):
        blobs = []
        for seed in (1, 2):
            cfg = RunConfig(duration=1.0, seed=seed, out=str(tmp_path / str(seed)))
            run_experiment(cfg)
            blobs.append((tmp_path / str(seed) / "metrics.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_quaternion_variant_runs(self, tmp_path):
        cfg = RunConfig(
            duration=1.0, variant="quaternion", topology="toa", seed=2,
            out=str(tmp_path / "q"),
        )
        assert run_experiment(cfg)["variant"] == "quaternion"

    def test_dataset_mode_round_trip(self, tmp_path):
        traj = _traj(duration=2.0, rate=100.0)
        anchors = default_anchors()
        imu, diffs = measurement_blocks(traj, anchors, "tdoa-ring", NoiseSpec(seed=5), ReferenceEnvironment())
        ds = write_dataset(tmp_path / "ds", traj, anchors, "tdoa-ring", imu, diffs)
        cfg = RunConfig(
            mode="dataset", dataset_dir=str(ds), filter_rate=50.0, rate=100.0,
            out=str(tmp_path / "run"),
        )
        summary = run_experiment(cfg)
        assert summary["steps"] == 100

    @pytest.mark.parametrize("mode", ["synthetic", "dataset"])
    def test_steps_read_each_stream_in_one_pass(self, tmp_path, monkeypatch, mode):
        # indexing both streams every step cost a __getitem__ frame and a row split per sample
        if mode == "dataset":
            traj = _traj(duration=1.0, rate=50.0)
            blocks = measurement_blocks(traj, default_anchors(), "tdoa-ring", NoiseSpec(seed=5), ReferenceEnvironment())
            ds = write_dataset(tmp_path / "ds", traj, default_anchors(), "tdoa-ring", *blocks)
            cfg = RunConfig(mode="dataset", dataset_dir=str(ds), filter_rate=50.0, out=str(tmp_path / "run"))
        else:
            cfg = RunConfig(duration=0.5, topology="toa", seed=1, out=str(tmp_path / "run"))
        passes, streaming = [], harness._Rows.__iter__

        def indexing(rows, i):
            raise AssertionError(f"a stream was indexed at {i!r}")

        monkeypatch.setattr(harness._Rows, "__getitem__", indexing)
        monkeypatch.setattr(harness._Rows, "__iter__", lambda rows: passes.append(rows) or streaming(rows))
        assert run_experiment(cfg)["steps"] == 50
        assert [type(next(streaming(rows))) for rows in passes] == [ImuSample, Ranges]

    def test_runaway_gain_raises_numerical_failure(self, tmp_path):
        cfg = RunConfig(
            duration=2.0, topology="toa", seed=0, ka=1e12,
            out=str(tmp_path / "run"),
        )
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
            run_experiment(cfg)

    @pytest.mark.parametrize("duration,steps", [(2.0, 200), (1.007, 101)])
    def test_filter_rate_clocks_synthetic_truth(self, tmp_path, monkeypatch, duration, steps):
        # the flight is sampled at filter_rate, not at rate and then strided
        # down: a duration rounds to whole filter periods, and the truth the
        # run holds is the flight's own arrays, no view of a larger one
        seen = []

        def recording(traj, *args):
            seen.append(traj)
            return synthesize_measurements(traj, *args)

        monkeypatch.setattr(harness, "synthesize_measurements", recording)
        cfg = RunConfig(
            duration=duration, rate=500.0, filter_rate=100.0, topology="toa", seed=3,
            out=str(tmp_path / "run"),
        )
        assert run_experiment(cfg)["steps"] == steps
        assert np.array_equal(seen[0].t, np.arange(steps + 1) / 100.0)
        for name, values in vars(seen[0]).items():
            assert values.base is None, name

    def test_synthetic_flight_is_sampled_on_the_filter_clock(self, tmp_path):
        # once the 500 Hz flight strided by 5 to within 1% of 99.5 Hz: samples
        # 0.01 s apart, each stepped with dt = 1/99.5 s, and exit 0
        cfg = RunConfig(duration=2.0, rate=500.0, filter_rate=99.5, topology="toa", seed=3, out=str(tmp_path / "run"))
        summary = run_experiment(cfg)
        t = np.loadtxt(tmp_path / "run" / "estimates.csv", delimiter=",", skiprows=1, usecols=0)
        assert np.allclose(np.diff(t), cfg.dt, rtol=1e-9, atol=0.0)
        assert summary["steps"] == 199


class TestRecomputeMetrics:
    def test_matches_run_metrics(self, tmp_path):
        out = tmp_path / "run"
        cfg = RunConfig(duration=2.0, topology="toa", seed=8, out=str(out))
        run_experiment(cfg)
        orig = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1)
        n = recompute_metrics(out / "estimates.csv", out / "truth.csv", out / "again.csv")
        redo = np.loadtxt(out / "again.csv", delimiter=",", skiprows=1)
        assert n == len(orig)
        assert np.allclose(orig[:, 2], redo[:, 2], atol=1e-15)
        assert np.allclose(orig[:, 1], redo[:, 1], atol=1e-12)
        assert np.allclose(orig[:, 3], redo[:, 3], atol=1e-3)

    def test_sigma_norm_matches_run(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(RunConfig(duration=2.0, topology="tdoa-ring", seed=4, out=str(out)))
        recompute_metrics(out / "estimates.csv", out / "truth.csv", out / "again.csv")
        orig = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1)
        redo = np.loadtxt(out / "again.csv", delimiter=",", skiprows=1)
        assert np.array_equal(orig[:, 4], redo[:, 4])

    def test_nearest_truth_sample(self, tmp_path):
        # estimates halfway between truth samples take the earlier one;
        # before the first and after the last, the end samples
        t_truth = np.arange(9) / 4
        truth = tmp_path / "truth.csv"
        truth.write_text(
            "t,px,py,pz,qw,qx,qy,qz\n"
            + "".join(f"{t!r},{k}.0,0,0,1,0,0,0\n" for k, t in enumerate(t_truth.tolist()))
        )
        t_est = np.array([-0.1, 0.125, 0.375, 1.875, 2.1])
        est = tmp_path / "estimates.csv"
        est.write_text(
            "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,s1,s2,s3,e_r,py_residual,dropout\n"
            + "".join(f"{t!r},0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0\n" for t in t_est.tolist())
        )
        assert recompute_metrics(est, truth, tmp_path / "m.csv") == len(t_est)
        pos = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)[:, 2]
        argmin_rule = [int(np.argmin(np.abs(t_truth - t))) for t in t_est]
        assert argmin_rule == [0, 0, 1, 7, 8]
        assert np.array_equal(pos, np.array(argmin_rule, dtype=float))

    @pytest.mark.filterwarnings("error")
    def test_empty_estimates_give_header_only(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(RunConfig(duration=1.0, topology="toa", seed=8, out=str(out)))
        header = (out / "estimates.csv").read_text().splitlines()[0]
        (out / "estimates.csv").write_text(header + "\n")
        assert recompute_metrics(out / "estimates.csv", out / "truth.csv", out / "m.csv") == 0
        assert (out / "m.csv").read_text() == "t,att_err,pos_err,vel_err,sigma_norm,e_r,py_residual\n"

    def test_rejects_foreign_estimates_header(self, tmp_path):
        bad = tmp_path / "estimates.csv"
        bad.write_text("t,x\n0,1\n")
        with pytest.raises(SchemaError):
            recompute_metrics(bad, bad, tmp_path / "out.csv")

    def test_rejects_non_increasing_truth_clock(self, tmp_path):
        # the rule ingest_dataset applies to truth.csv, with its message
        out = tmp_path / "run"
        run_experiment(RunConfig(duration=1.0, topology="toa", seed=8, out=str(out)))
        lines = (out / "truth.csv").read_text().splitlines()
        lines[3] = lines[2]
        (out / "truth.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ClockError, match="^truth.csv: timestamps must be strictly increasing$"):
            recompute_metrics(out / "estimates.csv", out / "truth.csv", out / "x.csv")

    def test_rejects_truth_clock_gap(self, tmp_path):
        out = tmp_path / "run"
        cfg = RunConfig(duration=1.0, topology="toa", seed=8, out=str(out))
        run_experiment(cfg)
        lines = (out / "truth.csv").read_text().splitlines()
        (out / "truth.csv").write_text("\n".join(lines[:1] + lines[1:20:4]) + "\n")
        with pytest.raises(ClockError):
            recompute_metrics(out / "estimates.csv", out / "truth.csv", out / "x.csv")
