"""The per-step values: one slotted dataclass of floats each, checked at the boundary.

The values a filter step passes between its layers hold Python floats (see
the "Cost" note of ``uwbnav.navfilter``).  Inputs (states, IMU samples,
range sets) and step intermediates (triads, corrections, diagnostics)
alike are plain, non-frozen ``@dataclass(slots=True)`` classes whose public
fields are the float tuples themselves, with no checking constructor; a fix
is the solver's position itself, a float 3-tuple.  Inputs are checked once, where they enter: ``RunConfig``
gates the initial state, and the harness checks each IMU and range block
whole (``_check_imu``, ``_check_ranges``) and builds each sample from the
block when a step reads it; each step producer runs its checks before it
builds its value.
These tests pin that boundary:

- every value a real step builds or reads, through every layer, is such a
  dataclass, has no instance ``__dict__`` and holds only Python floats (a
  numpy scalar that slipped into the storage would slow every later layer),
  and every fix is a 3-tuple of Python floats; so is every sample a
  replayed dataset's streams build;
- the boundary checks reject a non-finite or mis-shaped initial state, and
  a non-finite reading or a negative TOA range anywhere in a block, with
  their named errors.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uwbnav import navfilter
from uwbnav.attitude import _check_imu
from uwbnav.harness import ConfigError, RunConfig, default_anchors, ingest_dataset, load_config, measurement_blocks
from uwbnav.harness import synthesize_measurements, write_dataset
from uwbnav.sim import generate_trajectory
from uwbnav.uwb import AnchorSet, Ranges, _check_ranges, _range_block, solve_fix

SCALARS = (float, bool, str, type(None))


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _check_storage(obj) -> None:
    """``obj`` is a non-frozen slotted dataclass with no own ``__new__``, holding only Python floats, flags and text."""
    cls = type(obj)
    assert dataclasses.is_dataclass(obj) and not cls.__dataclass_params__.frozen, f"{cls.__name__} is not a dataclass"
    assert cls.__new__ is object.__new__, f"{cls.__name__} has a constructor of its own"
    assert not hasattr(obj, "__dict__"), f"{cls.__name__} has an instance __dict__"
    slots = [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())]
    assert slots == [f.name for f in dataclasses.fields(obj)], f"{cls.__name__} slots {slots}"
    for name in slots:
        leaves = list(_leaves(getattr(obj, name)))
        bad = [type(x).__name__ for x in leaves if type(x) not in SCALARS]
        assert not bad, f"{cls.__name__}.{name} holds {bad}"


LAYERS = ("solve_fix", "build_triads", "correction_terms", "predict", "update", "step_with_fix")


@pytest.mark.parametrize("variant", ["matrix", "quaternion"])
@pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
def test_every_value_a_step_builds_is_slotted_floats(monkeypatch, topology, variant):
    cfg = load_config(None, {"topology": topology, "variant": variant, "duration": 0.5})
    env, anchors = cfg.env(), cfg.anchor_set()
    traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, env)
    imu, ranges = synthesize_measurements(traj, anchors, cfg.topology, cfg.noise(), env)
    built, fixes = [*imu, *ranges], []

    def recording(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if fn is solve_fix:
                fixes.append(result)
            else:
                built.extend(result if isinstance(result, tuple) else (result,))
            return result

        return wrapper

    for name in LAYERS:
        monkeypatch.setattr(navfilter, name, recording(getattr(navfilter, name)))
    state = cfg.initial_state()
    for i in range(len(traj) - 1):
        state, diag = navfilter.step(state, imu[i], ranges[i], anchors, env, cfg.gains(), cfg.dt)
        built += [state, diag]
    # a dropout: three anchors support no solve
    few, obs = AnchorSet(anchors=default_anchors().anchors[:3]), Ranges("toa", (1.0, 2.0, 3.0))
    state, diag = navfilter.step(state, imu[0], obs, few, env, cfg.gains(), cfg.dt)
    assert diag.dropout
    built += [obs, state, diag]

    kinds = {type(obj).__name__ for obj in built}
    assert kinds == {
        "ImuSample", "Ranges", "TriadSet", "CorrectionTerms", "FilterState", "Diagnostics",
    }
    assert len(fixes) == len(traj) - 1
    for fix in fixes:
        assert type(fix) is tuple and len(fix) == 3 and all(type(x) is float for x in fix), fix
    assert {obj.topology for obj in built if isinstance(obj, Ranges)} == {topology, "toa"}
    for obj in built:
        _check_storage(obj)


@pytest.mark.parametrize("topology", ["tdoa-main", "tdoa-ring"])
def test_ingested_samples_are_slotted_floats(tmp_path, topology):
    cfg = load_config(None, {"topology": topology, "duration": 0.5})
    env, anchors = cfg.env(), cfg.anchor_set()
    traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, env)
    blocks = measurement_blocks(traj, anchors, topology, cfg.noise(), env)
    out = write_dataset(tmp_path, traj, anchors, topology, *blocks)
    _, _, imu, ranges = ingest_dataset(out, cfg.filter_rate, topology)
    built = [*imu, *ranges, *imu[::-2], *ranges[1:3], imu[-1], ranges[-1], imu[::-2][1], ranges[1:3][-1]]
    assert {type(obj).__name__ for obj in built} == {"ImuSample", "Ranges"}
    for seq in (imu, ranges, imu[::-2], ranges[1:3], imu[5:2]):  # a stream reads the same iterated and indexed
        assert list(seq) == [seq[i] for i in range(len(seq))]
    for obj in built:
        _check_storage(obj)


finite = st.floats(allow_nan=False, allow_infinity=False)
vec3 = arrays(np.float64, 3, elements=finite)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
bad_shape = st.sampled_from([(2,), (4,), (3, 1), (1, 3), ()])


def _spoil(a: np.ndarray, value: float, index: int) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flat[index % a.size] = value
    return a


@given(vec3, non_finite, st.integers(0, 2), st.sampled_from(["p_hat0", "v_hat0", "sigma_hat0", "r_hat0"]),
       bad_shape, st.sampled_from(["matrix", "quaternion"]))
def test_initial_state_rejects(vec, value, index, name, shape, variant):
    with pytest.raises(ConfigError, match=name):
        RunConfig(variant=variant, **{name: _spoil(vec, value, index)})
    with pytest.raises(ConfigError, match=name):
        RunConfig(variant=variant, **{name: np.zeros(shape)})


@given(st.integers(1, 6), st.integers(0, 5), st.sampled_from(["omega_m", "a_m", "m_m"]), st.integers(0, 2),
       non_finite, arrays(np.float64, (6, 9), elements=finite))
def test_imu_block_check_rejects_one_spoiled_row(n, row, name, axis, value, block):
    block = block[:n]
    _check_imu(block)
    spoiled = block.copy()
    spoiled[row % n, 3 * ("omega_m", "a_m", "m_m").index(name) + axis] = value
    with pytest.raises(ValueError, match=f"{name} must be a finite 3-vector"):
        _check_imu(spoiled)


ranges = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)), elements=st.floats(0.0, 1e300))


@given(ranges, non_finite, st.integers(0, 47), st.sampled_from(["tdoa-main", "tdoa-ring"]))
def test_range_block_check_rejects(d, value, index, topology):
    _check_ranges(d, "toa")
    _check_ranges(-d, topology)  # differences may be negative
    for bad in (_spoil(d, value, index), _spoil(d, -1.0, index)):
        with pytest.raises(ValueError, match="ranges must be finite and non-negative"):
            _check_ranges(bad, "toa")
    with pytest.raises(ValueError, match="range differences must be finite"):
        _check_ranges(_spoil(d, value, index), topology)


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown TDOA topology 'star'"):
        _range_block(np.zeros(3), default_anchors(), "star")
