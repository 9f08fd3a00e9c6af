"""The per-step values: float storage inside, fresh arrays outside the inputs.

The values a filter step passes between its layers hold Python floats (see
the "Cost" note of ``uwbnav.navfilter``).  They come in two kinds.  Input
values, which outside callers build (states, IMU samples, range sets), are
slotted classes with a checking constructor that takes array-likes, and
their public fields are read-only properties that build a float64 array on
each read.  Step intermediates, which only a step builds (triads, fixes,
corrections, diagnostics), are plain slotted dataclasses whose fields are
the float tuples themselves, with no checking constructor; each producer
runs its checks before it builds one.  These tests pin that boundary:

- every value a real step builds, through every layer, has no instance
  ``__dict__`` and holds only Python floats (a numpy scalar that slipped
  into the storage would slow every later layer);
- each input value's public constructor takes any finite array-like of the
  right shape and gives it back bit for bit, with its shape and dtype
  float64, and rejects a non-finite or mis-shaped input with its named
  ValueError.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uwbnav import navfilter
from uwbnav.attitude import ImuSample
from uwbnav.harness import default_anchors, load_config, synthesize_measurements
from uwbnav.liegroup import quat_to_rot
from uwbnav.navfilter import FilterState
from uwbnav.sim import generate_trajectory
from uwbnav.uwb import AnchorSet, TdoaRanges, ToaRanges

SCALARS = (float, bool, str, type(None))


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _check_storage(obj) -> None:
    """``obj`` has no instance dict, and its slots hold only Python floats, flags and text."""
    assert not hasattr(obj, "__dict__"), f"{type(obj).__name__} has an instance __dict__"
    slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots, f"{type(obj).__name__} declares no slots"
    for name in slots:
        leaves = list(_leaves(getattr(obj, name)))
        bad = [type(x).__name__ for x in leaves if type(x) not in SCALARS]
        assert not bad, f"{type(obj).__name__}.{name} holds {bad}"


LAYERS = ("solve_fix", "build_triads", "correction_terms", "predict", "update", "step_with_fix")


@pytest.mark.parametrize("variant", ["matrix", "quaternion"])
@pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
def test_every_value_a_step_builds_is_slotted_floats(monkeypatch, topology, variant):
    cfg = load_config(None, {"topology": topology, "variant": variant, "duration": 0.5})
    env, anchors = cfg.env(), cfg.anchor_set()
    traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, env)
    imu, ranges = synthesize_measurements(traj, anchors, cfg.topology, cfg.noise(), env)
    built = [*imu, *ranges]

    def recording(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
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
    few, obs = AnchorSet(anchors=default_anchors().anchors[:3]), ToaRanges(d=[1.0, 2.0, 3.0])
    state, diag = navfilter.step(state, imu[0], obs, few, env, cfg.gains(), cfg.dt)
    assert diag.dropout
    built += [obs, state, diag]

    kinds = {type(obj).__name__ for obj in built}
    assert kinds == {
        "ImuSample", "ToaRanges" if topology == "toa" else "TdoaRanges", "ToaRanges", "PositionFix", "TriadSet",
        "CorrectionTerms", "FilterState", "Diagnostics",
    }
    for obj in built:
        _check_storage(obj)


def _public(obj, name: str) -> np.ndarray:
    """The public field ``name``, checked to be a fresh float64 array that cannot be assigned."""
    value = getattr(obj, name)
    assert isinstance(value, np.ndarray) and value.dtype == np.float64
    assert getattr(obj, name) is not value, f"{name} is cached"
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    return value


def _same_bits(got: np.ndarray, given) -> None:
    want = np.asarray(given, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
vec3 = arrays(np.float64, 3, elements=finite)
array_like = st.sampled_from([np.asarray, lambda a: a.tolist(), lambda a: tuple(a.tolist())])
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
bad_shape = st.sampled_from([(2,), (4,), (3, 1), (1, 3), ()])


def _spoil(a: np.ndarray, value: float, index: int) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flat[index % a.size] = value
    return a


@st.composite
def unit_quaternions(draw):
    q = draw(arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)))
    norm = np.linalg.norm(q)
    if not norm > 1e-3:
        q, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    return q / norm


@given(unit_quaternions(), st.booleans(), vec3, vec3, vec3, finite, array_like)
def test_filter_state_round_trip(q, matrix, p, v, sigma, t, form):
    attitude = quat_to_rot(q) if matrix else q
    state = FilterState(form(attitude), form(p), form(v), form(sigma), t)
    for name, given_value in (("attitude", attitude), ("p_hat", p), ("v_hat", v), ("sigma_hat", sigma)):
        _same_bits(_public(state, name), given_value)
    assert state.t == t and state.variant == ("matrix" if matrix else "quaternion")


@given(vec3, non_finite, st.integers(0, 2), st.sampled_from(["p_hat", "v_hat", "sigma_hat"]), bad_shape)
def test_filter_state_rejects(vec, value, index, name, shape):
    fields = {"attitude": np.eye(3), "p_hat": vec, "v_hat": vec, "sigma_hat": vec}
    with pytest.raises(ValueError, match="state must be finite"):
        FilterState(**{**fields, name: _spoil(vec, value, index)})
    with pytest.raises(ValueError, match=f"{name} must be a 3-vector"):
        FilterState(**{**fields, name: np.zeros(shape)})
    with pytest.raises(ValueError, match="attitude must be a 3x3 matrix or a 4-vector quaternion"):
        FilterState(**{**fields, "attitude": np.zeros((3, 4) if shape == (4,) else shape)})
    with pytest.raises(ValueError, match="not orthonormal"):
        FilterState(**{**fields, "attitude": _spoil(np.eye(3), value, index)})


@given(vec3, vec3, vec3, finite, array_like)
def test_imu_sample_round_trip(omega, a, m, t, form):
    imu = ImuSample(omega_m=form(omega), a_m=form(a), m_m=form(m), t=t)
    for name, given_value in (("omega_m", omega), ("a_m", a), ("m_m", m)):
        _same_bits(_public(imu, name), given_value)
    assert imu.t == t


@given(vec3, non_finite, st.integers(0, 2), st.sampled_from(["omega_m", "a_m", "m_m"]), bad_shape)
def test_imu_sample_rejects(vec, value, index, name, shape):
    fields = {"omega_m": vec, "a_m": vec, "m_m": vec}
    for spoiled in (_spoil(vec, value, index), np.zeros(shape)):
        with pytest.raises(ValueError, match=f"{name} must be a finite 3-vector"):
            ImuSample(**{**fields, name: spoiled})


ranges = arrays(np.float64, st.integers(0, 12), elements=st.floats(0.0, 1e300))


@given(ranges, st.sampled_from(["main-bs", "ring"]), array_like)
def test_range_sets_round_trip(d, topology, form):
    _same_bits(_public(ToaRanges(d=form(d)), "d"), d)
    diffs = TdoaRanges(topology, form(-d))
    _same_bits(_public(diffs, "diffs"), -d)
    assert diffs.topology == topology


@given(ranges.filter(len), non_finite, st.integers(0, 11))
def test_range_sets_reject(d, value, index):
    for bad in (_spoil(d, value, index), _spoil(d, -1.0, index), d[:, None], np.float64(1.0)):
        with pytest.raises(ValueError, match="ranges must be finite and non-negative"):
            ToaRanges(d=bad)
    for bad in (_spoil(d, value, index), d[:, None], np.float64(1.0)):
        with pytest.raises(ValueError, match="diffs must be a finite 1-D array"):
            TdoaRanges("ring", bad)
    with pytest.raises(ValueError, match="unknown TDOA topology 'star'"):
        TdoaRanges("star", d)

