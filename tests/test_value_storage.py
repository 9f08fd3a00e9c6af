"""The per-step value classes: float storage inside, fresh arrays outside.

The values a filter step passes between its layers (states, corrections,
diagnostics, triads, fixes and the input rows) are slotted objects that
hold tuples of Python floats; their public fields are read-only
properties that build a float64 array on each read (see the "Cost" note of
``uwbnav.navfilter``).  These tests pin both sides of that boundary:

- every value a real step builds, through every layer, has no instance
  ``__dict__`` and holds only Python floats (a numpy scalar that slipped
  into the storage would slow every later layer);
- each public constructor takes any finite array-like of the right shape
  and gives it back bit for bit, with its shape and dtype float64, and
  rejects a non-finite or mis-shaped input with its named ValueError.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uwbnav import navfilter
from uwbnav.attitude import ImuSample, TriadSet
from uwbnav.harness import default_anchors, load_config, synthesize_measurements
from uwbnav.liegroup import quat_to_rot
from uwbnav.navfilter import CorrectionTerms, Diagnostics, FilterState
from uwbnav.sim import generate_trajectory
from uwbnav.uwb import AnchorSet, PositionFix, TdoaRanges, ToaRanges

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


def _unit(x):
    return x / np.linalg.norm(x)


@st.composite
def triad_rows(draw):
    """Three unit rows, the third the normalized cross product of the first two."""
    a, b = draw(unit_quaternions())[:3] + 0.1, draw(unit_quaternions())[1:] - 0.1
    if not np.linalg.norm(np.cross(a, b)) > 1e-3:
        a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    v1, v2 = _unit(a), _unit(b)
    return np.array([v1, v2, _unit(np.cross(v1, v2))])


@given(triad_rows(), triad_rows(), st.sampled_from([(1.0, 1.0, 1.0), (0.5, 1.5, 1.0), (3.0, 0.0, 0.0)]), array_like)
def test_triad_set_round_trip(v, r, s, form):
    triads = TriadSet(v=form(v), r=form(r), s=s)
    _same_bits(_public(triads, "v"), v)
    _same_bits(_public(triads, "r"), r)
    _same_bits(_public(triads, "s"), s)


@given(triad_rows(), non_finite, st.integers(0, 8), bad_shape)
def test_triad_set_rejects(v, value, index, shape):
    with pytest.raises(ValueError, match="measured triad rows must be unit vectors"):
        TriadSet(v=_spoil(v, value, index), r=v)
    with pytest.raises(ValueError, match="reference triad rows must be unit vectors"):
        TriadSet(v=v, r=_spoil(v, value, index))
    with pytest.raises(ValueError, match=r"v and r must be 3x3 \(rows are the triad vectors\)"):
        TriadSet(v=np.zeros(shape), r=v)
    with pytest.raises(ValueError, match="s must be 3 nonnegative weights summing to 3"):
        TriadSet(v=v, r=v, s=np.ones(shape))
    with pytest.raises(ValueError, match="s must be 3 nonnegative weights summing to 3"):
        TriadSet(v=v, r=v, s=_spoil(np.ones(3), value, index))


@given(finite, vec3, vec3, vec3, vec3, vec3, array_like)
def test_correction_terms_round_trip(e_r, d, w_omega, w_v, w_a, sigma_dot, form):
    w = CorrectionTerms(
        e_r=e_r, d_v=form(np.diag(d)), w_omega=form(w_omega), w_v=form(w_v), w_a=form(w_a),
        sigma_dot=form(sigma_dot),
    )
    _same_bits(_public(w, "d_v"), np.diag(d))
    for name, given_value in (("w_omega", w_omega), ("w_v", w_v), ("w_a", w_a), ("sigma_dot", sigma_dot)):
        _same_bits(_public(w, name), given_value)
    assert w.e_r == e_r


@given(vec3, st.integers(0, 2), bad_shape, st.sampled_from(["w_omega", "w_v", "w_a", "sigma_dot"]))
def test_correction_terms_rejects(d, index, shape, name):
    fields = {"e_r": 0.0, "d_v": np.diag(d), "w_omega": d, "w_v": d, "w_a": d, "sigma_dot": d}
    for d_v in (_spoil(np.diag(d), np.nan, 4 * index), _spoil(np.diag(d), 1.0, 1 + index), np.zeros(shape)):
        with pytest.raises(ValueError, match="d_v must be a 3x3 diagonal matrix"):
            CorrectionTerms(**{**fields, "d_v": d_v})
    with pytest.raises(ValueError, match=f"{name} must be a 3-vector"):
        CorrectionTerms(**{**fields, name: np.zeros(shape)})


@given(finite, finite, vec3, st.booleans(), array_like)
def test_diagnostics_and_fix_round_trip(e_r, cond, sigma, flag, form):
    diag = Diagnostics(e_r, cond, form(sigma), dropout=flag, dropout_reason="reason", sigma_alert=flag)
    _same_bits(_public(diag, "sigma_hat"), sigma)
    assert (diag.e_r, diag.innovation_norm, diag.dropout, diag.dropout_reason) == (e_r, cond, flag, "reason")
    fix = PositionFix(p=form(sigma), condition_number=cond, aux_range=None if flag else e_r, aux_clamped=flag)
    _same_bits(_public(fix, "p"), sigma)
    assert (fix.condition_number, fix.aux_range, fix.aux_clamped) == (cond, None if flag else e_r, flag)


@given(bad_shape)
def test_diagnostics_and_fix_reject_shapes(shape):
    with pytest.raises(ValueError, match="sigma_hat must be a 3-vector"):
        Diagnostics(0.0, 0.0, np.zeros(shape))
    with pytest.raises(ValueError, match="p must be a 3-vector"):
        PositionFix(p=np.zeros(shape), condition_number=1.0)


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

