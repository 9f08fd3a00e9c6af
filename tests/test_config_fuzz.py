"""Hypothesis fuzzing of every config key: a malformed value is a named config error.

Each example sets one key of a short TOA run to a malformed value: text,
a boolean, None, NaN or infinity, a wrong shape, a ragged list, or a
mapping.  Through ``load_config`` that raises ConfigError naming the key
(a trajectory key raises BadParams when the flight is generated); through
``uwbnav run`` it exits 2 with the key in stderr, and never with a
traceback.
"""

import contextlib
import io
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbnav.cli import EXIT_CONFIG, main
from uwbnav.harness import ConfigError, load_config
from uwbnav.sim import BadParams, generate_trajectory

BASE = {"duration": 1.0, "rate": 50.0, "topology": "toa"}

NUMBERS = ("duration", "rate", "filter_rate", "k1", "kv", "ka", "gamma_sigma", "epsilon",
           "k_sigma", "sigma_m", "sigma_range")
VECTORS = ("p_hat0", "v_hat0", "r_hat0", "sigma_hat0", "tag_offset", "g_vec", "m_r", "s")
SIGMAS = ("sigma_omega", "sigma_a")  # a number or a 3-vector
CHOICES = {"mode": ("synthetic", "dataset"), "topology": ("toa", "tdoa-main", "tdoa-ring"),
           "variant": ("matrix", "quaternion"), "trajectory": ("hover", "circle", "lissajous")}
TEXTS = ("dataset_dir", "out")  # any text is a valid path
# trajectory keys, each with a flight kind that takes it
TRAJECTORY_NUMBERS = {"radius": "circle", "period": "circle", "yaw0": "circle", "yaw": "hover",
                      "yaw_amplitude": "lissajous", "yaw_frequency": "lissajous"}
TRAJECTORY_VECTORS = {"p0": "circle", "amplitude": "lissajous", "frequency": "lissajous",
                      "phase": "lissajous"}
KEYS = (NUMBERS + VECTORS + SIGMAS + tuple(CHOICES) + TEXTS + ("seed", "anchors")
        + tuple(TRAJECTORY_NUMBERS) + tuple(TRAJECTORY_VECTORS))


def _not_a_finite_number(text: str) -> bool:
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


finite = st.floats(-1e3, 1e3)
bad_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6).filter(_not_a_finite_number)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
junk = st.one_of(st.booleans(), st.none(), non_finite, bad_text, st.just({"a": 1.0}))
# one malformed entry in an otherwise numeric list of three
spoiled = st.tuples(st.lists(finite, min_size=2, max_size=2), junk, st.integers(0, 2)).map(
    lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2]:]
)
wrong_length = st.lists(finite, max_size=5).filter(lambda v: len(v) != 3)
ragged = st.sampled_from([[[1.0], [1.0, 2.0]], [1.0, [2.0, 3.0], 4.0], [[1.0, 2.0, 3.0], 4.0]])


def malformed(key: str) -> st.SearchStrategy:
    """Values of ``key`` that a run must reject."""
    if key in NUMBERS or key in TRAJECTORY_NUMBERS:
        values = st.one_of(junk, st.lists(finite, min_size=1, max_size=3), ragged)
        return values.filter(lambda v: v is not None) if key == "filter_rate" else values
    if key in VECTORS or key in TRAJECTORY_VECTORS:
        return st.one_of(junk, finite, wrong_length, spoiled, ragged)
    if key in SIGMAS:
        return st.one_of(junk, wrong_length.filter(len), spoiled, ragged)
    if key == "anchors":
        rows = st.lists(spoiled, min_size=1, max_size=5)
        return st.one_of(junk, finite, st.lists(finite, min_size=3, max_size=3), rows, ragged)
    if key == "seed":
        return st.one_of(junk, finite, st.integers(-5, -1), st.lists(st.integers(0, 9)))
    if key in CHOICES:
        return st.one_of(junk, finite, st.lists(bad_text, max_size=2)).filter(lambda v: v not in CHOICES[key])
    return st.one_of(st.booleans(), finite, non_finite, st.lists(bad_text, max_size=2), st.just({"a": 1.0}))


cases = st.sampled_from(KEYS).flatmap(lambda key: st.tuples(st.just(key), malformed(key)))


def _config(key, value) -> dict:
    config = dict(BASE, **{key: value})
    kind = TRAJECTORY_NUMBERS.get(key) or TRAJECTORY_VECTORS.get(key)
    if kind:
        config["trajectory"] = kind
    return config


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, derandomize=True)
@given(cases)
def test_load_config_names_the_key(work, case):
    key, value = case
    path = work / "run.yaml"
    path.write_text(yaml.safe_dump(_config(key, value)))
    with pytest.raises((ConfigError, BadParams), match=key):
        cfg = load_config(path)
        generate_trajectory(cfg.trajectory, dict(cfg.trajectory_params, duration=cfg.duration, rate=cfg.rate))


@settings(max_examples=100, derandomize=True)
@given(cases)
def test_run_exits_2_naming_the_key(work, case):
    key, value = case
    path = work / "run.yaml"
    path.write_text(yaml.safe_dump(_config(key, value)))
    # the --out flag would override a malformed out key
    flags = [] if key == "out" else ["--out", str(work / "run")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(path), *flags])
    assert code == EXIT_CONFIG, err.getvalue()
    assert "config error" in err.getvalue() and key in err.getvalue()
    assert not (work / "run").exists()
