"""Why ``run_experiment`` may pause CPython's cyclic garbage collector.

A run packs each step's state into one float block and keeps no per-step
objects, so a stock study triggers no collection even with the collector
on.  A caller that wraps ``harness.step`` and keeps every state it returns,
as the benchmark's step probe does, holds a handful of GC-tracked tuples
per step; with the collector on, a 30 s study then pays for dozens of
collections that free nothing.  The pause is safe only while the step and
the run build no reference cycles: reference counting then frees every
temporary, and the collector has nothing to find.  These tests pin that,
pin that the caller's collector setting comes back on every exit path,
and count the collections a stock study triggers with and without a
state-keeping caller.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

from uwbnav import harness, navfilter
from uwbnav.attitude import ImuSample
from uwbnav.harness import (
    ClockError,
    ConfigError,
    NumericalFailure,
    RunConfig,
    SchemaError,
    _collector_paused,
    load_config,
    measurement_blocks,
    run_experiment,
    synthesize_measurements,
    write_dataset,
)
from uwbnav.sim import NoiseSpec, generate_trajectory
from uwbnav.uwb import TOPOLOGIES

CIRCLE = Path(__file__).resolve().parent.parent / "configs" / "circle.yaml"


@pytest.fixture
def collector_on():
    """Leave the collector as it was found, whatever a test does to it."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("variant", ["matrix", "quaternion"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_step_makes_no_cyclic_garbage(topology, variant):
    cfg = RunConfig(topology=topology, variant=variant, duration=3.0)
    env, anchors, gains = cfg.env(), cfg.anchor_set(), cfg.gains()
    traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, env)
    imu, ranges = synthesize_measurements(traj, anchors, topology, cfg.noise(), env)
    # every third sample takes the dropout path: collinear triads raise and are caught
    imu = [ImuSample(s.omega_m, s.a_m, s.a_m) if i % 3 == 2 else s for i, s in enumerate(imu)]
    state, kept, reasons = cfg.initial_state(), [], set()
    gc.collect()
    with _collector_paused():
        for i in range(len(traj) - 1):
            state, diag = navfilter.step(state, imu[i], ranges[i], anchors, env, gains, cfg.dt)
            kept.append((state, diag))
            reasons.add(diag.dropout_reason)
        found = gc.collect()
    assert found == 0, f"{found} objects in reference cycles after {len(kept)} steps"
    assert any(r.startswith("DegenerateTriads") for r in reasons), reasons
    assert "" in reasons


def test_run_garbage_does_not_grow_with_length(tmp_path, collector_on):
    # the collector stays off across the run, so every cycle it built is still
    # there to count; the first run in a process also leaves one-off cycles
    # of lazy imports, so a short run goes first
    found = {}
    for duration in (0.5, 1.0, 4.0):
        cfg = RunConfig(duration=duration, topology="tdoa-ring", variant="quaternion", out=str(tmp_path / f"{duration}"))
        gc.collect()
        gc.disable()
        run_experiment(cfg)
        found[duration] = gc.collect()
        gc.enable()
    assert found[1.0] == found[4.0] < 100, found


def _dataset(tmp_path: Path) -> Path:
    cfg = RunConfig(topology="tdoa-main", duration=1.0)
    traj = generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, cfg.env())
    imu, diffs = measurement_blocks(traj, cfg.anchor_set(), "tdoa-main", NoiseSpec(seed=1), cfg.env())
    return write_dataset(tmp_path / "ds", traj, cfg.anchor_set(), "tdoa-main", imu, diffs)


def _swap_clock(ds: Path) -> None:
    for name in ("truth.csv", "imu.csv"):
        lines = (ds / name).read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        (ds / name).write_text("\n".join(lines) + "\n")


def _empty(ds: Path) -> None:
    for name in ("truth.csv", "imu.csv", "anchors.csv", "tdoa.csv"):
        (ds / name).unlink()


EXITS = {
    "success": (None, {"duration": 1.0}, None),
    "NumericalFailure": (NumericalFailure, {"duration": 2.0, "topology": "toa", "ka": 1e12}, None),
    # a filter rate that does not decimate the dataset's 100 Hz clock, which only ingest can see
    "ConfigError": (ConfigError, {"mode": "dataset", "topology": "tdoa-main", "filter_rate": 30.0}, lambda ds: None),
    "ClockError": (ClockError, {"mode": "dataset", "topology": "tdoa-main"}, _swap_clock),
    "SchemaError": (SchemaError, {"mode": "dataset", "topology": "tdoa-main"}, _empty),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("exit_path", list(EXITS))
def test_run_restores_the_callers_collector(tmp_path, collector_on, exit_path, enabled):
    error, keys, spoil = EXITS[exit_path]
    if keys.get("mode") == "dataset":
        ds = _dataset(tmp_path)
        spoil(ds)
        keys = {**keys, "dataset_dir": str(ds)}
    cfg = RunConfig(**keys, out=str(tmp_path / "run"))
    (gc.enable if enabled else gc.disable)()
    with np.errstate(all="ignore"):
        if error is None:
            run_experiment(cfg)
        else:
            with pytest.raises(error):
                run_experiment(cfg)
    assert gc.isenabled() is enabled


def _collections(run, cfg) -> int:
    """The number of collections CPython starts during ``run(cfg)``, counted from a fresh collector."""
    seen = []

    def count(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        run(cfg)
    finally:
        gc.callbacks.remove(count)
    return len(seen)


@pytest.fixture
def study(tmp_path):
    return load_config(CIRCLE, {"duration": 30.0, "out": str(tmp_path / "study")})


def test_stock_study_runs_no_collection(study, collector_on):
    # the paused run goes first: a process's first run also loads lazy imports
    assert _collections(run_experiment, study) == 0
    # the same run without the pause: the history block keeps no objects, so
    # the collector's counts never reach its threshold
    assert _collections(run_experiment.__wrapped__, study) == 0
    assert gc.isenabled()


def test_pause_spares_a_state_keeping_caller_its_collections(study, collector_on, monkeypatch):
    # a caller that keeps every state, as the benchmark's step probe does; its
    # states are collected once after the run, when the collector is back on,
    # so the census counts the collections that start while the steps run
    kept, starts = [], []

    def keeping_step(*args):
        kept.append(result := navfilter.step(*args))
        return result

    def count(phase, info):
        if phase == "start" and len(kept) < 3000:
            starts.append(len(kept))

    monkeypatch.setattr(harness, "step", keeping_step)
    found = {}
    for name, run in (("unpaused", run_experiment.__wrapped__), ("paused", run_experiment)):
        kept.clear()
        gc.collect()
        gc.callbacks.append(count)
        try:
            run(study)
        finally:
            gc.callbacks.remove(count)
        found[name] = len(starts)
        starts.clear()
        assert len(kept) == 3000
    assert found["unpaused"] > 0, found
    assert found["paused"] == 0, found
    assert gc.isenabled()
