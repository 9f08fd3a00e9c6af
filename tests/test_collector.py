"""Why ``run_experiment`` may pause CPython's cyclic garbage collector.

A run keeps every state a step returns, and each state is a handful of
GC-tracked tuples, so with the collector on a 30 s study pays for dozens of
collections that free nothing.  The pause is safe only while the step and
the run build no reference cycles: reference counting then frees every
temporary, and the collector has nothing to find.  These tests pin that,
pin that the caller's collector setting comes back on every exit path,
and count the collections a stock study triggers.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

from uwbnav import navfilter
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


def test_stock_study_runs_no_collection(tmp_path, collector_on):
    seen = []

    def count(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    cfg = load_config(CIRCLE, {"duration": 30.0, "out": str(tmp_path / "study")})
    gc.callbacks.append(count)
    try:
        run_experiment.__wrapped__(cfg)  # the same run without the pause: the census can see collections
        unpaused = len(seen)
        seen.clear()
        run_experiment(cfg)
    finally:
        gc.callbacks.remove(count)
    assert unpaused > 0
    assert seen == []
    assert gc.isenabled()
