"""The benchmark's span wrappers find every function they instrument.

``perfbench/tracing.py`` installs its timing wrappers by replacing named
attributes on uwbnav modules, so each name it lists must stay an
attribute of its defining module and of every module that calls it
through its own globals, and each must be a function a run calls.
"""

import contextlib
import importlib
import io
from collections import Counter
from pathlib import Path

import pytest
import yaml

from uwbnav import cli, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_target_is_a_module_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for name, (home, attr, users) in tracing.TARGETS.items():
        assert hasattr(home, attr), f"{name}: {home.__name__}.{attr} is missing"
        for mod in users:
            assert getattr(mod, attr, None) is getattr(home, attr), (
                f"{name}: {mod.__name__}.{attr} is not {home.__name__}.{attr}"
            )


# the filter paths of the three benchmark workloads
@pytest.mark.parametrize("topology,variant", [("toa", "matrix"), ("tdoa-main", "matrix"), ("tdoa-ring", "quaternion")])
def test_every_span_runs_on_the_live_path(monkeypatch, tmp_path, topology, variant):
    # a span on a function the run never calls reads 0 calls and times nothing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    counts = Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    saved = tracing._install(wrap)
    try:
        summary = harness.run_experiment(harness.RunConfig(duration=1.0, topology=topology, variant=variant, out=str(tmp_path)))
    finally:
        tracing.restore(saved)
    steps = counts["navfilter.step"]
    assert steps == summary["steps"] > 0 and summary["dropouts"] == 0
    assert counts["liegroup.se23_exp"] == 2 * steps
    assert counts["attitude.measure_imu"] == counts["harness.synthesize_measurements"] == 1
    for name in ("uwb.solve_fix", "attitude.build_triads", "navfilter.correction_terms", "navfilter.predict",
                 "navfilter.update"):
        assert counts[name] == steps, name


def test_replay_spans_run_on_the_cli_path(monkeypatch, tmp_path):
    # the replay workload's verbs through cli.main, on its configs: a writer or
    # reader that stops calling a listed function leaves that span empty
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    configs = PERFBENCH.parent / "configs"
    replay = yaml.safe_load((configs / "dataset_replay.yaml").read_text())
    flight = yaml.safe_load((configs / "circle.yaml").read_text())
    simulate = {k: v for k, v in replay.items() if k not in ("mode", "dataset_dir", "out")}
    simulate.update({k: flight[k] for k in ("trajectory", "p0", "radius", "period")}, duration=1.0)
    (tmp_path / "simulate.yaml").write_text(yaml.safe_dump({**simulate, "topology": "tdoa-main"}))
    run = {k: v for k, v in replay.items() if k != "out"}
    (tmp_path / "replay.yaml").write_text(yaml.safe_dump({**run, "dataset_dir": str(tmp_path / "ds"),
                                                          "topology": "tdoa-main"}))
    counts = Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    saved = tracing._install(wrap)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["simulate", "--config", str(tmp_path / "simulate.yaml"), "--out", str(tmp_path / "ds")],
                         ["run", "--config", str(tmp_path / "replay.yaml"), "--out", str(tmp_path / "r")],
                         ["metrics", str(tmp_path / "r"), "--out", str(tmp_path / "r" / "rescored.csv")]):
                assert cli.main(argv) == 0, argv
    finally:
        tracing.restore(saved)
    for name in ("harness.write_dataset", "harness.ingest_dataset", "sim.reconstruct_velocity",
                 "harness.recompute_metrics", "liegroup.rot_to_quat"):
        assert counts[name] >= 1, name
    assert counts["harness.run_experiment"] == 1 and counts["navfilter.step"] == 100
