"""The benchmark's span wrappers find every function they instrument.

``perfbench/tracing.py`` installs its timing wrappers by replacing named
attributes on uwbnav modules, so each name it lists must stay an
attribute of its defining module and of every module that calls it
through its own globals, and each must be a function a run calls.
"""

import importlib
from collections import Counter
from pathlib import Path

from uwbnav import harness

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


def test_every_span_runs_on_the_live_path(monkeypatch, tmp_path):
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
        summary = harness.run_experiment(harness.RunConfig(duration=1.0, topology="toa", out=str(tmp_path)))
    finally:
        tracing.restore(saved)
    steps = counts["navfilter.step"]
    assert steps == summary["steps"] > 0 and summary["dropouts"] == 0
    assert counts["liegroup.se23_exp"] == 2 * steps
    assert counts["attitude.measure_imu"] == counts["harness.synthesize_measurements"] == 1
    for name in ("uwb.solve_fix", "attitude.build_triads", "navfilter.correction_terms", "navfilter.predict",
                 "navfilter.update"):
        assert counts[name] == steps, name
