"""The benchmark's span wrappers find every function they instrument.

``perfbench/tracing.py`` installs its timing wrappers by replacing named
attributes on uwbnav modules, so each name it lists must stay an
attribute of its defining module and of every module that calls it
through its own globals.
"""

import importlib
from pathlib import Path

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
