"""Timing wrappers installed on uwbnav's public module attributes.

Nothing inside the package is edited: a wrapper replaces a public
function at every module attribute through which the pipeline looks it
up (``from .x import f`` copies ``f`` into the importing module, so each
copy is patched), and :func:`restore` puts the originals back.

Two instruments share that mechanism:

- :class:`StepProbe` times ``navfilter.step`` only and keeps the states it
  returns.  It is the one instrument of an untraced run: a pair of clock
  reads per call, against a step of several hundred microseconds, and a
  host-speed reference sample before every few calls (see hostspeed.py).
- :class:`Tracer` records a span (name, start, end, parent, operation id)
  at every layer boundary, keeps the spans in memory, and derives per-call
  and self times from them when the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from hostspeed import STEP_EVERY, HostClock
from uwbnav import attitude, cli, harness, liegroup, navfilter, sim, uwb

# span name -> (defining module, attribute, modules whose globals call it)
TARGETS = {
    "liegroup.se23_exp": (liegroup, "se23_exp", (navfilter, sim)),
    "liegroup.rot_to_quat": (liegroup, "rot_to_quat", (harness,)),
    "uwb.solve_fix": (uwb, "solve_fix", (navfilter,)),
    "attitude.build_triads": (attitude, "build_triads", (navfilter,)),
    "attitude.measure_imu": (attitude, "measure_imu", (harness,)),
    "navfilter.correction_terms": (navfilter, "correction_terms", (navfilter,)),
    "navfilter.predict": (navfilter, "predict", (navfilter,)),
    "navfilter.update": (navfilter, "update", (navfilter,)),
    "navfilter.step": (navfilter, "step", (navfilter, harness)),
    "sim.generate_trajectory": (sim, "generate_trajectory", (harness, cli)),
    "sim.reconstruct_velocity": (sim, "reconstruct_velocity", (harness,)),
    "harness.load_config": (harness, "load_config", (harness, cli)),
    "harness.synthesize_measurements": (harness, "synthesize_measurements", (harness, cli)),
    "harness.write_dataset": (harness, "write_dataset", (harness, cli)),
    "harness.ingest_dataset": (harness, "ingest_dataset", (harness,)),
    "harness.run_experiment": (harness, "run_experiment", (harness, cli)),
    "harness.recompute_metrics": (harness, "recompute_metrics", (harness, cli)),
}

# spans the benchmark opens itself around ``uwbnav.cli.main`` calls
CLI_SPANS = ("cli.simulate", "cli.run", "cli.metrics")

# per-call figures in microseconds; every other span is reported in seconds
US_SPANS = (
    "liegroup.se23_exp",
    "liegroup.rot_to_quat",
    "uwb.solve_fix",
    "attitude.build_triads",
    "attitude.measure_imu",
    "navfilter.correction_terms",
    "navfilter.predict",
    "navfilter.update",
    "navfilter.step",
)


def _install(wrap) -> list[tuple[object, str, object]]:
    """Replace every target with ``wrap(name, original)``; return the undo list."""
    saved = []
    for name, (home, attr, users) in TARGETS.items():
        wrapped = wrap(name, getattr(home, attr))
        if wrapped is None:
            continue
        for mod in {home, *users}:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapped)
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


class StepProbe:
    """Per-call latency of ``navfilter.step`` and the states it returns."""

    def __init__(self, host: HostClock) -> None:
        self.host = host
        self.latency_ns: list[int] = []
        # host-clock stretch each latency was measured in
        self.segments: list[int] = []
        self.states: list = []

    def reset(self) -> None:
        self.states = []

    def install(self) -> list:
        def wrap(name, fn):
            if name != "navfilter.step":
                return None
            latency, segments, host = self.latency_ns, self.segments, self.host
            clock = perf_counter_ns

            def timed(*args, **kwargs):
                host.hold = True
                if len(latency) % STEP_EVERY == 0:
                    host.sample()
                # the step runs in the stretch after the latest sample
                segments.append(len(host.marks))
                start = clock()
                result = fn(*args, **kwargs)
                latency.append(clock() - start)
                host.hold = False
                self.states.append(result[0])
                return result

            return timed

        return _install(wrap)


def _tree_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _data_rows(path) -> int:
    rows = 0
    for name in ("truth.csv", "imu.csv", "anchors.csv", "tdoa.csv"):
        with open(Path(path) / name, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


class Tracer:
    """Span recorder; one instance per traced run.

    A span is ``(name, start_ns, end_ns, parent_index, op_id)``; the parent
    is the innermost span open when the call started (-1 at top level).
    The calls of one benchmark operation share ``op_id``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self.states: list = []
        self._stack: list[int] = []
        self._unsized: list[tuple[str, object, Path]] = []

    def reset(self) -> None:
        self.states = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, name: str, idx: int, parent: int, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx, parent = self._open()
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, idx, parent, start)

    def install(self) -> list:
        def wrap(name, fn):
            def traced(*args, **kwargs):
                idx, parent = self._open()
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:
                    self._close(name, idx, parent, start)
                    self.counts[f"{name}.raised.{type(err).__name__}"] += 1
                    raise
                self._close(name, idx, parent, start)
                self._observe(name, args, result)
                return result

            return traced

        return _install(wrap)

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "navfilter.step":
            self.states.append(result[0])
            if result[1].dropout:
                self.counts["navfilter.step.dropout"] += 1
        elif name == "harness.write_dataset":
            self._unsized.append(("harness.write_dataset.bytes", _tree_bytes, Path(result)))
        elif name == "harness.run_experiment":
            self._unsized.append(("harness.artifacts.bytes", _tree_bytes, Path(args[0].out)))
        elif name == "harness.ingest_dataset":
            self._unsized.append(("harness.ingest_dataset.rows", _data_rows, Path(args[0])))

    def settle(self, measure: bool) -> None:
        """Size the files the last operation wrote, outside every span."""
        if measure:
            for key, size_of, path in self._unsized:
                self.sizes[key].append(size_of(path))
        self._unsized = []

    def self_times(self) -> list[int]:
        """Span duration minus the durations of its direct children (ns)."""
        spans = self.spans
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: Path) -> None:
        """Dump every span as CSV: index, parent, op, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("index,parent,op,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{start},{end}\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures: per-call p50 time, call counts, ratios, sizes."""
        durations: dict[str, list[int]] = defaultdict(list)
        selfs: dict[str, list[int]] = defaultdict(list)
        for s, own in zip(self.spans, self.self_times()):
            durations[s[0]].append(s[2] - s[1])
            selfs[s[0]].append(own)

        def p50(values: list[int], scale: float) -> float:
            return float(np.median(values)) * scale if values else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in (*TARGETS, *CLI_SPANS):
            calls = len(durations[name])
            if name in US_SPANS:
                out[name + ".us"] = (p50(durations[name], 1e-3), "us")
            else:
                out[name + ".s"] = (p50(durations[name], 1e-9), "s")
            out[name + ".calls"] = (float(calls), "count")

        fixes = len(durations["uwb.solve_fix"])
        degenerate = self.counts["uwb.solve_fix.raised.GeometryDegenerate"]
        out["uwb.solve_fix.degenerate"] = (float(degenerate), "count")
        out["uwb.solve_fix.usable_ratio"] = (
            (fixes - degenerate) / fixes if fixes else 0.0, "ratio"
        )
        steps = len(durations["navfilter.step"])
        out["navfilter.step.self_us"] = (p50(selfs["navfilter.step"], 1e-3), "us")
        out["navfilter.dropout_ratio"] = (
            self.counts["navfilter.step.dropout"] / steps if steps else 0.0, "ratio"
        )
        out["harness.run_experiment.self_s"] = (p50(selfs["harness.run_experiment"], 1e-9), "s")
        for key, unit in (
            ("harness.write_dataset.bytes", "B"),
            ("harness.artifacts.bytes", "B"),
            ("harness.ingest_dataset.rows", "count"),
        ):
            out[key] = (float(np.median(self.sizes[key])) if self.sizes[key] else 0.0, unit)
        return out

