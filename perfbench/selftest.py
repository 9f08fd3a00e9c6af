#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny size of each workload.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run and checks
that every metric BENCHMARK.json declares (plus the printed fail_ratio)
is emitted with its declared unit, that no operation failed, and that
every span nests inside its parent with a self time between zero and its
parent's duration.  Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = run.Size(inputs=2, duration=2.0)


def span_problems(tracer: Tracer) -> list[str]:
    problems = []
    spans = tracer.spans
    for i, (own, span) in enumerate(zip(tracer.self_times(), spans)):
        name, start, end, parent, _ = span
        if own < 0 or own > end - start:
            problems.append(f"span {i} {name}: self time {own} ns outside [0, {end - start}]")
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                problems.append(f"span {i} {name} is not inside its parent {parent}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"fail_ratio": "ratio"},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.SETUP_SAMPLES = 1
    problems: list[str] = []
    work = run.OUT / "selftest"
    for name in run.WORKLOADS:
        for trace in (False, True):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                ops, metrics, tracer = run.benchmark(name, 7, 0.0, trace, TINY, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            label = f"{name} trace={int(trace)}"
            for op in ops:
                if op.failure:
                    problems.append(f"{label}: operation failed: {op.failure}")
            for key, unit in wanted[trace].items():
                if key not in metrics or metrics[key][0] is None:
                    problems.append(f"{label}: metric {key} missing")
                elif metrics[key][1] != unit:
                    problems.append(f"{label}: {key} in {metrics[key][1]}, declared {unit}")
            if trace:
                if not tracer.spans:
                    problems.append(f"{label}: no spans recorded")
                problems += [f"{label}: {p}" for p in span_problems(tracer)]
            print(f"{label}: {len(ops)} operations, {len(metrics)} metrics")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
