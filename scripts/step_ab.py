#!/usr/bin/env python3
"""Interleaved A/B timing of ``navfilter.step``, or of whole offline runs, between two source trees.

Each tree (a checkout holding ``src/uwbnav``) is loaded in this one process
as its own package, ``uwbnav_a`` and ``uwbnav_b``, so both run on the same
interpreter, allocator and CPU state.  For each topology x attitude
variant, each tree builds the stock ``RunConfig`` stream (the default
circle flight, shortened to ``--duration`` seconds at ``--seed``) with its
own harness.  Rounds then alternate between the trees, and which tree goes
first alternates too; a round steps the whole stream once through the
tree's ``navfilter.step``, with garbage collection paused, and yields its
mean time per step.

One line per configuration gives each tree's median and quartiles of the
per-step time over the rounds, in microseconds, and the ratio of the
medians, B over A.  Before timing, each tree steps the stream once more,
keeping every state and diagnostic; the script exits 1, naming the first
differing step, unless the two trees produce the same states and dropout
flags bit for bit (floats compared by their hex form, so a signed zero or
a NaN counts).

``--runs N`` times whole offline runs instead, which see the harness's own
cost (stream reading, metrics, artifact writing) that stepping leaves out:
N pairs of ``harness.run_experiment`` on ``configs/circle.yaml`` (30 s by
default), the seed cycling through ``RUN_SEEDS`` values from ``--seed``,
the config loaded untimed, which tree goes first alternating, after one
untimed pair that warms both.  After each pair the two trees'
``metrics.csv`` and ``estimates.csv`` must match byte for byte; the first
that does not is named and the script exits 1 with no timing.  One line
gives each tree's median and quartiles of the run time in milliseconds,
the ratio of the medians, B over A, and the number of pairs B won.

Example:
    python scripts/step_ab.py /path/to/parent-checkout . --rounds 20
    python scripts/step_ab.py /path/to/parent-checkout . --runs 10
"""

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

CONFIGS = [(t, v) for t in ("toa", "tdoa-main", "tdoa-ring") for v in ("matrix", "quaternion")]
CIRCLE = Path(__file__).resolve().parent.parent / "configs" / "circle.yaml"
RUN_SEEDS = 4  # the seeds --runs cycles through, as many as the offline study workload runs


def load_tree(root: Path, name: str):
    """The ``uwbnav`` package of the checkout at ``root``, imported under ``name``."""
    pkg = root / "src" / "uwbnav"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None or not (pkg / "__init__.py").is_file():
        sys.exit(f"{root}: no src/uwbnav package")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("navfilter", "harness", "sim"):
        importlib.import_module(f"{name}.{sub}")
    return module


def stream(pkg, topology: str, variant: str, duration: float, seed: int):
    """``(step, args, initial state, samples)``: one stock stream built by the tree's own harness."""
    harness = pkg.harness
    cfg = harness.RunConfig(topology=topology, variant=variant, duration=duration, seed=seed)
    env, anchors, gains = cfg.env(), cfg.anchor_set(), cfg.gains()
    traj = pkg.sim.generate_trajectory(cfg.trajectory, {"duration": cfg.duration, "rate": cfg.rate}, env)
    imu, ranges = harness.synthesize_measurements(traj, anchors, topology, cfg.noise(), env)
    return pkg.navfilter.step, (anchors, env, gains, cfg.dt), cfg.initial_state(), list(zip(imu[:-1], ranges[:-1]))


def trace(run) -> list[list[str]]:
    """Every state and dropout flag of one pass over the stream, as hex strings of the floats."""
    step, (anchors, env, gains, dt), state, samples = run
    out = []
    for imu, ranges in samples:
        state, diag = step(state, imu, ranges, anchors, env, gains, dt)
        floats = [*(x for row in state.attitude for x in (row if isinstance(row, (tuple, list)) else (row,))),
                  *state.p_hat, *state.v_hat, *state.sigma_hat]
        out.append([float(x).hex() for x in floats] + [str(bool(diag.dropout))])
    return out


def timed(run) -> float:
    """Mean microseconds per step of one pass over the stream."""
    step, (anchors, env, gains, dt), state, samples = run
    gc.collect()
    gc.disable()
    try:
        start = perf_counter_ns()
        for imu, ranges in samples:
            state, _ = step(state, imu, ranges, anchors, env, gains, dt)
        elapsed = perf_counter_ns() - start
    finally:
        gc.enable()
    return elapsed / 1e3 / len(samples)


def timed_run(pkg, cfg) -> float:
    """Milliseconds of one ``run_experiment`` of ``cfg`` by the tree's harness."""
    gc.collect()
    start = perf_counter_ns()
    pkg.harness.run_experiment(cfg)
    return (perf_counter_ns() - start) / 1e6


def run_pairs(trees, runs: int, duration: float, seed: int) -> int:
    """Time ``runs`` interleaved pairs of whole circle runs; exit status 1 if the trees' artifacts differ."""
    times = ([], [])
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(-1, runs):  # pair -1, untimed, warms both trees
            seed_k = seed + max(k, 0) % RUN_SEEDS
            outs = [Path(tmp) / side / str(seed_k) for side in "ab"]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                overrides = {"duration": duration, "seed": seed_k, "out": str(outs[side])}
                elapsed = timed_run(trees[side], trees[side].harness.load_config(CIRCLE, overrides))
                if k >= 0:
                    times[side].append(elapsed)
            for name in ("metrics.csv", "estimates.csv"):
                if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                    print(f"seed {seed_k}: {name} DIFFERS between the trees")
                    return 1
    (a1, a2, a3), (b1, b2, b3) = quartiles(times[0]), quartiles(times[1])
    wins = sum(b < a for a, b in zip(*times))
    print("runs                A p50 [q1, q3] ms             B p50 [q1, q3] ms             B/A    B wins  outputs")
    print(f"circle {duration:g} s x {runs:<4d}  {a2:7.2f} [{a1:7.2f}, {a3:7.2f}]  {b2:7.2f} [{b1:7.2f}, {b3:7.2f}]  "
          f"{b2 / a2:5.3f}  {wins:3d}/{runs:<3d} identical")
    return 0


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, statistics.median(xs), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout of tree A (the base of the ratio)")
    parser.add_argument("b", type=Path, help="checkout of tree B")
    parser.add_argument("--duration", type=float, help="stream or run length in seconds (default 10, 30 with --runs)")
    parser.add_argument("--rounds", type=int, default=12, help="timed rounds per tree and configuration (default 12)")
    parser.add_argument("--runs", type=int, metavar="N", help="time N pairs of whole offline runs instead of steps")
    parser.add_argument("--seed", type=int, default=1, help="noise seed of every stream, the first of --runs (default 1)")
    args = parser.parse_args(argv)
    if args.duration is None:
        args.duration = 10.0 if args.runs is None else 30.0
    if args.rounds < 1 or (args.runs is not None and args.runs < 1) or not args.duration > 0:
        parser.error("--rounds and --runs must be at least 1 and --duration positive")
    trees = (load_tree(args.a.resolve(), "uwbnav_a"), load_tree(args.b.resolve(), "uwbnav_b"))
    if args.runs is not None:
        return run_pairs(trees, args.runs, args.duration, args.seed)
    same = True
    print("config                  A p50 [q1, q3] us       B p50 [q1, q3] us       B/A   states")
    for topology, variant in CONFIGS:
        runs = [stream(pkg, topology, variant, args.duration, args.seed) for pkg in trees]
        ta, tb = trace(runs[0]), trace(runs[1])
        diff = next((i for i, (x, y) in enumerate(zip(ta, tb)) if x != y), None)
        if diff is None and len(ta) != len(tb):
            diff = min(len(ta), len(tb))
        same = same and diff is None
        times = ([], [])
        for k in range(args.rounds):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                times[side].append(timed(runs[side]))
        (a1, a2, a3), (b1, b2, b3) = quartiles(times[0]), quartiles(times[1])
        verdict = "identical" if diff is None else f"DIFFER at step {diff}"
        print(f"{topology + '/' + variant:22s}  {a2:6.2f} [{a1:6.2f}, {a3:6.2f}]  "
              f"{b2:6.2f} [{b1:6.2f}, {b3:6.2f}]  {b2 / a2:5.3f}  {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
