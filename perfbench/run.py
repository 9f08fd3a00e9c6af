#!/usr/bin/env python3
"""uwbnav benchmark: three workloads, end-to-end metrics, traced layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload online-ring-quat --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with only a step-latency
probe installed; ``--trace 1`` alternates untraced and traced operations
and reports per-layer figures plus the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import os

# one process on a 2-core box: keep BLAS to one thread so it never
# competes with the interpreter (set before numpy is first imported)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench"

if not (SRC / "uwbnav" / "__init__.py").is_file() or not CONFIGS.is_dir():
    sys.exit(f"perfbench: no uwbnav sources under {ROOT}; run from a repository checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from tracing import StepProbe, Tracer, restore  # noqa: E402
from uwbnav import cli, harness, liegroup, navfilter, sim  # noqa: E402

# sub-seeds of workload seed n are n * SEED_STRIDE + j, so distinct workload
# seeds never share an input; seeds from HELD_OUT_FROM up are kept back for
# checking a claim on inputs not used while the change was written
SEED_STRIDE = 1000
HELD_OUT_FROM = 1000

SETUP_SAMPLES = 5
# reference samples before the first operation, so the kernel is warm
WARM_SAMPLES = 3
# zero on a healthy run, so the JSON result carries it as ok_ratio and as
# the attempted/failed counts instead
PRINTED_ONLY = {"fail_ratio"}
CONVERGED_M = 0.3  # summary.json's time_to_pos_below_0.3
STEADY_POS_TOL_M = 0.3  # acceptance criterion 6
MATRIX_DRIFT_TOL = 1e-9  # acceptance criterion 4
QUAT_NORM_TOL = 1e-12  # acceptance criterion 4


@dataclass(frozen=True)
class Size:
    """Inputs per run (distinct sub-seeds) and simulated seconds per input."""

    inputs: int
    duration: float


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _plain(call_name, fn, *args):
    return fn(*args)


class OnlineRingQuat:
    """Closed loop, one client: a recorded stream fed sample by sample to step."""

    name = "online-ring-quat"
    variant = "quaternion"

    def __init__(self, work: Path, seeds: list[int], size: Size) -> None:
        self.config = (
            CONFIGS / "circle.yaml",
            {"topology": "tdoa-ring", "variant": "quaternion", "duration": size.duration},
        )
        self.seeds = seeds
        self.streams = [self._stream(seed) for seed in seeds]

    def _stream(self, seed: int):
        path, overrides = self.config
        cfg = harness.load_config(path, {**overrides, "seed": seed})
        env = cfg.env()
        params = {"duration": cfg.duration, "rate": cfg.rate, **cfg.trajectory_params}
        traj = sim.generate_trajectory(cfg.trajectory, params, env)
        anchors = cfg.anchor_set()
        imu, ranges = harness.synthesize_measurements(
            traj, anchors, cfg.topology, cfg.noise(), env, cfg.tag_offset
        )
        return cfg, traj, imu, ranges, anchors, env

    def operation(self, j: int, call=_plain) -> int:
        cfg, traj, imu, ranges, anchors, env = self.streams[j]
        gains, dt = cfg.gains(), cfg.dt
        state = cfg.initial_state()
        for i in range(len(traj) - 1):
            # attribute lookup on every call, so installed wrappers apply
            state, _ = navfilter.step(state, imu[i], ranges[i], anchors, env, gains, dt)
        return len(traj) - 1

    def score(self, j: int, states: list) -> tuple[str, dict, list[str]]:
        traj = self.streams[j][1]
        p = np.array([s.p_hat for s in states])
        v = np.array([s.v_hat for s in states])
        pos = np.linalg.norm(traj.p[1:] - p, axis=1)
        vel = np.linalg.norm(traj.v[1:] - v, axis=1)
        att = np.array(
            [liegroup.attitude_distance(r @ s.rotation().T) for r, s in zip(traj.rot[1:], states)]
        )
        tail = slice(len(states) // 2, None)
        below = np.flatnonzero(pos <= CONVERGED_M)
        accuracy = {
            "pos_err_ss_m": float(np.median(pos[tail])),
            "vel_err_ss_mps": float(np.median(vel[tail])),
            "att_err_ss": float(np.median(att[tail])),
            "converge_t_s": float(traj.t[1 + below[0]]) if below.size else None,
        }
        trace = np.concatenate(
            [np.array([s.attitude for s in states]).ravel(), p.ravel(), v.ravel(),
             np.array([s.sigma_hat for s in states]).ravel()]
        )
        return _digest(trace.tobytes()), accuracy, []


def _summary_accuracy(summary: dict) -> dict:
    steady = summary["steady_state_median"]
    return {
        "pos_err_ss_m": steady["pos_err"],
        "vel_err_ss_mps": steady["vel_err"],
        "att_err_ss": steady["att_err"],
        "converge_t_s": summary["time_to_pos_below_0.3"],
    }


class StudyToaMatrix:
    """Offline study: the stock circle config over several seeds, artifacts written."""

    name = "study-toa-matrix"
    variant = "matrix"

    def __init__(self, work: Path, seeds: list[int], size: Size) -> None:
        self.out = work / "study"
        self.config = (CONFIGS / "circle.yaml", {"duration": size.duration})
        self.seeds = seeds

    def operation(self, j: int, call=_plain) -> int:
        path, overrides = self.config
        cfg = harness.load_config(path, {**overrides, "seed": self.seeds[j], "out": str(self.out)})
        return harness.run_experiment(cfg)["steps"]

    def score(self, j: int, states: list) -> tuple[str, dict, list[str]]:
        summary = json.loads((self.out / "summary.json").read_text())
        accuracy = _summary_accuracy(summary)
        problems = []
        if not accuracy["pos_err_ss_m"] <= STEADY_POS_TOL_M:
            problems.append(
                f"steady-state position error {accuracy['pos_err_ss_m']:.3f} m "
                f"above {STEADY_POS_TOL_M} m"
            )
        return _digest((self.out / "metrics.csv").read_bytes()), accuracy, problems


class ReplayMain:
    """Dataset round trip through the CLI: simulate, replay, re-score."""

    name = "replay-main"
    variant = "matrix"

    def __init__(self, work: Path, seeds: list[int], size: Size) -> None:
        replay = yaml.safe_load((CONFIGS / "dataset_replay.yaml").read_text())
        flight = yaml.safe_load((CONFIGS / "circle.yaml").read_text())
        self.dataset = work / "dataset"
        self.run_dir = work / "run"
        # load_config checks that dataset_dir exists, and set-up timing loads
        # the replay config before the first simulate has written anything
        self.dataset.mkdir(parents=True)
        # dataset_replay.yaml's gains and lever arm on both sides; the flight
        # is the stock circle, generated at the replay config's 500 Hz
        simulate = {k: v for k, v in replay.items() if k not in ("mode", "dataset_dir", "out")}
        simulate.update({k: flight[k] for k in ("trajectory", "p0", "radius", "period")})
        simulate["duration"] = size.duration
        self.simulate_yaml = work / "simulate.yaml"
        self.simulate_yaml.write_text(yaml.safe_dump(simulate))
        run = {k: v for k, v in replay.items() if k != "out"}
        run["dataset_dir"] = str(self.dataset)
        run_yaml = work / "replay.yaml"
        run_yaml.write_text(yaml.safe_dump(run))
        self.config = (run_yaml, {"topology": "tdoa-main"})
        self.seeds = seeds

    def operation(self, j: int, call=_plain) -> int:
        verbs = [
            ("cli.simulate", ["simulate", "--config", str(self.simulate_yaml),
                              "--topology", "tdoa-main", "--seed", str(self.seeds[j]),
                              "--out", str(self.dataset)]),
            ("cli.run", ["run", "--config", str(self.config[0]), "--topology", "tdoa-main",
                         "--out", str(self.run_dir)]),
            ("cli.metrics", ["metrics", str(self.run_dir),
                             "--out", str(self.run_dir / "rescored.csv")]),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for span, argv in verbs:
                code = call(span, cli.main, argv)
                if code != 0:
                    raise RuntimeError(f"uwbnav {argv[0]} exited with code {code}")
        return json.loads((self.run_dir / "summary.json").read_text())["steps"]

    def score(self, j: int, states: list) -> tuple[str, dict, list[str]]:
        summary = json.loads((self.run_dir / "summary.json").read_text())
        digest = _digest(
            (self.run_dir / "metrics.csv").read_bytes(),
            (self.run_dir / "rescored.csv").read_bytes(),
        )
        return digest, _summary_accuracy(summary), []


WORKLOADS = {w.name: w for w in (OnlineRingQuat, StudyToaMatrix, ReplayMain)}

SIZES = {
    "online-ring-quat": Size(inputs=20, duration=10.0),
    "study-toa-matrix": Size(inputs=4, duration=30.0),
    "replay-main": Size(inputs=4, duration=25.0),
}


def state_problems(states: list, variant: str) -> list[str]:
    """Finite state, and attitude on the group within criterion 4's bounds."""
    if not states:
        return ["no filter step ran"]
    att = np.array([s.attitude for s in states])
    rest = np.array([np.concatenate([s.p_hat, s.v_hat, s.sigma_hat]) for s in states])
    if not (np.all(np.isfinite(att)) and np.all(np.isfinite(rest))):
        return ["non-finite state"]
    problems = []
    if any(s.variant != variant for s in states):
        problems.append(f"attitude is not the {variant} variant")
    elif variant == "matrix":
        gram = np.einsum("nji,njk->nik", att, att) - np.eye(3)
        drift = float(np.max(np.linalg.norm(gram, axis=(1, 2))))
        if not drift <= MATRIX_DRIFT_TOL:
            problems.append(f"rotation drift {drift:.2e} above {MATRIX_DRIFT_TOL}")
    else:
        drift = float(np.max(np.abs(np.linalg.norm(att, axis=1) - 1.0)))
        if not drift <= QUAT_NORM_TOL:
            problems.append(f"quaternion norm drift {drift:.2e} above {QUAT_NORM_TOL}")
    return problems


def setup_seconds(config: tuple[Path, dict]) -> list[float]:
    """Fresh-process time to import uwbnav.cli and load the workload's config.

    Measured as is: import time (file reads, unmarshalling, allocation)
    does not track the host clock's reference kernel, so rescaling it
    would add noise, not take it out.
    """
    child = (
        "import json, sys, time\n"
        "t0 = time.perf_counter()\n"
        "import uwbnav.cli\n"
        "from uwbnav.harness import load_config\n"
        "load_config(sys.argv[1], json.loads(sys.argv[2]))\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    path, overrides = config
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", child, str(path), json.dumps(overrides)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Op:
    traced: bool
    wall: float = 0.0  # measured seconds, reference samples left out
    nominal: float = 0.0  # the same at nominal host speed
    steps: int = 0
    failure: str = ""


def run_ops(workload, seconds: float, trace: bool, host: HostClock):
    """Run operations for ``seconds``, cycling through the inputs.

    An untraced run does every input once plus one repeat, however long
    that takes, so every run scores the same inputs and checks a repeat.
    A traced run alternates each input untraced, then traced (one pair at
    least), so the overhead ratio compares the same work back to back.
    Every operation is bracketed by host-clock samples, and an untraced
    one is sampled on the host clock's timer as it runs.
    """
    probe, tracer = StepProbe(host), Tracer() if trace else None
    inputs = len(workload.seeds)
    ops: list[Op] = []
    digests: dict[int, str] = {}
    accuracy: dict[int, dict] = {}
    minimum = 2 if trace else inputs + 1
    marks: list[tuple[Op, int, int]] = []
    for _ in range(WARM_SAMPLES):
        host.sample()
    deadline = time.perf_counter() + seconds
    while len(ops) < minimum or time.perf_counter() < deadline:
        n = len(ops)
        traced = trace and n % 2 == 1
        j = (n // 2 if trace else n) % inputs
        op = Op(traced=traced)
        instrument = tracer if traced else probe
        instrument.reset()
        saved = instrument.install()
        first = host.sample()
        try:
            if traced:
                tracer.op = n
                op.steps = tracer.call("op", workload.operation, j, tracer.call)
            else:
                host.start()
                op.steps = workload.operation(j)
        except Exception as err:  # a failed operation is counted, not fatal
            op.failure = f"{type(err).__name__}: {err}"
        finally:
            host.stop()
            last = host.sample()
            restore(saved)
        op.wall = host.span(first, last, nominal=False)
        marks.append((op, first, last))
        if traced:
            tracer.settle(measure=not op.failure)
        if not op.failure:
            try:
                digest, acc, problems = workload.score(j, instrument.states)
                problems += state_problems(instrument.states, workload.variant)
                if acc["converge_t_s"] is None:
                    problems.append(f"position error never reached {CONVERGED_M} m")
                if j in digests and digests[j] != digest:
                    problems.append("repeat with the same seed gave different output")
                digests.setdefault(j, digest)
                accuracy.setdefault(j, acc)
                op.failure = "; ".join(problems)
            except Exception as err:
                op.failure = f"check failed: {type(err).__name__}: {err}"
        if op.failure:
            print(f"operation {n} (input {j}) failed: {op.failure}", file=sys.stderr)
        instrument.reset()
        ops.append(op)
    for op, first, last in marks:
        op.nominal = host.span(first, last, nominal=True)
    return ops, probe, tracer, accuracy


def _median(values):
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else None


def _percentile(values: np.ndarray, q: float):
    return float(np.percentile(values, q)) if values.size else None


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def end_to_end(ops, probe, accuracy, setup, host):
    """End-to-end metrics; every time but setup_s is at nominal host speed.

    See hostspeed.py.  The notes carry the measured figures next to the
    nominal ones.
    """
    good = [op for op in ops if not op.failure]
    walls = [op.nominal for op in good]
    raw_walls = [op.wall for op in good]
    steps = sum(op.steps for op in good)
    raw_us = np.array(probe.latency_ns, dtype=float) / 1e3
    lat_us = raw_us * host.speeds()[np.array(probe.segments, dtype=int)]
    metrics = {
        "setup_s": (_median(setup), "s", f"median of {len(setup)} fresh processes"),
        "wall_s": (
            _median(walls), "s",
            f"median of {len(walls)} operations, range {_fmt(min(walls, default=None))}"
            f"-{_fmt(max(walls, default=None))} s; measured {_fmt(_median(raw_walls))} s",
        ),
        "steps_per_s": (
            steps / sum(walls) if walls else None, "1/s",
            f"{steps} steps; measured {_fmt(steps / sum(raw_walls) if walls else None)} 1/s",
        ),
        "step_p50_us": (
            _percentile(lat_us, 50), "us",
            f"{lat_us.size} step calls; measured {_fmt(_percentile(raw_us, 50))} us",
        ),
        "step_p99_us": (
            _percentile(lat_us, 99), "us",
            f"{lat_us.size} step calls, {int(lat_us.size * 0.01)} beyond; "
            f"measured {_fmt(_percentile(raw_us, 99))} us",
        ),
    }
    units = {"pos_err_ss_m": "m", "vel_err_ss_mps": "m/s", "att_err_ss": "1", "converge_t_s": "sim_s"}
    for key, unit in units.items():
        metrics[key] = (
            _median(a[key] for a in accuracy.values()), unit,
            f"median over {len(accuracy)} seeds",
        )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "whole process"
    )
    failed = len(ops) - len(good)
    metrics["ok_ratio"] = (len(good) / len(ops), "ratio", f"{len(good)} of {len(ops)} succeeded")
    metrics["fail_ratio"] = (failed / len(ops), "ratio", f"{failed} failed / {len(ops)} attempted")
    return metrics


def traced_layers(ops, tracer):
    metrics = {k: (v, unit, "") for k, (v, unit) in tracer.layer_metrics().items()}
    plain = _median(op.wall for op in ops if not op.traced and not op.failure)
    traced = _median(op.wall for op in ops if op.traced and not op.failure)
    ratio = traced / plain if plain and traced else None
    metrics["trace.overhead_ratio"] = (
        ratio, "ratio", f"traced wall_s {traced:.4f} s vs untraced {plain:.4f} s"
        if ratio else "",
    )
    return metrics


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def context(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.seed >= HELD_OUT_FROM,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": vars(SIZES[args.workload]),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            v: os.environ.get(v)
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, size: Size, work: Path):
    """One run: returns (ops, metrics as name -> (value, unit, note), tracer or None)."""
    seeds = [seed * SEED_STRIDE + j for j in range(size.inputs)]
    cls = WORKLOADS[name]
    workload = cls(work, seeds, size)
    host = HostClock()
    setup = [] if trace else setup_seconds(workload.config)
    ops, probe, tracer, accuracy = run_ops(workload, seconds, trace, host)
    if trace:
        tracer.write(OUT / f"spans-{name}-seed{seed}.csv")
        return ops, traced_layers(ops, tracer), tracer
    return ops, end_to_end(ops, probe, accuracy, setup, host), None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print("context " + json.dumps(context(args), sort_keys=True))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops, metrics, _ = benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            SIZES[args.workload], work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key} = {shown} {unit}" + (f"  ({note})" if note else ""))
    failed = sum(1 for op in ops if op.failure)
    result = {
        "correct": failed == 0 and all(v is not None for v, _, _ in metrics.values()),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit, _) in metrics.items()
            if value is not None and key not in PRINTED_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
