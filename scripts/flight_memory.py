#!/usr/bin/env python3
"""Peak memory and wall time of ``uwbnav simulate`` and ``uwbnav run`` on one long recorded-flight stand-in.

The flight is the one the benchmark's ``replay-main`` workload replays:
``configs/circle.yaml``'s circle (``trajectory``, ``p0``, ``radius``,
``period``) at ``configs/dataset_replay.yaml``'s 500 Hz, with its gains and
tag lever arm, ``--duration`` seconds long, on the ``tdoa-main`` topology.
``simulate`` writes the four-file dataset and ``run`` replays it at the
config's 100 Hz filter rate, each as ``python -m uwbnav.cli`` in a fresh
child process whose resource usage is read when it exits (``os.wait4``).
One line per command gives its peak resident set (``ru_maxrss``, MB), its
wall time (s, interpreter start-up included) and its exit code; a last line
gives the SHA-256 of the dataset's four files, read in name order.

The children import the ``uwbnav`` sources of the checkout this script sits
in, so a copy placed in another checkout measures that checkout.  The
configs, dataset and run directory go to a temporary directory, removed on
exit, or to ``--work``.

Example:
    python scripts/flight_memory.py --duration 300
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
TOPOLOGY = "tdoa-main"
DATASET_FILES = ("anchors.csv", "imu.csv", "tdoa.csv", "truth.csv")


def _configs(work: Path, duration: float) -> tuple[Path, Path]:
    """The simulate and replay configs of the flight under ``work``, as the benchmark builds them."""
    replay = yaml.safe_load((CONFIGS / "dataset_replay.yaml").read_text())
    flight = yaml.safe_load((CONFIGS / "circle.yaml").read_text())
    simulate = {k: v for k, v in replay.items() if k not in ("mode", "dataset_dir", "out")}
    simulate.update({k: flight[k] for k in ("trajectory", "p0", "radius", "period")}, duration=duration)
    run = {k: v for k, v in replay.items() if k != "out"}
    run["dataset_dir"] = str(work / "dataset")
    paths = work / "simulate.yaml", work / "replay.yaml"
    for path, config in zip(paths, (simulate, run)):
        path.write_text(yaml.safe_dump(config))
    return paths


def _measure(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Peak resident set (MB), wall time (s) and exit code of ``python -m uwbnav.cli argv`` in a fresh process."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    with log.open("w") as out:
        child = subprocess.Popen([sys.executable, "-m", "uwbnav.cli", *argv], env=env, stdout=out, stderr=out)
        _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait for it again
    return usage.ru_maxrss / 1024.0, wall, child.returncode  # ru_maxrss is in KiB on Linux


def _dataset_digest(dataset: Path) -> str:
    digest = hashlib.sha256()
    for name in DATASET_FILES:
        digest.update((dataset / name).read_bytes())
    return digest.hexdigest()


def flight_memory(work: Path, duration: float, seed: int) -> int:
    """Run both commands under ``work`` and print their lines; the exit code is 1 if either failed."""
    simulate_yaml, replay_yaml = _configs(work, duration)
    commands = [
        ("simulate", ["simulate", "--config", str(simulate_yaml), "--topology", TOPOLOGY, "--seed", str(seed),
                      "--out", str(work / "dataset")]),
        ("run", ["run", "--config", str(replay_yaml), "--topology", TOPOLOGY, "--out", str(work / "run")]),
    ]
    print(f"{'command':<10}{'maxrss_mb':>10}{'wall_s':>9}  exit")
    for name, argv in commands:
        log = work / f"{name}.log"
        maxrss, wall, code = _measure(argv, log)
        print(f"{name:<10}{maxrss:>10.1f}{wall:>9.2f}  {code}")
        if code != 0:
            print(log.read_text(), end="", file=sys.stderr)
            return 1
    print(f"dataset sha256 {_dataset_digest(work / 'dataset')}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=300.0, help="flight length in seconds (default 300)")
    parser.add_argument("--seed", type=int, default=1, help="noise seed of the simulated flight (default 1)")
    parser.add_argument("--work", type=Path, help="directory for the configs, dataset and run (default: temporary)")
    args = parser.parse_args()
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        return flight_memory(args.work, args.duration, args.seed)
    with tempfile.TemporaryDirectory() as work:
        return flight_memory(Path(work), args.duration, args.seed)


if __name__ == "__main__":
    sys.exit(main())
