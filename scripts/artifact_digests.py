#!/usr/bin/env python3
"""SHA-256 digest of every artifact a fixed set of runs writes.

A refactor that claims to change no behaviour proves it by printing the
same lines before and after.  The runs, all through ``uwbnav.cli`` into a
temporary directory:

- ``circle/<topology>-<variant>/``: ``configs/circle.yaml`` shortened to
  20 s, seed 0, for every topology (toa, tdoa-main, tdoa-ring) and
  attitude variant (matrix, quaternion): ``truth.csv``, ``estimates.csv``,
  ``metrics.csv``, ``summary.json``.
- ``circle/toa-matrix-500hz/``: the same 20 s flight and seed with
  ``rate: 500`` and ``filter_rate: 100``, for toa and matrix: the same four
  files of a run whose flight clock is not the config's ``rate``.
- ``replay/<topology>/``: a 20 s, 500 Hz circle flight written by
  ``simulate`` with ``configs/dataset_replay.yaml``'s gains and lever arm
  (seed 3), replayed by ``run`` at 100 Hz and re-scored by ``metrics``,
  for tdoa-main and tdoa-ring: the four dataset CSVs under ``dataset/``,
  the run's artifacts under ``run/`` and the re-scored ``rescored.csv``.

Output is one ``sha256  relative/path`` line per file, sorted by path.  The
script imports the ``uwbnav`` sources of the checkout it sits in, so a copy
placed in another checkout digests that checkout.  With ``--check FILE`` it
compares the digests against a listing saved from an earlier run instead:
it prints each path whose digest differs, or that only one side has, and
exits 1 if there is any; on a full match it prints one summary line and
exits 0.

Example:
    python scripts/artifact_digests.py > digests.txt
    python scripts/artifact_digests.py --check digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))

import yaml  # noqa: E402

from uwbnav import cli  # noqa: E402
from uwbnav.uwb import TOPOLOGIES  # noqa: E402

DURATION = 20.0
VARIANTS = ("matrix", "quaternion")
REPLAY_TOPOLOGIES = TOPOLOGIES[1:]
REPLAY_SEED = 3


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"uwbnav {' '.join(argv)} exited with code {code}")


def _write_yaml(path: Path, config: dict) -> str:
    path.write_text(yaml.safe_dump(config))
    return str(path)


def _circle_runs(work: Path) -> None:
    circle = yaml.safe_load((CONFIGS / "circle.yaml").read_text())
    config = _write_yaml(work / "circle.yaml", {**circle, "duration": DURATION})
    for topology in TOPOLOGIES:
        for variant in VARIANTS:
            out = work / "circle" / f"{topology}-{variant}"
            _cli("run", "--config", config, "--topology", topology, "--variant", variant,
                 "--seed", "0", "--out", str(out))
    fast = _write_yaml(work / "circle-500hz.yaml", {**circle, "duration": DURATION, "rate": 500.0, "filter_rate": 100.0})
    _cli("run", "--config", fast, "--topology", "toa", "--variant", "matrix",
         "--seed", "0", "--out", str(work / "circle" / "toa-matrix-500hz"))


def _replay_round_trips(work: Path) -> None:
    replay = yaml.safe_load((CONFIGS / "dataset_replay.yaml").read_text())
    circle = yaml.safe_load((CONFIGS / "circle.yaml").read_text())
    # the replay config's gains, lever arm and 500 Hz clock; the stock circle flight
    simulate = {k: v for k, v in replay.items() if k not in ("mode", "dataset_dir", "out")}
    simulate.update({k: circle[k] for k in ("trajectory", "p0", "radius", "period")})
    simulate["duration"] = DURATION
    simulate_yaml = _write_yaml(work / "simulate.yaml", simulate)
    for topology in REPLAY_TOPOLOGIES:
        base = work / "replay" / topology
        dataset, run = base / "dataset", base / "run"
        run_yaml = _write_yaml(
            work / f"replay-{topology}.yaml",
            {**{k: v for k, v in replay.items() if k != "out"}, "dataset_dir": str(dataset)},
        )
        _cli("simulate", "--config", simulate_yaml, "--topology", topology,
             "--seed", str(REPLAY_SEED), "--out", str(dataset))
        _cli("run", "--config", run_yaml, "--topology", topology, "--out", str(run))
        _cli("metrics", str(run), "--out", str(run / "rescored.csv"))


def _digests() -> dict[str, str]:
    """Relative path -> SHA-256 hex digest of every artifact the runs write."""
    with tempfile.TemporaryDirectory(prefix="uwbnav-digests-") as tmp:
        work = Path(tmp)
        _circle_runs(work)
        _replay_round_trips(work)
        return {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for top in ("circle", "replay") for path in (work / top).rglob("*") if path.is_file()
        }


def _listing(path: Path) -> dict[str, str]:
    """The ``path -> digest`` map of a saved listing, one ``sha256  relative/path`` line each."""
    saved = {}
    for line in path.read_text().splitlines():
        digest, sep, name = line.partition("  ")
        if not sep or not name:
            sys.exit(f"{path}: not a digest listing line: {line!r}")
        saved[name] = digest
    return saved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, metavar="FILE", help="compare against a saved listing")
    args = parser.parse_args(argv)
    saved = None if args.check is None else _listing(args.check)
    digests = _digests()
    if saved is None:
        for name in sorted(digests):
            print(f"{digests[name]}  {name}")
        return 0
    differing = sorted(name for name in digests.keys() | saved.keys() if digests.get(name) != saved.get(name))
    for name in differing:
        print(name)
    if differing:
        return 1
    print(f"all {len(digests)} artifacts match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
