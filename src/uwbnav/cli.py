"""Command-line front end.

Verbs
-----
``simulate``
    Generate a synthetic flight and write it out in the four-file CSV
    dataset layout (truth / imu / anchors / tdoa).
``run``
    Execute a configured experiment (synthetic or dataset replay) and
    write estimates, metrics, and a summary.
``metrics``
    Recompute the error metrics for a finished run from its saved
    estimate trace and a truth file.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from .harness import (
    VARIANTS,
    ClockError,
    ConfigError,
    NumericalFailure,
    SchemaError,
    load_config,
    measurement_blocks,
    recompute_metrics,
    run_experiment,
    write_dataset,
)
from .harness import synthesize_measurements  # noqa: F401 -- no call here: perfbench/tracing.py patches it as a listed caller
from .sim import BadParams, TooFewSamples, generate_trajectory
from .uwb import TOPOLOGIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (ConfigError, BadParams, yaml.YAMLError)
_DATA_ERRORS = (SchemaError, ClockError, TooFewSamples)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration file (flat key/value YAML)")
    parser.add_argument("--seed", type=int, help="noise stream seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--topology",
        choices=TOPOLOGIES,
        help="ranging observation topology",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbnav",
        description="UWB/IMU fusion navigation: simulate, run, re-score.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    _add_common(p_sim)

    p_run = sub.add_parser("run", help="run a configured experiment")
    _add_common(p_run)
    p_run.add_argument(
        "--variant",
        choices=VARIANTS,
        help="attitude parametrization of the filter",
    )
    p_run.add_argument(
        "--rate", type=float, dest="filter_rate", help="filter update rate in Hz"
    )

    p_met = sub.add_parser("metrics", help="recompute metrics for a finished run")
    p_met.add_argument("run_dir", help="directory holding estimates.csv")
    p_met.add_argument("--truth", help="truth CSV (default: <run_dir>/truth.csv)")
    p_met.add_argument("--out", help="metrics CSV to write (default: <run_dir>/metrics.csv)")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "out": args.out,
        "topology": args.topology,
        # run's flags: simulate runs no filter, so it takes neither
        "variant": getattr(args, "variant", None),
        "filter_rate": getattr(args, "filter_rate", None),
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.topology == "toa":
        raise ConfigError("the dataset layout carries TDOA rows; choose a tdoa topology")
    env = cfg.env()
    traj = generate_trajectory(cfg.trajectory, dict(cfg.trajectory_params, duration=cfg.duration, rate=cfg.rate), env)
    imu, diffs = measurement_blocks(traj, cfg.anchor_set(), cfg.topology, cfg.noise(), env, cfg.tag_offset)
    out = write_dataset(cfg.out, traj, cfg.anchor_set(), cfg.topology, imu, diffs)
    print(f"dataset: {len(traj)} samples at {cfg.rate:g} Hz -> {out}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    summary = run_experiment(cfg)
    final = summary["final"]
    print(
        f"run: {summary['steps']} steps, {summary['dropouts']} dropouts, "
        f"final pos {final['pos_err']:.3f} m, vel {final['vel_err']:.3f} m/s, "
        f"att {final['att_err']:.4f} -> {cfg.out}"
    )
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    run_dir = args.run_dir.rstrip("/")
    truth = args.truth if args.truth else f"{run_dir}/truth.csv"
    out = args.out if args.out else f"{run_dir}/metrics.csv"
    n = recompute_metrics(f"{run_dir}/estimates.csv", truth, out)
    print(f"metrics: {n} rows -> {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "simulate":
            return _cmd_simulate(args)
        if args.verb == "run":
            return _cmd_run(args)
        return _cmd_metrics(args)
    except _CONFIG_ERRORS as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFailure as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
