#!/usr/bin/env python3
"""Check the artifact writers' number formatter against Python's ``%.17g`` on many values.

Every CSV artifact is written by ``harness._texts``, which formats a chunk's
float block with numpy, and ``harness._csv``, which joins its fields.  Each
value's text must be ``b"%.17g" % x``.  This script formats ``--values``
float64 values in the writers' ``(512, 8)`` chunks and compares every chunk's
bytes with Python's own.  It stops at the first value that differs, prints
that value (its repr and bits) with both texts, and exits 1.  On a full
match it prints one line and exits 0.

The first values are fixed edge cases: signed zeros, NaN, infinities, the
float range's ends and subnormals, every power of ten and the doubles
beside it, the positional/exponent thresholds, and halfway ties.  The rest
are drawn from ``--seed`` in four equal shares: raw 64-bit patterns, values
spread over 40 decades, short decimals, and exact ties, which Python rounds
half to even.  The script imports the ``uwbnav`` sources of the checkout it
sits in.

Example:
    python scripts/format_check.py --values 10000000 --seed 1
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uwbnav import harness  # noqa: E402

ROWS, COLS = 512, 8
TIE_K = np.arange(1, 25)  # m * 2**-(k + 1) with m odd scales by 10**k to a 17-digit integer and a half


def edge_values() -> np.ndarray:
    """The fixed cases, both signs of each."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    thresholds = np.array([1e-5, 1e-4, 1e16, 1e17]) * (1.0 + np.linspace(-3e-15, 3e-15, 13))[:, None]
    ends = [0.0, np.nan, np.inf, 5e-324, np.finfo(float).max, np.finfo(float).tiny, 2.225073858507201e-308,
            1000000000000000.25, 1000000000000000.75, 1.506, 4.954208198570953e-06]
    one = np.concatenate([ends, powers, *near, thresholds.ravel(), _ties(np.random.default_rng(0), 256)])
    return np.concatenate([one, -one])


def _ties(rng, n: int) -> np.ndarray:
    """``n`` exact ties: 18 significant digits, the last a 5."""
    k = rng.choice(TIE_K, n)
    lo, hi = -(-2 * 10**16 // 5**k), np.minimum(2 * 10**17 // 5**k, 2**53)
    return (rng.integers(lo, hi) | 1) * 2.0 ** (-1 - k)


def draws(rng, n: int) -> np.ndarray:
    """``n`` values, a quarter of each kind, shuffled."""
    q = -(-n // 4)
    spread = rng.standard_normal(q) * 10.0 ** rng.integers(-20, 20, q)
    scale = 10.0 ** rng.integers(0, 8, q)  # 0 to 7 decimals
    short = np.rint(rng.standard_normal(q) * 10.0 ** rng.integers(-3, 6, q) * scale) / scale
    bits = rng.integers(0, 2**64, q, dtype=np.uint64, endpoint=False).view(np.float64)
    return rng.permutation(np.concatenate([bits, spread, short, _ties(rng, q)]))[:n]


def first_mismatch(values: np.ndarray) -> tuple[float, bytes, bytes] | None:
    """The first value whose field differs from Python's text, with both texts; None if all match."""
    block = np.concatenate([values, np.zeros(-len(values) % COLS)]).reshape(-1, COLS)
    got = harness._csv([harness._texts(block)])
    line = b"%.17g," * (COLS - 1) + b"%.17g\n"
    if got == line * len(block) % tuple(block.ravel().tolist()):
        return None
    fields = got.replace(b"\n", b",").split(b",")
    for x, field in zip(block.ravel().tolist(), fields):
        if field != b"%.17g" % x:
            return x, field, b"%.17g" % x
    raise AssertionError("the chunk differs in its separators")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10_000_000, help="values to check (at least 1)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.values < 1:
        parser.error("--values must be at least 1")
    rng = np.random.default_rng(args.seed)
    values, done = edge_values()[: args.values], 0
    while len(values):
        for lo in range(0, len(values), ROWS * COLS):
            bad = first_mismatch(values[lo : lo + ROWS * COLS])
            if bad is not None:
                x, got, want = bad
                print(f"MISMATCH {x!r} (bits {np.float64(x).view(np.uint64):#018x}): {got!r} != {want!r}")
                return 1
        done += len(values)
        values = draws(rng, min(args.values - done, 64 * ROWS * COLS))
    print(f"all {done} values match %.17g (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
