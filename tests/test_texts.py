"""The artifact writers' number formatter against Python's ``%.17g``, byte for byte.

``harness._texts`` turns a float block into NUL-padded fields with numpy, and ``harness._csv`` joins
chosen fields with their literal ends; every CSV artifact is written this way.  For every value the
text must be ``b"%.17g" % x``, the format the artifacts have always had.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uwbnav import harness

ROWS, COLS = 512, 8  # the writers' chunk of rows, by a typical width


def _fields(values: np.ndarray) -> list[bytes]:
    """Each value's field as the writers format it, a chunk of ``(ROWS, COLS)`` at a time, in order."""
    flat = np.concatenate([values, np.zeros(-len(values) % COLS)])
    out = []
    for lo in range(0, len(flat), ROWS * COLS):
        block = flat[lo : lo + ROWS * COLS].reshape(-1, COLS)
        out += harness._csv([harness._texts(block)]).replace(b"\n", b",").split(b",")[:-1]
    return out[: len(values)]


def assert_formats_as_python(values) -> None:
    values = np.asarray(values, dtype=float)
    got, want = _fields(values), [b"%.17g" % x for x in values.tolist()]
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(values)} differ, first {bad[0][0].hex()}: {bad[0][1]} != {bad[0][2]}"


def _neighbours(values, ulps: int = 2) -> np.ndarray:
    """``values`` and the ``ulps`` doubles on each side of each, with both signs."""
    around = [np.asarray(values, dtype=float)]
    for direction in (0.0, np.inf):
        x = around[0]
        for _ in range(ulps):
            x = np.nextafter(x, direction)
            around.append(x)
    both = np.concatenate(around)
    return np.concatenate([both, -both])


def _ties(rng, count: int) -> np.ndarray:
    """Doubles whose exact decimal has 18 significant digits ending in 5: ``m * 2**-(k + 1)``, ``m`` odd.

    Scaled by ``10**k`` to 17 digits, such a value is an integer plus one half, so Python rounds it
    half to even where plain rounding goes up.
    """
    out = []
    for k in range(1, 25):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        for m in rng.integers(lo, hi, count):
            out.append(float(int(m) | 1) * 2.0 ** (-1 - k))
    return np.array(out)


def _near_ties(rng, count: int) -> np.ndarray:
    """Doubles ``2**-p`` (``p`` in 21..40, half a millionth and less) of a 17th-digit unit from a tie, either side.

    ``x = m * 2**-(p + k)`` scales by ``10**k`` to ``m * 5**k / 2**p``, whose fraction is ``r / 2**p``
    for ``r = m * 5**k mod 2**p``; ``m`` is chosen in the double's range with ``r = 2**(p - 1) ± 1``.
    """
    out = []
    for p in range(21, 41):
        for k in range(1, 40):
            lo = max(2**52, -(-(10**16) * 2**p // 5**k))
            hi = min(2**53, 10**17 * 2**p // 5**k)
            if lo >= hi:
                continue
            for sign in (1, -1):
                residue = (2 ** (p - 1) + sign) * pow(5**k, -1, 2**p) % 2**p
                for base in rng.integers(lo, hi, count):
                    m = int(base) - int(base) % 2**p + residue
                    if lo <= m < hi:
                        out.append(m * 2.0 ** -(p + k))
    return np.array(out)


class TestTexts:
    def test_random_bit_patterns(self):
        # every sign, exponent and mantissa: subnormals, infinities and NaN payloads among them
        bits = np.random.default_rng(34).integers(0, 2**64, 262_144, dtype=np.uint64, endpoint=False)
        assert_formats_as_python(bits.view(np.float64))

    def test_zeros_nan_infinities_and_the_float_range_ends(self):
        tiny = np.nextafter(0.0, 1.0)
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, 5e-324, np.finfo(float).max,
                    np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0)]
        subnormals = np.random.default_rng(1).integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64)
        payloads = (np.uint64(0x7FF0000000000001) + np.arange(50, dtype=np.uint64) * 977).view(np.float64)
        assert_formats_as_python(np.concatenate([specials, subnormals, -subnormals, payloads, -payloads]))

    def test_every_power_of_ten_and_its_neighbours(self):
        assert_formats_as_python(_neighbours([float(f"1e{k}") for k in range(-323, 309)], ulps=1))

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
    def test_form_thresholds(self, edge):
        # %g switches between positional and exponent form at 1e-4 and at 1e17 (17 digits)
        near = edge * (1.0 + np.linspace(-1e-15, 1e-15, 41))
        assert_formats_as_python(_neighbours(np.concatenate([[edge], near, [edge * 0.999999, edge * 1.000001]]), 3))

    def test_short_and_exponent_values(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-12, 20, 20_000)
        rounded = np.concatenate([np.round(x, r) for r in range(8)])
        assert_formats_as_python(np.concatenate([[1.506, 4.954208198570953e-06, 0.5, 100.0, 1e16 - 2], x, rounded]))

    def test_fallback_band(self):
        rng = np.random.default_rng(3)
        ties, near = _ties(rng, 20), _near_ties(rng, 2)
        assert ties.size == 480 and near.size > 100
        # 1000000000000000.25 is a tie Python rounds down to the even digit
        assert b"%.17g" % 1000000000000000.25 == b"1000000000000000.2"
        assert_formats_as_python(np.concatenate([[1000000000000000.25], ties, -ties, near, -near]))

    def test_chunks_mixing_values_and_literal_fields(self):
        rng = np.random.default_rng(4)
        pool = np.concatenate([
            rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64), _ties(rng, 2), _near_ties(rng, 1),
            [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e17, 1e-5, 1e-4, 1.506],
            rng.standard_normal(2000),
        ])
        block = rng.choice(pool, (ROWS, 5))
        # tdoa.csv's shape: the row's first value is each line's t, the pair ids literal text
        texts, ends = harness._texts(block), [",1,2,", "\n", ",3,10,", ",", ";", "\n"]
        template = b"%.17g,1,2,%.17g\n%.17g,3,10,%.17g,%.17g;%.17g\n"
        want = b"".join(template % tuple(row[[0, 1, 0, 2, 3, 4]].tolist()) for row in block)
        assert harness._csv([texts[..., :1], texts[..., 1:2], texts[..., :1], texts[..., 2:]], ends) == want
        assert harness._csv([texts]) == b"".join(
            b",".join(b"%.17g" % x for x in row.tolist()) + b"\n" for row in block
        )


def test_no_table_is_built_on_import_or_load_config():
    # setup_s: a fresh process pays for importing the CLI and loading a config, never for the formatter's tables
    config = Path(__file__).resolve().parent.parent / "configs" / "circle.yaml"
    code = (
        "import uwbnav.cli\n"
        "from uwbnav import harness\n"
        f"harness.load_config({str(config)!r})\n"
        "print(harness._formats.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0"]
