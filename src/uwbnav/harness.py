"""Experiment harness: run configuration, dataset IO, metrics.

A run is described by a flat key/value YAML file whose defaults give a
complete 100 Hz study out of the box (gains, initial offsets, sensor
noise levels).  The harness synthesizes measurement blocks from an
analytic flight or ingests a CSV dataset, drives the filter over them,
and writes per-step estimates and error metrics plus a run summary.  A
block's samples are built from its rows' field groups as they are read:
a run streams each block in one pass, an online caller indexes it.

All numeric output is formatted with repr-round-trip precision and a
fixed column order, so runs with identical seeds produce byte-identical
files.  The CSV files of one artifact set (a dataset's time series, a
run's truth, estimates and metrics) are written in one chunked pass, a
value they share formatted once per row (:func:`_write_set`).
"""

from __future__ import annotations

import gc
import json
import struct
from collections.abc import Mapping, Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .attitude import ImuSample, ReferenceEnvironment, _check_imu, measure_imu
from .liegroup import attitude_distance, quat_to_rot, rot_to_quat, so3_exp
from .navfilter import ATTITUDE_GATE, FilterGains, FilterState, _gate, step
from .sim import _KIND_KEYS, MAX_SAMPLES, NoiseSpec, TruthTrajectory, _chunked, _chunks, _numbers
from .sim import generate_trajectory, reconstruct_velocity
from .uwb import ANCHOR_LIMIT, TOPOLOGIES, AnchorSet, Ranges
from .uwb import _check_ranges, _range_block

__all__ = [
    "VARIANTS",
    "ConfigError",
    "SchemaError",
    "ClockError",
    "NumericalFailure",
    "RunConfig",
    "load_config",
    "default_anchors",
    "measurement_blocks",
    "synthesize_measurements",
    "write_dataset",
    "ingest_dataset",
    "run_experiment",
    "recompute_metrics",
]


class ConfigError(ValueError):
    """Run configuration is malformed or inconsistent."""


class SchemaError(ValueError):
    """A dataset file does not match the documented schema."""


class ClockError(ValueError):
    """Dataset timestamps are out of order, gapped, or disagree between files."""


class NumericalFailure(RuntimeError):
    """The run produced non-finite state or lost all measurements."""


def default_anchors() -> AnchorSet:
    """Eight anchors on the floor and ceiling corners of a 6 x 6 x 3 m room.

    Full-height vertical spread keeps the position dilution below two for
    flights inside the hull; anchors clustered near one height plane make
    the z solve an order of magnitude noisier.
    """
    return AnchorSet(anchors=_ROOM_CORNERS.copy())


# default_anchors()'s positions, the corners of a 6 x 6 x 3 m room; handed out as copies only
_ROOM_CORNERS = np.array([[x, y, z] for x in (-3.0, 3.0) for y in (-3.0, 3.0) for z in (0.0, 3.0)])
_TRAJECTORY_KEYS = frozenset().union(*_KIND_KEYS.values())  # every flight kind's parameters

VARIANTS = ("matrix", "quaternion")  # the filter's attitude parametrizations
MAX_GAP = 1.5  # longest truth or IMU interval, in median spacings, that a replay steps as one


def _check_out(path: Path) -> None:
    """Raise ConfigError naming ``out`` unless the nearest existing one of ``path`` and its parents is a directory."""
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"out: {found} exists and is not a directory")


@dataclass
class RunConfig:
    """One experiment, fully specified.

    Defaults give a ready-to-run 100 Hz circular flight: ring-TDOA fixes,
    the stock gain set, a large initial position offset, and
    representative sensor noise.  Every value is checked, and the run's
    gains, noise spec, references, anchor set and initial state are built,
    once, at construction; a rejected value raises ConfigError naming its
    key.  ``sigma_hat0 >= 0`` and ``k_sigma * gamma_sigma / filter_rate < 1``
    keep the covariance bound nonnegative on every step (see
    ``navfilter.update``).  ``filter_rate`` is the run's clock: a synthetic run
    samples its ``duration`` s flight at it (at most ``sim.MAX_SAMPLES``
    samples), and ingest decimates a dataset's to it; ``rate``, its default,
    is the clock ``uwbnav simulate`` writes at; ``trajectory_params`` is a
    mapping of only the ``trajectory`` kind's other keys (``sim._KIND_KEYS``).
    Anchors that give no fix under ``topology`` are rejected with the anchor
    set's reason (``AnchorSet.unfixable``), not stepped through as dropouts.
    """

    mode: str = "synthetic"
    dataset_dir: str | None = None
    trajectory: str = "circle"
    duration: float = 60.0
    rate: float = 100.0
    filter_rate: float | None = None
    trajectory_params: dict = field(default_factory=dict)
    anchors: np.ndarray = field(default_factory=_ROOM_CORNERS.copy)
    topology: str = TOPOLOGIES[-1]
    variant: str = "matrix"
    k1: float = 3.0
    kv: float = 3.0
    ka: float = 70.0
    gamma_sigma: float = 0.1
    epsilon: float = 0.5
    k_sigma: float = 0.1
    s: np.ndarray = field(default_factory=lambda: np.ones(3))
    sigma_omega: np.ndarray = field(default_factory=lambda: np.full(3, 0.01))
    sigma_a: np.ndarray = field(default_factory=lambda: np.full(3, 0.05))
    sigma_m: float = 0.2
    sigma_range: float = 0.05
    seed: int = 0
    p_hat0: np.ndarray = field(default_factory=lambda: np.array([-2.0, -3.0, 0.0]))
    v_hat0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    r_hat0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sigma_hat0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tag_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    g_vec: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))
    m_r: np.ndarray = field(default_factory=lambda: np.array([-1.3, 0.0, 1.5]))
    out: str = "runs/latest"

    _NUMBERS = (
        "duration", "rate", "filter_rate", "k1", "kv", "ka", "gamma_sigma",
        "epsilon", "k_sigma", "sigma_m", "sigma_range",
    )
    _VECTORS = ("p_hat0", "v_hat0", "r_hat0", "sigma_hat0", "tag_offset", "g_vec", "m_r", "s")

    def __post_init__(self) -> None:
        clock = "rate" if self.filter_rate is None else "filter_rate"  # the key that sets the run's clock
        if self.filter_rate is None:  # the run clocks a flight as simulate writes it
            self.filter_rate = self.rate
        for name in self._NUMBERS:
            setattr(self, name, _numbers(getattr(self, name), name, ConfigError))
        for name in ("sigma_omega", "sigma_a"):  # one number applies to every axis
            shape = (3,) if isinstance(getattr(self, name), (list, tuple, np.ndarray)) else ()
            setattr(self, name, np.full(3, _numbers(getattr(self, name), name, ConfigError, shape)))
        for name in self._VECTORS:
            setattr(self, name, _numbers(getattr(self, name), name, ConfigError, (3,)))
        self.anchors = _numbers(self.anchors, "anchors", ConfigError, (None, 3))
        # an integer type only: int() would truncate 1.5 and read true as 1
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        self.seed = int(self.seed)
        for name in ("dataset_dir", "trajectory", "out"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (value is None and name == "dataset_dir")):
                raise ConfigError(f"{name} must be text, got {value!r}")
        if not self.out:  # Path("") is the working directory
            raise ConfigError("out: must name a directory, got ''")
        _check_out(Path(self.out))
        if self.mode not in ("synthetic", "dataset"):
            raise ConfigError(f"mode must be synthetic or dataset, got {self.mode!r}")
        if self.mode == "dataset":
            if not self.dataset_dir:
                raise ConfigError("dataset mode requires dataset_dir")
            if not Path(self.dataset_dir).is_dir():
                what = "is not a directory" if Path(self.dataset_dir).exists() else "does not exist"
                raise ConfigError(f"dataset_dir {what}: {self.dataset_dir}")
            if Path(self.out).resolve() == Path(self.dataset_dir).resolve():
                raise ConfigError(f"out: {self.out} is the dataset directory, whose truth.csv the run would replace")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"topology must be one of {TOPOLOGIES}")
        if self.mode == "dataset" and self.topology == "toa":
            raise ConfigError("the dataset layout carries TDOA rows; choose a tdoa topology")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if not (self.duration > 0 and self.rate > 0 and self.filter_rate > 0):
            raise ConfigError("duration, rate and filter_rate must be positive")
        samples = self.duration * self.filter_rate
        if self.mode == "synthetic" and not samples <= MAX_SAMPLES:  # the flight generate_trajectory would refuse
            raise ConfigError(f"{clock}: duration * {clock} gives {samples:.3g} samples, "
                              f"above the ceiling of {MAX_SAMPLES:g}")
        if self.trajectory not in _KIND_KEYS:
            raise ConfigError(f"trajectory must be one of {tuple(_KIND_KEYS)}, got {self.trajectory!r}")
        if not isinstance(self.trajectory_params, Mapping):
            raise ConfigError(f"trajectory_params must be a mapping of {self.trajectory} parameters, "
                              f"got {self.trajectory_params!r}")
        unknown = sorted(set(self.trajectory_params) - _KIND_KEYS[self.trajectory], key=str)
        if unknown:
            raise ConfigError(f"trajectory_params: {unknown[0]!r} is not a {self.trajectory} parameter")
        if not (self.sigma_hat0 >= 0.0).all():
            raise ConfigError("sigma_hat0 must be nonnegative (it bounds a covariance), "
                              f"got {self.sigma_hat0.tolist()}")
        decay = self.k_sigma * self.gamma_sigma / self.filter_rate
        if not decay < 1.0:
            raise ConfigError(f"k_sigma * gamma_sigma / filter_rate must be below 1, got {decay} "
                              "(each step scales sigma_hat by one minus it)")
        try:
            self._gains = FilterGains(
                k1=self.k1, kv=self.kv, ka=self.ka, gamma_sigma=self.gamma_sigma,
                epsilon=self.epsilon, k_sigma=self.k_sigma, s=self.s,
            )
            self._noise = NoiseSpec(
                sigma_omega=self.sigma_omega, sigma_a=self.sigma_a, sigma_m=self.sigma_m,
                sigma_range=self.sigma_range, seed=self.seed,
            )
            self._env = ReferenceEnvironment(g_vec=self.g_vec, m_r=self.m_r)
            self._anchor_set = AnchorSet(anchors=self.anchors)
        except ValueError as err:  # each message names its field, which is the config key
            raise ConfigError(str(err)) from err
        if self.topology in self._anchor_set.unfixable:
            raise ConfigError(self._anchor_set.unfixable[self.topology])
        # the initial state passes the same gate as every state a step returns
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a rotation vector that overflows fails the gate
                r0 = so3_exp(self.r_hat0)
                att = tuple(map(tuple, r0.tolist())) if self.variant == "matrix" else tuple(rot_to_quat(r0).tolist())
            self._initial_state = _gate(FilterState(
                att, tuple(self.p_hat0.tolist()), tuple(self.v_hat0.tolist()), tuple(self.sigma_hat0.tolist()),
            ))
        except ValueError as err:  # each value is finite: a finite-state refusal is their sum passing the float range
            if str(err) == "state must be finite":
                why = "their nine values sum past the float range"
                raise ConfigError(f"p_hat0, v_hat0, sigma_hat0: {err}: {why}") from err
            raise ConfigError(f"r_hat0: {err}") from err

    @property
    def dt(self) -> float:
        return 1.0 / self.filter_rate

    def gains(self) -> FilterGains:
        return self._gains

    def noise(self) -> NoiseSpec:
        return self._noise

    def env(self) -> ReferenceEnvironment:
        return self._env

    def anchor_set(self) -> AnchorSet:
        return self._anchor_set

    def initial_state(self) -> FilterState:
        return self._initial_state


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a flat YAML file plus override keys.

    Unknown keys are rejected by name.  Trajectory-shape keys (radius,
    period, amplitude, ...) are routed into the trajectory parameter set.
    """
    raw: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        # libyaml scans and parses where PyYAML has it; PyYAML's own constructor and resolver build the values
        try:
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: {_not_utf8(err)}") from err
        loaded = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a mapping of keys to values")
        raw.update(loaded)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    params = {k: raw.pop(k) for k in list(raw) if k in _TRAJECTORY_KEYS}
    unknown = set(raw) - (set(RunConfig.__dataclass_fields__) - {"trajectory_params"})
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    return RunConfig(trajectory_params=params, **raw)


def _check_metrics(att_err, pos_err, vel_err, sigma_norm) -> None:
    """Range checks of metrics.csv values, on one row or on whole columns; a failure names the data row."""
    for ok, what in (((-1e-9 <= att_err) & (att_err <= 1.0 + 1e-9), "att_err must lie in [0, 1]"),
                     ((0.0 <= pos_err) & (pos_err < np.inf) & (0.0 <= vel_err) & (vel_err < np.inf),
                      "pos_err and vel_err must be finite and nonnegative"),
                     (sigma_norm < np.inf, "sigma_norm must be finite")):
        if not np.all(ok):
            raise ValueError(f"{what} (data row {np.argmin(ok) + 1})")


@np.errstate(over="ignore", invalid="ignore")  # an overflowing reading is caught by the checks below
def measurement_blocks(
    traj: TruthTrajectory, anchors: AnchorSet, topology: str, noise: NoiseSpec | None,
    env: ReferenceEnvironment, tag_offset: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sensor readings for every trajectory sample: an ``(n, 9)`` IMU block and an ``(n, k)`` range block.

    IMU columns are gyro, accelerometer and magnetometer; range columns are
    the ranges to every anchor (``toa``) or the differences over the
    topology's anchor-pair list (``AnchorSet.tdoa``).  Noise draws come from
    one generator in a fixed per-sample order (gyro, accelerometer,
    magnetometer, then one draw per transmitted range value), so a seed pins
    both blocks.  ``tag_offset`` displaces the ranging tag from the vehicle
    reference point by a body-frame lever arm.  The rows are synthesized a
    chunk at a time (``sim._chunked``) into the preallocated blocks, each
    chunk's ``(m, 9 + k)`` normal draws taken in turn from the one
    generator, which gives the numbers of one ``(n, 9 + k)`` draw: the
    temporaries hold one chunk's rows, and every row is the one a
    whole-flight pass gives.  A chunk's tag positions are computed once and
    checked before its ranges: one beyond ``ANCHOR_LIMIT``, whose ranges
    would overflow, is a ConfigError.  Each block then gets its per-sample
    value check once, and a failed one (a reading that overflowed, or a TOA
    range that noise drove negative) is a ConfigError naming the keys that
    can cause it.
    """
    lever = tag_offset is not None and np.any(tag_offset)
    rng = noise.stream() if noise is not None else None
    sigmas = (noise.sigma_omega, noise.sigma_a, noise.sigma_m) if noise is not None else None

    def rows(chunk: slice) -> tuple[np.ndarray, np.ndarray]:
        rot = traj.rot[chunk]
        tag = traj.p[chunk] + rot @ tag_offset if lever else traj.p[chunk]
        if not (np.abs(tag) <= ANCHOR_LIMIT).all():
            raise ConfigError(f"the tag must stay within {ANCHOR_LIMIT:g} of the origin, or its ranges "
                              "overflow: check p0, radius, amplitude and tag_offset")
        vdot = (rot @ traj.a[chunk][:, :, None])[:, :, 0] + env.g_vec
        ranges = _range_block(tag, anchors, topology)
        z = None
        if rng is not None:
            z = rng.standard_normal((len(rot), 9 + ranges.shape[1]))
            ranges += 0.0 + noise.sigma_range * z[:, 9:]  # as Generator.normal
        return np.concatenate(measure_imu(rot, traj.omega[chunk], vdot, env, z, sigmas), axis=1), ranges

    imu, ranges = _chunked(len(traj), rows)
    try:
        _check_imu(imu)
    except ValueError as err:
        raise ConfigError(f"{err}: check sigma_omega, sigma_a, sigma_m and the flight's rates (radius, "
                          "period, amplitude, frequency, yaw_amplitude, yaw_frequency)") from err
    try:
        _check_ranges(ranges, topology)
    except ValueError as err:
        raise ConfigError(f"{err}: check sigma_range") from err
    return imu, ranges


class _Rows(Sequence):
    """The rows of a checked ``(n, k)`` block, each built into its sample only when it is read.

    A row is ``groups`` field groups of equal width, one (a range row) or three (an IMU row: gyro,
    accelerometer, magnetometer), and its sample is ``make(*groups)``, each group the float tuple
    ``tolist`` gives: ``ImuSample``, or ``partial(Ranges, topology)``.  The block is held as C-contiguous
    float64 behind a memoryview.  Iteration is one C-level pass, ``map`` over ``struct.iter_unpack``'s
    groups, with no Python frame per row; indexing unpacks the row's groups at its offset.  A slice is
    a sequence over the sliced rows.
    """

    __slots__ = ("_rows", "_n", "_make", "_groups", "_group", "_row_bytes", "_width", "_unpack")

    def __init__(self, block: np.ndarray, make, groups: int) -> None:
        if groups not in (1, 3):  # the layouts indexing unpacks
            raise ValueError(f"a row is one field group or three, got {groups}")
        block = np.ascontiguousarray(block, dtype=float)
        (self._n, k), self._rows, self._make, self._groups = block.shape, memoryview(block), make, groups
        self._group = group = struct.Struct(f"{k // groups}d")
        self._row_bytes, self._width, self._unpack = 8 * k, group.size, group.unpack_from

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return map(self._make, *[self._group.iter_unpack(self._rows)] * self._groups)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Rows(np.asarray(self._rows)[i], self._make, self._groups)
        if not -self._n <= i < self._n:  # the unpack would read past the block
            raise IndexError("row index out of range")
        rows, unpack, off = self._rows, self._unpack, i % self._n * self._row_bytes
        if self._groups == 1:
            return self._make(unpack(rows, off))
        width = self._width
        return self._make(unpack(rows, off), unpack(rows, off + width), unpack(rows, off + 2 * width))


def synthesize_measurements(
    traj: TruthTrajectory, anchors: AnchorSet, topology: str, noise: NoiseSpec | None,
    env: ReferenceEnvironment, tag_offset: np.ndarray | None = None,
) -> tuple[Sequence[ImuSample], Sequence[Ranges]]:
    """The blocks of :func:`measurement_blocks` as one ImuSample and one Ranges per sample, built on read."""
    imu, ranges = measurement_blocks(traj, anchors, topology, noise, env, tag_offset)
    return _Rows(imu, ImuSample, 3), _Rows(ranges, partial(Ranges, topology), 1)


_TRUTH_HEADER = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
_IMU_HEADER = ["t", "wx", "wy", "wz", "ax", "ay", "az", "mx", "my", "mz"]
# line templates of a set's files: %s takes a value's text formatted once for every file that shares it
_TRUTH_LINE = "%s" + ",%.17g" * 7 + "\n"


def _lines(line: str, block: np.ndarray, texts: dict[int, list[bytes]]) -> bytes:
    """The ``%`` template ``line`` over each row of the ``(m, c)`` array ``block``, column ``j`` as ``texts[j]``.

    The template is applied as bytes, which format a number as text does, a little faster and with no encoding copy.
    """
    values = block.ravel().tolist()
    for j, text in texts.items():
        values[j :: block.shape[1]] = text
    return line.encode() * len(block) % tuple(values)


def _texts(block: np.ndarray) -> list[bytes]:
    """Each row of the ``(m, c)`` array ``block`` as its comma-separated ``%.17g`` text, formatted once."""
    return _lines(",".join(["%.17g"] * block.shape[1]) + "\n", block, {}).split()


def _write_set(heads: dict[Path, str], n: int, texts) -> None:
    """Write CSV files in one pass over the :func:`sim._chunks` of their ``n`` rows, all open at once.

    ``heads`` maps each path to its head (header line, and any row ahead of
    the chunks); ``texts(chunk)`` yields each file's bytes for the chunk's
    rows in turn (:func:`_lines`), so one file's values are held at a time.
    ``%.17g`` formats as ``format(x, ".17g")``, repr-round-trip precision;
    a value the files share is formatted once (:func:`_texts`) and filled
    in as text.  The writer holds one chunk's values and text, not a file's.
    """
    with ExitStack() as stack:
        handles = [stack.enter_context(path.open("wb")) for path in heads]
        for fh, head in zip(handles, heads.values()):
            fh.write(head.encode())
        for chunk in _chunks(n):
            for fh, text in zip(handles, texts(chunk)):
                fh.write(text)


def _write_csv(path: Path, header: list[str], block: np.ndarray, row: str | None = None) -> None:
    """Header line, then a line per row of ``block`` by the template ``row`` (``%.17g`` per column by default)."""
    line = (row or ",".join(["%.17g"] * len(header))) + "\n"
    _write_set({path: ",".join(header) + "\n"}, len(block), lambda chunk: [_lines(line, block[chunk], {})])


def _truth_rows(traj: TruthTrajectory, chunk: slice) -> np.ndarray:
    """Rows ``chunk`` of ``traj``'s ``truth.csv`` as an ``(m, 8)`` array, its quaternions converted per chunk."""
    return np.column_stack([traj.t[chunk], traj.p[chunk], rot_to_quat(traj.rot[chunk])])


def write_dataset(
    out_dir: str | Path, traj: TruthTrajectory, anchors: AnchorSet, topology: str, imu: np.ndarray, diffs: np.ndarray
) -> Path:
    """Write the four-file CSV dataset layout from :func:`measurement_blocks`' blocks.

    ``truth.csv``: t, px, py, pz, qw, qx, qy, qz (scalar-first attitude).
    ``imu.csv``: t, wx, wy, wz, ax, ay, az, mx, my, mz: the ``(n, 9)`` block ``imu``.
    ``anchors.csv``: id, x, y, z (1-based ids).
    ``tdoa.csv``: t, i, j, d with d = dist(anchor j) - dist(anchor i); one
    row per entry of the ``(n, k)`` block ``diffs``, ``(i, j)`` the 1-based
    pairs of the ``topology``'s anchor-pair list (``AnchorSet.tdoa``).
    The three time-series files are one set (:func:`_write_set`): each
    sample's timestamp is formatted once for all three.
    """
    if topology not in anchors.tdoa:
        raise SchemaError(f"dataset export requires a tdoa topology, got {topology!r}")
    pair_list = anchors.tdoa[topology]
    n, k = len(traj), len(pair_list.first)
    if imu.shape != (n, 9) or diffs.shape != (n, k):
        raise SchemaError(f"dataset export needs an ({n}, 9) IMU block and an ({n}, {k}) range block")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "anchors.csv", ["id", "x", "y", "z"],
               np.column_stack([np.arange(1, len(anchors) + 1), anchors.anchors]), "%d,%.17g,%.17g,%.17g")
    # tdoa.csv's template is one tick's k lines, the pair ids literal text
    tick = "".join(f"%s,{i},{j},%.17g\n" for i, j in zip(pair_list.first + 1, pair_list.second + 1))

    def texts(chunk: slice):
        t_text = _texts(traj.t[chunk, None])
        yield _lines(_TRUTH_LINE, _truth_rows(traj, chunk), {0: t_text})
        yield _lines("%s" + ",%.17g" * 9 + "\n", np.column_stack([traj.t[chunk], imu[chunk]]), {0: t_text})
        ticks = np.zeros((len(t_text), 2 * k))
        ticks[:, 1::2] = diffs[chunk]
        yield _lines(tick, ticks, dict.fromkeys(range(0, 2 * k, 2), t_text))

    _write_set({out / "truth.csv": ",".join(_TRUTH_HEADER) + "\n", out / "imu.csv": ",".join(_IMU_HEADER) + "\n",
                out / "tdoa.csv": "t,i,j,d\n"}, n, texts)
    return out


def _read_csv(path: Path, columns: list[str], nan_columns: tuple[str, ...] = ()) -> np.ndarray:
    """Numeric table of ``path`` with header ``columns``; every cell must be a finite number.

    ``nan_columns`` may also hold NaN.  Columns ``qw``..``qz``, where the
    header has them (``truth.csv``, ``estimates.csv``), must hold a unit
    quaternion to ``ATTITUDE_GATE``.  The schema has no comments, so a
    ``#`` is read as part of its cell.  A cell that is not a number, a row of
    the wrong length, a non-finite value or a non-unit quaternion is a
    SchemaError naming the file, the column and the data row.  A table with
    no data rows comes back as an empty ``(0, len(columns))`` array.
    """
    if not path.exists():
        raise SchemaError(f"missing dataset file: {path.name}")
    try:
        with path.open(encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            empty = all(line == "\n" for line in fh)  # numpy skips empty lines, not blank ones
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path.name}: {_bad_cell(path, columns)}") from err
    if header != columns:
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(f"{path.name}: missing column {missing[0]!r}")
        raise SchemaError(f"{path.name}: expected columns {columns}, got {header}")
    if empty:
        return np.empty((0, len(columns)))
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8", comments=None)
    except ValueError as err:  # a UnicodeDecodeError among them
        raise SchemaError(f"{path.name}: {_bad_cell(path, columns) or err}") from err
    if data.shape[1] != len(columns):
        raise SchemaError(f"{path.name}: {_bad_cell(path, columns) or 'ragged rows'}")
    bad = ~np.isfinite(data)
    if nan_columns:
        bad &= ~(np.isnan(data) & np.isin(columns, nan_columns))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise SchemaError(f"{path.name}: non-finite value in column {columns[col]!r} (data row {row + 1})")
    if "qw" in columns:
        q = columns.index("qw")
        norm = np.sqrt((data[:, q : q + 4] ** 2).sum(axis=1))
        bad = ~(np.abs(norm - 1.0) <= ATTITUDE_GATE)
        if bad.any():
            k = int(np.argmax(bad))
            raise SchemaError(
                f"{path.name}: columns 'qw'..'qz' are not a unit quaternion (data row {k + 1}): norm {norm[k]:.6g}"
            )
    return data


def _read_truth(path: Path) -> np.ndarray:
    """A truth file as a table (see :func:`_read_csv`); fewer than two samples is a SchemaError.

    Timestamps that do not strictly increase are a ClockError, and so is a
    gap (an interval over ``MAX_GAP`` median spacings, which a run would step
    and score as one), named by the first timestamp after it.
    """
    truth = _read_csv(path, _TRUTH_HEADER)
    if len(truth) < 2:
        raise SchemaError(f"{path.name} needs at least two samples")
    steps = np.diff(truth[:, 0])
    if np.any(steps <= 0):
        raise ClockError(f"{path.name}: timestamps must be strictly increasing")
    spacing = float(np.median(steps))
    k = int(np.argmax(steps > MAX_GAP * spacing))  # the first gap, if there is one
    if steps[k] > MAX_GAP * spacing:
        raise ClockError(f"{path.name}: {steps[k]:.6g} s gap before t={truth[k + 1, 0]:.6g}, "
                         f"over {MAX_GAP:g} times the median spacing {spacing:.6g} s")
    return truth


def _not_utf8(err: UnicodeDecodeError) -> str:
    """Where a whole file's bytes ``err.object`` stop being UTF-8 text: the byte and its line."""
    line = err.object.count(b"\n", 0, err.start) + 1
    return f"byte 0x{err.object[err.start]:02x} is not UTF-8 text (line {line})"


def _bad_cell(path: Path, columns: list[str]) -> str | None:
    """The first byte that is not UTF-8 text, else the first non-numeric cell or wrong-length row of a CSV table.

    A cell is judged as ``np.loadtxt`` parses it; a data row is a line that is not empty, blank ones included.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        return _not_utf8(err)
    rows = [line for line in text.splitlines()[1:] if line]
    for k, line in enumerate(rows, 1):
        cells = line.split(",")
        for name, cell in zip(columns, cells):
            try:
                if not cell.isascii() or "_" in cell:  # float() reads these, numpy's parser does not
                    raise ValueError
                float(cell)
            except ValueError:
                return f"non-numeric value {cell!r} in column {name!r} (data row {k})"
        if len(cells) < len(columns):
            return f"no value for column {columns[len(cells)]!r} (data row {k})"
        if len(cells) > len(columns):
            return f"{len(cells)} values for {len(columns)} columns (data row {k})"
    return None


def _stride(rate: float, filter_rate: float) -> int:
    """Integer decimation from a ``rate`` Hz sample clock down to ``filter_rate``; ConfigError unless within 1%."""
    stride = max(1, int(round(rate / filter_rate)))
    if abs(rate / stride - filter_rate) > 0.01 * filter_rate:
        raise ConfigError(
            f"filter rate {filter_rate} Hz is not an integer decimation of the "
            f"{rate:.6g} Hz sample clock"
        )
    return stride


def _nearest(times: np.ndarray, ticks: np.ndarray) -> np.ndarray:
    """Index of the entry of increasing ``times`` nearest to each tick; ties go to the earlier."""
    hi = np.minimum(np.searchsorted(times, ticks), len(times) - 1)
    lo = np.maximum(hi - 1, 0)
    return np.where(np.abs(times[lo] - ticks) <= np.abs(times[hi] - ticks), lo, hi)


def ingest_dataset(
    dataset_dir: str | Path,
    filter_rate: float,
    topology: str = TOPOLOGIES[-1],
) -> tuple[TruthTrajectory, AnchorSet, Sequence[ImuSample], Sequence[Ranges]]:
    """Load a four-file dataset and align it to the filter clock.

    The IMU/truth clock, which must hold no gap (:func:`_read_truth`), is decimated by an integer
    stride down to ``filter_rate`` (500 Hz data at a 100 Hz filter keeps every 5th sample, copied out
    of the full-rate tables); ranging rows are grouped per timestamp and held to the nearest
    decimated tick (a tie goes to the earlier group).  A tick whose nearest group lies farther than
    one filter interval plus the median spacing of the group timestamps is a ClockError.  Truth
    velocity is reconstructed from the full-rate positions before decimation.  The truth carries no
    body rates or specific forces (``omega`` and ``a`` are None): the run scores states only.  The
    streams hold the decimated IMU block and the ticks' range block, a sample built from its row's
    field groups when it is read (:class:`_Rows`).  Anchors that give no fix under ``topology`` are a
    SchemaError with the anchor set's reason (``AnchorSet.unfixable``), and so is any row's ``d``
    beyond twice the largest anchor separation.
    """
    src = Path(dataset_dir)
    truth = _read_truth(src / "truth.csv")
    imu = _read_csv(src / "imu.csv", _IMU_HEADER)
    anchors_raw = _read_csv(src / "anchors.csv", ["id", "x", "y", "z"])
    tdoa = _read_csv(src / "tdoa.csv", ["t", "i", "j", "d"])
    if len(truth) != len(imu) or np.max(np.abs(truth[:, 0] - imu[:, 0])) > 1e-9:
        raise ClockError("truth.csv and imu.csv clocks disagree")
    t_full = truth[:, 0]
    if not len(tdoa):
        raise SchemaError("tdoa.csv has no rows")
    if np.any(np.diff(tdoa[:, 0]) < 0):
        raise ClockError("tdoa.csv timestamps must be increasing")

    if topology == "toa":
        raise ConfigError("the dataset layout carries TDOA rows; choose a tdoa topology")
    order = np.argsort(anchors_raw[:, 0])
    if not np.array_equal(anchors_raw[order, 0], np.arange(1, len(order) + 1)):  # tdoa.csv's i, j name them
        raise SchemaError(f"anchors.csv: ids must be 1 to {len(order)}, each once")
    try:
        anchor_set = AnchorSet(anchors=anchors_raw[order, 1:4])
    except ValueError as err:
        raise SchemaError(f"anchors.csv: {err}") from err
    if topology in anchor_set.unfixable:
        raise SchemaError(f"anchors.csv: {anchor_set.unfixable[topology]}")

    dt_full = float(np.median(np.diff(t_full)))
    stride = _stride(1.0 / dt_full, filter_rate)
    keep = slice(None, None, stride)

    p_full = truth[:, 1:4]
    v_full = reconstruct_velocity(p_full, dt_full)
    traj = TruthTrajectory(  # copies: no view holds a full-rate table alive through the run
        t=t_full[keep].copy(), rot=quat_to_rot(truth[keep, 4:8]), p=p_full[keep].copy(), v=v_full[keep].copy()
    )
    imu_stream = _Rows(imu[keep, 1:10].copy(), ImuSample, 3)  # a copy, as the truth's

    pair_list = anchor_set.tdoa[topology]
    pairs = np.column_stack([pair_list.first, pair_list.second]) + 1
    per_tick = len(pairs)
    # every group is checked, the ticks the filter clock skips included
    times, counts = np.unique(tdoa[:, 0], return_counts=True)
    if (counts != per_tick).any():
        k = int(np.argmax(counts != per_tick))
        raise SchemaError(f"tdoa.csv: expected {per_tick} rows at t={times[k]:.6g}, got {counts[k]}")
    groups = tdoa.reshape(len(times), per_tick, 4)  # rows are sorted by time, per_tick to a group
    bad = (groups[:, :, 1:3] != pairs).any(axis=(1, 2))
    if bad.any():
        raise SchemaError(
            f"tdoa.csv: anchor pairs at t={times[np.argmax(bad)]:.6g} do not match the {topology} topology"
        )
    # no true difference exceeds its pair's separation: twice the widest leaves one more for noise and NLOS bias
    reach = 2.0 * float(np.linalg.norm(anchor_set.anchors[:, None] - anchor_set.anchors, axis=-1).max())
    beyond = np.abs(tdoa[:, 3]) > reach
    if beyond.any():
        row = int(np.argmax(beyond))
        raise SchemaError(f"tdoa.csv: value {tdoa[row, 3]:g} in column 'd' (data row {row + 1}) exceeds twice "
                          f"the largest anchor separation ({reach:.6g} m)")
    nearest = _nearest(times, traj.t)
    # a group further off than one filter interval plus the ranging clock's
    # own spacing is a gap in the ranging stream, not a late group
    spacing = float(np.median(np.diff(times))) if len(times) > 1 else 0.0
    far = np.abs(times[nearest] - traj.t) > 1.0 / filter_rate + spacing
    if far.any():
        raise ClockError(f"tdoa.csv: no ranging group near t={traj.t[np.argmax(far)]:.6g}")
    return traj, anchor_set, imu_stream, _Rows(groups[nearest, :, 3], partial(Ranges, topology), 1)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``(n, 3)``, as ``numpy.linalg.norm`` of the row (a dot product)."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _error_columns(n: int, pairs) -> np.ndarray:
    """``(4, n)`` att_err, pos_err, vel_err and sigma_norm, filled a chunk at a time, then range-checked.

    ``pairs(chunk)`` gives the chunk's true and estimated rotations, positions and velocities, then sigma_hat.
    """
    errors = np.empty((4, n))
    for chunk in _chunks(n):
        r_true, p_true, v_true, r_est, p_est, v_est, sigma = pairs(chunk)
        errors[0, chunk] = attitude_distance(r_true @ r_est.transpose(0, 2, 1))
        with np.errstate(over="ignore"):  # a norm that overflows fails the check below
            errors[1:, chunk] = _norms(p_true - p_est), _norms(v_true - v_est), _norms(sigma)
    _check_metrics(*errors)
    return errors


def _estimated_rot(att: np.ndarray) -> np.ndarray:
    """Rotations of history attitude rows: 9 rotation-row entries, or 4 quaternion components."""
    return att.reshape(-1, 3, 3) if att.shape[1] == 9 else quat_to_rot(att)


_ESTIMATE_HEADER = [
    "t", "px", "py", "pz", "vx", "vy", "vz",
    "qw", "qx", "qy", "qz", "s1", "s2", "s3", "e_r", "py_residual", "dropout",
]
_METRICS_HEADER = ["t", "att_err", "pos_err", "vel_err", "sigma_norm", "e_r", "py_residual"]


def _write_run(out: Path, traj: TruthTrajectory, history: np.ndarray, errors: np.ndarray) -> None:
    """A run's ``truth.csv``, ``estimates.csv`` and ``metrics.csv`` from its step block and :func:`_error_columns`.

    Truth row ``i + 1`` is step ``i``'s: a step's time is formatted once for the three files (truth row 0
    goes in with the header), and its ``e_r`` and ``py_residual`` once for the last two.
    """
    n, k = len(history), history.shape[1] - 12
    t = traj.t[1:]

    def texts(chunk: slice):
        t_text, e_text = _texts(t[chunk, None]), _texts(history[chunk, -3:-1])
        yield _lines(_TRUTH_LINE, _truth_rows(traj, slice(chunk.start + 1, chunk.stop + 1)), {0: t_text})
        block = history[chunk]
        # p_hat, v_hat, quaternion, sigma_hat, then e_r in the place of e_r's and py_residual's text, dropout
        estimates = np.column_stack([t[chunk], block[:, k : k + 6], rot_to_quat(_estimated_rot(block[:, :k])),
                                     block[:, k + 6 : k + 10], block[:, -1]])
        yield _lines("%s" + ",%.17g" * 13 + ",%s,%d\n", estimates, {0: t_text, 14: e_text})
        metrics = np.column_stack([t[chunk], errors[:, chunk].T, block[:, -3]])
        yield _lines("%s" + ",%.17g" * 4 + ",%s\n", metrics, {0: t_text, 5: e_text})

    first = _lines(_TRUTH_LINE, _truth_rows(traj, slice(0, 1)), {0: _texts(traj.t[:1, None])})
    _write_set({out / "truth.csv": ",".join(_TRUTH_HEADER) + "\n" + first.decode(),
                out / "estimates.csv": ",".join(_ESTIMATE_HEADER) + "\n",
                out / "metrics.csv": ",".join(_METRICS_HEADER) + "\n"}, n, texts)


@contextmanager
def _collector_paused():
    """Pause the cyclic collector, which a run's acyclic values never need; restore it on any exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def run_experiment(cfg: RunConfig) -> dict:
    """Execute one configured run and write its artifacts.

    Writes ``estimates.csv`` (state trace), ``metrics.csv`` (error trace),
    and ``summary.json`` under ``cfg.out``.  Returns the summary mapping.

    Raises
    ------
    NumericalFailure
        If the state stops being finite, an error norm or the covariance
        bound's norm overflows, or no step obtains a usable fix.
    """
    env, gains, anchors = cfg.env(), cfg.gains(), cfg.anchor_set()
    if cfg.mode == "synthetic":
        params = dict(cfg.trajectory_params, duration=cfg.duration, rate=cfg.filter_rate)
        traj = generate_trajectory(cfg.trajectory, params, env)
        imu_stream, range_stream = synthesize_measurements(traj, anchors, cfg.topology, cfg.noise(), env,
                                                           cfg.tag_offset)
    else:
        traj, anchors, imu_stream, range_stream = ingest_dataset(cfg.dataset_dir, cfg.filter_rate, cfg.topology)

    state, dt, n = cfg.initial_state(), cfg.dt, len(traj) - 1
    # one row per step: the k attitude values (rotation rows or quaternion), p_hat,
    # v_hat, sigma_hat, e_r, innovation and dropout, packed as the step returns
    k = 9 if cfg.variant == "matrix" else 4
    history = np.empty((n, k + 12))
    view, pack, row_bytes = memoryview(history), struct.Struct(f"{k + 12}d").pack_into, 8 * (k + 12)
    for i, imu, ranges in zip(range(n), imu_stream, range_stream):  # the streams' last sample starts no step
        try:
            state, diag = step(state, imu, ranges, anchors, env, gains, dt)
        except ValueError as err:
            # config and data were validated up front, so a value error out
            # of the step math means the numerics ran away
            raise NumericalFailure(f"filter step failed at t={traj.t[i]:.3f}: {err}") from err
        att = state.attitude
        pack(view, i * row_bytes, *(att[0] + att[1] + att[2] if k == 9 else att), *state.p_hat, *state.v_hat,
             *state.sigma_hat, diag.e_r, diag.innovation_norm, diag.dropout)
    dropouts = int(history[:, -1].sum())
    if dropouts == n:
        raise NumericalFailure("every step dropped its measurement")

    truth = traj.rot[1:], traj.p[1:], traj.v[1:]  # row i + 1 is step i's
    try:
        errors = _error_columns(n, lambda c: (*(x[c] for x in truth), _estimated_rot(history[c, :k]),
                                             *np.hsplit(history[c, k : k + 9], 3)))
    except ValueError as err:
        raise NumericalFailure(f"metrics: {err}") from err

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_run(out, traj, history, errors)

    tail, below = slice(n // 2, None), np.flatnonzero(errors[1] <= 0.3)
    names = ("att_err", "pos_err", "vel_err")  # errors' first three rows
    summary = {
        "steps": n,
        "dropouts": dropouts,
        "final": dict(zip(names, errors[:3, -1].tolist())),
        "steady_state_median": {name: float(np.median(x[tail])) for name, x in zip(names, errors)},
        "time_to_pos_below_0.3": float(traj.t[1 + below[0]]) if below.size else None,
        "seed": cfg.seed,
        "topology": cfg.topology,
        "variant": cfg.variant,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _read_estimates(path: Path) -> np.ndarray:
    """``estimates.csv`` as a table, checked as :func:`run_experiment` writes it.

    Every cell is finite except ``e_r`` and ``py_residual``, which may be
    NaN on a row with ``dropout`` 1; ``dropout`` is 0 or 1, and ``qw``..``qz``
    is a unit quaternion (checked by :func:`_read_csv`).
    """
    est = _read_csv(path, _ESTIMATE_HEADER, nan_columns=("e_r", "py_residual"))
    dropout = est[:, 16]
    bad = (dropout != 0.0) & (dropout != 1.0)
    if bad.any():
        raise SchemaError(f"{path.name}: column 'dropout' must be 0 or 1 (data row {np.argmax(bad) + 1})")
    nan = np.isnan(est[:, 14:16]) & (dropout == 0.0)[:, None]
    if nan.any():
        row, col = np.argwhere(nan)[0]
        raise SchemaError(
            f"{path.name}: non-finite value in column {_ESTIMATE_HEADER[14 + col]!r} (data row {row + 1});"
            " NaN is allowed there only with dropout 1"
        )
    return est


def recompute_metrics(estimates_path: str | Path, truth_path: str | Path, out_path: str | Path) -> int:
    """Rebuild metrics.csv from a saved estimate trace and a truth file.

    Truth rows are matched to estimate rows by timestamp (nearest sample,
    a tie going to the earlier one; tolerance half a truth interval).  Makes
    ``out_path``'s missing parents; a directory there, or a file above it,
    is a ConfigError.  Returns the number of rows written.
    """
    est_path, out = Path(estimates_path), Path(out_path)
    if out.is_dir():
        raise ConfigError(f"out: {out} is a directory")
    _check_out(out.parent)
    for role, path in (("estimates", est_path), ("truth", Path(truth_path))):
        if out.resolve() == path.resolve():
            raise ConfigError(f"out: {out} is the {role} file being read")
    if not est_path.exists():
        raise SchemaError(f"missing estimates file: {est_path}")
    est = _read_estimates(est_path)
    truth = _read_truth(Path(truth_path))
    t_truth = truth[:, 0]
    dt_truth = float(np.median(np.diff(t_truth)))
    v_truth = reconstruct_velocity(truth[:, 1:4], dt_truth)

    t = est[:, 0]
    i = _nearest(t_truth, t)
    far = np.abs(t_truth[i] - t) > 0.5 * dt_truth + 1e-9
    if far.any():
        raise ClockError(f"no truth sample near t={t[np.argmax(far)]:.6g}")
    try:
        errors = _error_columns(len(est), lambda c: (
            quat_to_rot(truth[i[c], 4:8]), truth[i[c], 1:4], v_truth[i[c]], quat_to_rot(est[c, 7:11]),
            est[c, 1:4], est[c, 4:7], est[c, 11:14],
        ))
    except ValueError as err:
        raise SchemaError(f"{est_path.name} against {Path(truth_path).name}: {err}") from err
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, _METRICS_HEADER, np.column_stack([t, errors.T, est[:, 14:16]]))
    return len(est)
