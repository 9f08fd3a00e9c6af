"""Experiment harness: run configuration, dataset IO, metrics.

A run is described by a flat key/value YAML file whose defaults give a
complete 100 Hz study out of the box (gains, initial offsets, sensor
noise levels).  The harness
synthesizes measurement streams from an analytic flight or ingests a
CSV dataset, drives the filter, and writes per-step estimates and error
metrics plus a run summary.

All numeric output is formatted with repr-round-trip precision and a
fixed column order, so runs with identical seeds produce byte-identical
files.
"""

from __future__ import annotations

import gc
import json
import struct
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .attitude import ImuSample, ReferenceEnvironment, _check_imu, _imu_sample, measure_imu
from .liegroup import attitude_distance, quat_to_rot, rot_to_quat, so3_exp
from .navfilter import ATTITUDE_GATE, FilterGains, FilterState, _gate, step
from .sim import _KIND_KEYS, NoiseSpec, TruthTrajectory, _chunked, _chunks, _numbers, generate_trajectory
from .sim import reconstruct_velocity
from .uwb import ANCHOR_LIMIT, TOPOLOGIES, AnchorSet, GeometryDegenerate, Ranges, anchor_floor
from .uwb import _check_geometry, _check_ranges, _range_block

__all__ = [
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
    """Dataset timestamps are not strictly increasing."""


class NumericalFailure(RuntimeError):
    """The run produced non-finite state or lost all measurements."""


def default_anchors() -> AnchorSet:
    """Eight anchors on the floor and ceiling corners of a 6 x 6 x 3 m room.

    Full-height vertical spread keeps the position dilution below two for
    flights inside the hull; anchors clustered near one height plane make
    the z solve an order of magnitude noisier.
    """
    corners = [
        [x, y, z] for x in (-3.0, 3.0) for y in (-3.0, 3.0) for z in (0.0, 3.0)
    ]
    return AnchorSet(anchors=np.array(corners))


_TRAJECTORY_KEYS = frozenset().union(*_KIND_KEYS.values())  # every flight kind's parameters

_VARIANTS = ("matrix", "quaternion")


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
    ``navfilter.update``).  The flight is ``duration`` s at ``rate`` Hz,
    which a synthetic run decimates to ``filter_rate`` by an integer stride;
    ``trajectory_params`` is a mapping of only the ``trajectory`` kind's other keys
    (``sim._KIND_KEYS``).  Anchors on which every solve would fail
    (``uwb._check_geometry``) are rejected, not stepped through as dropouts.
    """

    mode: str = "synthetic"
    dataset_dir: str | None = None
    trajectory: str = "circle"
    duration: float = 60.0
    rate: float = 100.0
    filter_rate: float | None = None
    trajectory_params: dict = field(default_factory=dict)
    anchors: np.ndarray = field(default_factory=lambda: default_anchors().anchors)
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
        if self.filter_rate is None:  # the filter runs at the generation rate
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
        if self.variant not in _VARIANTS:
            raise ConfigError(f"variant must be one of {_VARIANTS}")
        if not (self.duration > 0 and self.rate > 0):
            raise ConfigError("duration and rate must be positive")
        if not 0 < self.filter_rate <= self.rate:
            raise ConfigError("filter_rate must be positive and not above rate")
        if self.mode == "synthetic":  # a dataset's own clock is decimated at ingest
            _stride(self.rate, self.filter_rate)
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
        floor = anchor_floor(self.topology)
        if len(self.anchors) < floor:
            raise ConfigError(
                f"anchors: {self.topology} needs at least {floor} anchors, got {len(self.anchors)}"
            )
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
            _check_geometry(self._anchor_set, self.topology)
        except (ValueError, GeometryDegenerate) as err:  # each message names its field, which is the config key
            raise ConfigError(str(err)) from err
        # the initial state passes the same gate as every state a step returns
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a rotation vector that overflows fails the gate
                r0 = so3_exp(self.r_hat0)
                att = tuple(map(tuple, r0.tolist())) if self.variant == "matrix" else tuple(rot_to_quat(r0).tolist())
            self._initial_state = _gate(FilterState(
                att, tuple(self.p_hat0.tolist()), tuple(self.v_hat0.tolist()), tuple(self.sigma_hat0.tolist()),
            ))
        except ValueError as err:
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
        loaded = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
    reference point by a body-frame lever arm.  A tag position beyond
    ``ANCHOR_LIMIT``, whose ranges would overflow, is a ConfigError, checked
    over the whole flight first.  The rows are then synthesized a chunk at a
    time (``sim._chunked``) into the preallocated blocks, each chunk's
    ``(m, 9 + k)`` normal draws taken in turn from the one generator, which
    gives the numbers of one ``(n, 9 + k)`` draw: the temporaries hold one
    chunk's rows, and every row is the one a whole-flight pass gives.  Each
    block then gets its per-sample value check once, and a failed one (a
    reading that overflowed, or a TOA range that noise drove negative) is a
    ConfigError naming the keys that can cause it.
    """
    lever = tag_offset is not None and np.any(tag_offset)

    def tag(chunk: slice) -> np.ndarray:
        return traj.p[chunk] + traj.rot[chunk] @ tag_offset if lever else traj.p[chunk]

    if not all((np.abs(tag(chunk)) <= ANCHOR_LIMIT).all() for chunk in _chunks(len(traj))):
        raise ConfigError(f"the tag must stay within {ANCHOR_LIMIT:g} of the origin, or its ranges "
                          "overflow: check p0, radius, amplitude and tag_offset")
    rng = noise.stream() if noise is not None else None
    sigmas = (noise.sigma_omega, noise.sigma_a, noise.sigma_m) if noise is not None else None

    def rows(chunk: slice) -> tuple[np.ndarray, np.ndarray]:
        rot = traj.rot[chunk]
        vdot = (rot @ traj.a[chunk][:, :, None])[:, :, 0] + env.g_vec
        ranges = _range_block(tag(chunk), anchors, topology)
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
    """The rows of a checked ``(n, k)`` block, each built into its value only when it is read.

    The block is held as C-contiguous float64 behind a memoryview, which one ``struct``
    unpack reads faster than the array: a row comes out as the floats ``tolist`` gives,
    and ``make`` builds its ImuSample or Ranges.  A slice is a sequence over the sliced rows.
    """

    __slots__ = ("_rows", "_n", "_row_bytes", "_unpack", "_make")

    def __init__(self, block: np.ndarray, make) -> None:
        block = np.ascontiguousarray(block, dtype=float)
        (self._n, k), self._rows = block.shape, memoryview(block)
        self._row_bytes, self._unpack, self._make = 8 * k, struct.Struct(f"{k}d").unpack_from, make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Rows(np.asarray(self._rows)[i], self._make)
        if not -self._n <= i < self._n:  # ends iteration; the unpack would read past the block
            raise IndexError("row index out of range")
        return self._make(self._unpack(self._rows, i % self._n * self._row_bytes))


def synthesize_measurements(
    traj: TruthTrajectory, anchors: AnchorSet, topology: str, noise: NoiseSpec | None,
    env: ReferenceEnvironment, tag_offset: np.ndarray | None = None,
) -> tuple[Sequence[ImuSample], Sequence[Ranges]]:
    """The blocks of :func:`measurement_blocks` as one ImuSample and one Ranges per sample, built on read."""
    imu, ranges = measurement_blocks(traj, anchors, topology, noise, env, tag_offset)
    return _Rows(imu, _imu_sample), _Rows(ranges, partial(Ranges, topology))


def _write_lines(path: Path, header: list[str], line: str, n: int, values) -> None:
    """Header line, then ``n`` rows of the ``%`` template ``line``, ``values(chunk)`` giving a chunk of rows' values.

    The chunks are :func:`sim._chunks`' (``_CHUNK_ROWS`` rows), so a writer
    holds one chunk's text and values, not a file's.
    """
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for chunk in _chunks(n):
            fh.write(line * (chunk.stop - chunk.start) % values(chunk))


def _write_rows(path: Path, header: list[str], n: int, build, row: str | None = None) -> None:
    """Header line, then one line per row of an ``n``-row table, ``build(chunk)`` giving a chunk's rows as an array.

    Each line comes from the ``%`` template ``row``, which defaults to
    ``%.17g`` for every column: it formats exactly as ``format(x, ".17g")``,
    repr-round-trip precision.  A chunk's ``(m, len(header))`` array is read
    row-major, so the file holds the bytes of one template over the whole
    table while the writer's memory does not grow with its length.
    """
    line = (row or ",".join(["%.17g"] * len(header))) + "\n"
    _write_lines(path, header, line, n, lambda chunk: tuple(build(chunk).ravel().tolist()))


def _write_csv(path: Path, header: list[str], block: np.ndarray, row: str | None = None) -> None:
    """Header line, then one line per row of the array ``block`` through :func:`_write_rows`."""
    _write_rows(path, header, len(block), block.__getitem__, row)


_TRUTH_HEADER = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
_IMU_HEADER = ["t", "wx", "wy", "wz", "ax", "ay", "az", "mx", "my", "mz"]


def _write_truth(path: Path, traj: TruthTrajectory) -> None:
    """``truth.csv`` of ``traj``: each chunk's quaternions are converted as its rows are written."""
    _write_rows(path, _TRUTH_HEADER, len(traj),
                lambda chunk: np.column_stack([traj.t[chunk], traj.p[chunk], rot_to_quat(traj.rot[chunk])]))


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
    """
    if topology not in anchors.tdoa:
        raise SchemaError(f"dataset export requires a tdoa topology, got {topology!r}")
    pair_list = anchors.tdoa[topology]
    n, k = len(traj), len(pair_list.first)
    if imu.shape != (n, 9) or diffs.shape != (n, k):
        raise SchemaError(f"dataset export needs an ({n}, 9) IMU block and an ({n}, {k}) range block")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_truth(out / "truth.csv", traj)
    _write_rows(out / "imu.csv", _IMU_HEADER, n, lambda chunk: np.column_stack([traj.t[chunk], imu[chunk]]))
    ids = np.arange(1, len(anchors) + 1)
    _write_csv(out / "anchors.csv", ["id", "x", "y", "z"], np.column_stack([ids, anchors.anchors]),
               "%d,%.17g,%.17g,%.17g")
    # one line template per tick with the pair ids as literal text: each row
    # formats only its difference and its tick's timestamp, formatted once per tick
    tick = "".join(f"%s,{i},{j},%.17g\n" for i, j in zip(pair_list.first + 1, pair_list.second + 1))

    def tick_values(chunk: slice) -> tuple:
        t_text = ("%.17g\n" * (chunk.stop - chunk.start) % tuple(traj.t[chunk].tolist())).split()
        values = [None] * (2 * len(t_text) * k)
        values[0::2] = [text for text in t_text for _ in range(k)]
        values[1::2] = diffs[chunk].ravel().tolist()
        return tuple(values)

    _write_lines(out / "tdoa.csv", ["t", "i", "j", "d"], tick, n, tick_values)
    return out


def _read_csv(path: Path, columns: list[str], nan_columns: tuple[str, ...] = ()) -> np.ndarray:
    """Numeric table of ``path`` with header ``columns``; every cell must be a finite number.

    ``nan_columns`` may also hold NaN.  Columns ``qw``..``qz``, where the
    header has them (``truth.csv``, ``estimates.csv``), must hold a unit
    quaternion to ``ATTITUDE_GATE``.  A cell that is not a number, a row of
    the wrong length, a non-finite value or a non-unit quaternion is a
    SchemaError naming the file, the column and the data row.  A table with
    no data rows comes back as an empty ``(0, len(columns))`` array.
    """
    if not path.exists():
        raise SchemaError(f"missing dataset file: {path.name}")
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        if header != columns:
            missing = [c for c in columns if c not in header]
            if missing:
                raise SchemaError(f"{path.name}: missing column {missing[0]!r}")
            raise SchemaError(f"{path.name}: expected columns {columns}, got {header}")
        start = fh.tell()
        if not any(line.strip() for line in fh):
            return np.empty((0, len(columns)))
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
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

    Timestamps that do not strictly increase are a ClockError.
    """
    truth = _read_csv(path, _TRUTH_HEADER)
    if len(truth) < 2:
        raise SchemaError(f"{path.name} needs at least two samples")
    if np.any(np.diff(truth[:, 0]) <= 0):
        raise ClockError(f"{path.name}: timestamps must be strictly increasing")
    return truth


def _bad_cell(path: Path, columns: list[str]) -> str | None:
    """The first non-numeric cell or wrong-length row of a CSV table, by column and data row."""
    with path.open() as fh:
        rows = [line for line in fh.read().splitlines()[1:] if line.strip()]
    for k, line in enumerate(rows, 1):
        cells = line.split(",")
        for name, cell in zip(columns, cells):
            try:
                float(cell)
            except ValueError:
                return f"non-numeric value {cell!r} in column {name!r} (data row {k})"
        if len(cells) < len(columns):
            return f"no value for column {columns[len(cells)]!r} (data row {k})"
        if len(cells) > len(columns):
            return f"{len(cells)} values for {len(columns)} columns (data row {k})"
    return None


def _stride(rate: float, filter_rate: float) -> int:
    """Integer decimation from a ``rate`` Hz sample clock down to ``filter_rate``.

    Raises
    ------
    ConfigError
        If no integer stride reaches ``filter_rate`` within 1%.
    """
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

    The IMU/truth clock is decimated by an integer stride down to
    ``filter_rate`` (500 Hz data at a 100 Hz filter keeps every 5th
    sample, copied out of the full-rate tables); ranging rows are grouped
    per timestamp and held to the nearest decimated tick (a tie goes to the earlier group).  A tick whose
    nearest group lies farther than one filter interval plus the median
    spacing of the group timestamps is a ClockError.  Truth
    velocity is reconstructed from the full-rate positions before
    decimation.  The truth carries no body rates or specific forces
    (``omega`` and ``a`` are None): the run scores states only.  The
    samples are built on read (:class:`_Rows`).  Anchors below the
    topology's floor, or that give no fix, are a SchemaError.
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
    floor = anchor_floor(topology)
    if len(anchors_raw) < floor:
        raise SchemaError(f"anchors.csv: {topology} needs at least {floor} anchors, got {len(anchors_raw)}")
    order = np.argsort(anchors_raw[:, 0])
    if not np.array_equal(anchors_raw[order, 0], np.arange(1, len(order) + 1)):  # tdoa.csv's i, j name them
        raise SchemaError(f"anchors.csv: ids must be 1 to {len(order)}, each once")
    try:
        anchor_set = AnchorSet(anchors=anchors_raw[order, 1:4])
        _check_geometry(anchor_set, topology)
    except (ValueError, GeometryDegenerate) as err:
        raise SchemaError(f"anchors.csv: {err}") from err

    dt_full = float(np.median(np.diff(t_full)))
    stride = _stride(1.0 / dt_full, filter_rate)
    keep = slice(None, None, stride)

    p_full = truth[:, 1:4]
    v_full = reconstruct_velocity(p_full, dt_full)
    traj = TruthTrajectory(  # copies: no view holds a full-rate table alive through the run
        t=t_full[keep].copy(), rot=quat_to_rot(truth[keep, 4:8]), p=p_full[keep].copy(), v=v_full[keep].copy()
    )
    imu_stream = _Rows(imu[keep, 1:10].copy(), _imu_sample)  # a copy, as the truth's

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
    nearest = _nearest(times, traj.t)
    # a group further off than one filter interval plus the ranging clock's
    # own spacing is a gap in the ranging stream, not a late group
    spacing = float(np.median(np.diff(times))) if len(times) > 1 else 0.0
    far = np.abs(times[nearest] - traj.t) > 1.0 / filter_rate + spacing
    if far.any():
        raise ClockError(f"tdoa.csv: no ranging group near t={traj.t[np.argmax(far)]:.6g}")
    return traj, anchor_set, imu_stream, _Rows(groups[nearest, :, 3], partial(Ranges, topology))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``(n, 3)``, as ``numpy.linalg.norm`` of the row (a dot product)."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _metrics_block(t, r_true, p_true, v_true, r_est, p_est, v_est, sigma, e_r, py_residual) -> np.ndarray:
    """Rows of ``metrics.csv`` from row-aligned truth and estimate blocks, range-checked."""
    att = attitude_distance(r_true @ r_est.transpose(0, 2, 1))
    with np.errstate(over="ignore"):  # a norm that overflows fails the check below
        pos, vel, sigma_norm = _norms(p_true - p_est), _norms(v_true - v_est), _norms(sigma)
    _check_metrics(att, pos, vel, sigma_norm)
    return np.column_stack([t, att, pos, vel, sigma_norm, e_r, py_residual])


_ESTIMATE_HEADER = [
    "t", "px", "py", "pz", "vx", "vy", "vz",
    "qw", "qx", "qy", "qz", "s1", "s2", "s3", "e_r", "py_residual", "dropout",
]
_METRICS_HEADER = ["t", "att_err", "pos_err", "vel_err", "sigma_norm", "e_r", "py_residual"]


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
    env = cfg.env()
    gains = cfg.gains()
    anchors = cfg.anchor_set()
    if cfg.mode == "synthetic":
        params = dict(cfg.trajectory_params, duration=cfg.duration, rate=cfg.rate)
        traj = generate_trajectory(cfg.trajectory, params, env)
        keep = slice(None, None, _stride(cfg.rate, cfg.filter_rate))
        traj = TruthTrajectory(**{k: x[keep].copy() for k, x in vars(traj).items()})  # copies, as ingest_dataset's
        imu_stream, range_stream = synthesize_measurements(
            traj, anchors, cfg.topology, cfg.noise(), env, cfg.tag_offset
        )
    else:
        traj, anchors, imu_stream, range_stream = ingest_dataset(
            cfg.dataset_dir, cfg.filter_rate, cfg.topology
        )

    state = cfg.initial_state()
    dt = cfg.dt
    n = len(traj) - 1
    # one row per step: the k attitude values (rotation rows or quaternion), p_hat,
    # v_hat, sigma_hat, e_r, innovation and dropout, packed as the step returns
    k = 9 if cfg.variant == "matrix" else 4
    history = np.empty((n, k + 12))
    view, pack, row_bytes = memoryview(history), struct.Struct(f"{k + 12}d").pack_into, 8 * (k + 12)
    for i in range(n):
        try:
            state, diag = step(state, imu_stream[i], range_stream[i], anchors, env, gains, dt)
        except ValueError as err:
            # config and data were validated up front, so a value error out
            # of the step math means the numerics ran away
            raise NumericalFailure(f"filter step failed at t={traj.t[i]:.3f}: {err}") from err
        att = state.attitude
        pack(view, i * row_bytes, *(att[0] + att[1] + att[2] if k == 9 else att), *state.p_hat, *state.v_hat,
             *state.sigma_hat, diag.e_r, diag.innovation_norm, diag.dropout)
    att, p_hat, v_hat, sigma_hat = np.hsplit(history[:, :-3], [k, k + 3, k + 6])
    e_r, residual, dropout = history[:, -3:].T
    dropouts = int(dropout.sum())
    if dropouts == n:
        raise NumericalFailure("every step dropped its measurement")

    t = traj.t[1:]
    rot = att.reshape(n, 3, 3) if k == 9 else quat_to_rot(att)
    try:
        metrics = _metrics_block(t, traj.rot[1:], traj.p[1:], traj.v[1:], rot, p_hat, v_hat, sigma_hat, e_r, residual)
    except ValueError as err:
        raise NumericalFailure(f"metrics: {err}") from err

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_truth(out / "truth.csv", traj)
    estimates = np.column_stack([
        t, p_hat, v_hat, rot_to_quat(rot), sigma_hat, e_r, residual, dropout,
    ])
    _write_csv(out / "estimates.csv", _ESTIMATE_HEADER, estimates, ",".join(["%.17g"] * 16 + ["%d"]))
    _write_csv(out / "metrics.csv", _METRICS_HEADER, metrics)

    att, pos, vel = metrics[:, 1], metrics[:, 2], metrics[:, 3]
    tail = slice(n // 2, None)
    below = np.flatnonzero(pos <= 0.3)
    summary = {
        "steps": n,
        "dropouts": dropouts,
        "final": {
            "att_err": float(att[-1]),
            "pos_err": float(pos[-1]),
            "vel_err": float(vel[-1]),
        },
        "steady_state_median": {
            "att_err": float(np.median(att[tail])),
            "pos_err": float(np.median(pos[tail])),
            "vel_err": float(np.median(vel[tail])),
        },
        "time_to_pos_below_0.3": float(t[below[0]]) if below.size else None,
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
        metrics = _metrics_block(
            t, quat_to_rot(truth[i, 4:8]), truth[i, 1:4], v_truth[i], quat_to_rot(est[:, 7:11]),
            est[:, 1:4], est[:, 4:7], est[:, 11:14], est[:, 14], est[:, 15],
        )
    except ValueError as err:
        raise SchemaError(f"{est_path.name} against {Path(truth_path).name}: {err}") from err
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, _METRICS_HEADER, metrics)
    return len(metrics)
