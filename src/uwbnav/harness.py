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

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy.spatial.transform import Rotation

from .attitude import ImuSample, ReferenceEnvironment, measure_imu
from .liegroup import attitude_distance, quat_to_rot, rot_to_quat, so3_exp
from .navfilter import Diagnostics, FilterGains, FilterState, step
from .sim import (
    BadParams,
    NoiseSpec,
    TruthTrajectory,
    generate_trajectory,
    reconstruct_velocity,
)
from .uwb import MAIN_BS, RING, AnchorSet, TdoaRanges, ToaRanges, tdoa_ranges, toa_ranges

__all__ = [
    "ConfigError",
    "SchemaError",
    "ClockError",
    "NumericalFailure",
    "RunConfig",
    "MetricsRow",
    "load_config",
    "default_anchors",
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


_TRAJECTORY_KEYS = (
    "p0",
    "radius",
    "period",
    "yaw",
    "yaw0",
    "amplitude",
    "frequency",
    "phase",
    "yaw_amplitude",
    "yaw_frequency",
)

_TOPOLOGIES = ("toa", "tdoa-main", "tdoa-ring")
_VARIANTS = ("matrix", "quaternion")


@dataclass
class RunConfig:
    """One experiment, fully specified.

    Defaults give a ready-to-run 100 Hz circular flight: ring-TDOA fixes,
    the stock gain set, a large initial position offset, and
    representative sensor noise.
    """

    mode: str = "synthetic"
    dataset_dir: str | None = None
    trajectory: str = "circle"
    duration: float = 60.0
    rate: float = 100.0
    filter_rate: float | None = None
    trajectory_params: dict = field(default_factory=dict)
    anchors: np.ndarray = field(default_factory=lambda: default_anchors().anchors)
    anchors_file: str | None = None
    topology: str = "tdoa-ring"
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
    schedule: str = "constant"
    p_hat0: np.ndarray = field(default_factory=lambda: np.array([-2.0, -3.0, 0.0]))
    v_hat0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    r_hat0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sigma_hat0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tag_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    g_vec: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))
    m_r: np.ndarray = field(default_factory=lambda: np.array([-1.3, 0.0, 1.5]))
    out: str = "runs/latest"

    _FLOAT_FIELDS = (
        "duration", "rate", "k1", "kv", "ka", "gamma_sigma", "epsilon",
        "k_sigma", "sigma_m", "sigma_range",
    )

    def __post_init__(self) -> None:
        # YAML 1.1 reads exponents without a sign ("1e12") as strings, so
        # scalar fields are coerced here rather than trusted
        for name in self._FLOAT_FIELDS:
            try:
                setattr(self, name, float(getattr(self, name)))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{name} must be a number") from err
        if self.filter_rate is not None:
            try:
                self.filter_rate = float(self.filter_rate)
            except (TypeError, ValueError) as err:
                raise ConfigError("filter_rate must be a number") from err
        try:
            self.seed = int(self.seed)
        except (TypeError, ValueError) as err:
            raise ConfigError("seed must be an integer") from err
        if self.mode not in ("synthetic", "dataset"):
            raise ConfigError(f"mode must be synthetic or dataset, got {self.mode!r}")
        if self.mode == "dataset":
            if not self.dataset_dir:
                raise ConfigError("dataset mode requires dataset_dir")
            if not Path(self.dataset_dir).is_dir():
                raise ConfigError(f"dataset_dir does not exist: {self.dataset_dir}")
        if self.anchors_file is not None:
            path = Path(self.anchors_file)
            if not path.is_file():
                raise ConfigError(f"anchors_file does not exist: {path}")
            try:
                table = _read_csv(path, ["id", "x", "y", "z"])
            except SchemaError as err:
                raise ConfigError(str(err)) from err
            self.anchors = table[np.argsort(table[:, 0]), 1:4]
        if self.topology not in _TOPOLOGIES:
            raise ConfigError(f"topology must be one of {_TOPOLOGIES}")
        if self.mode == "dataset" and self.topology == "toa":
            raise ConfigError("the dataset layout carries TDOA rows; choose a tdoa topology")
        if self.variant not in _VARIANTS:
            raise ConfigError(f"variant must be one of {_VARIANTS}")
        if self.duration <= 0 or self.rate <= 0:
            raise ConfigError("duration and rate must be positive")
        if self.filter_rate is None:
            self.filter_rate = float(self.rate)
        if self.filter_rate <= 0 or self.filter_rate > self.rate:
            raise ConfigError("filter_rate must be positive and not above rate")
        for name in ("sigma_omega", "sigma_a"):
            val = np.asarray(getattr(self, name), dtype=float)
            if val.ndim == 0:
                val = np.full(3, float(val))
            if val.shape != (3,):
                raise ConfigError(f"{name} must be a scalar or 3-vector")
            setattr(self, name, val)
        for name in ("p_hat0", "v_hat0", "r_hat0", "sigma_hat0", "tag_offset", "g_vec", "m_r", "s"):
            val = np.asarray(getattr(self, name), dtype=float)
            if val.shape != (3,):
                raise ConfigError(f"{name} must be a 3-vector")
            setattr(self, name, val)
        self.anchors = np.asarray(self.anchors, dtype=float)

    @property
    def dt(self) -> float:
        return 1.0 / float(self.filter_rate)

    def gains(self) -> FilterGains:
        return FilterGains(
            k1=self.k1,
            kv=self.kv,
            ka=self.ka,
            gamma_sigma=self.gamma_sigma,
            epsilon=self.epsilon,
            k_sigma=self.k_sigma,
            s=self.s,
        )

    def noise(self) -> NoiseSpec:
        return NoiseSpec(
            sigma_omega=self.sigma_omega,
            sigma_a=self.sigma_a,
            sigma_m=self.sigma_m,
            sigma_range=self.sigma_range,
            seed=self.seed,
            schedule=self.schedule,
        )

    def env(self) -> ReferenceEnvironment:
        return ReferenceEnvironment(g_vec=self.g_vec, m_r=self.m_r)

    def anchor_set(self) -> AnchorSet:
        return AnchorSet(anchors=self.anchors)

    def initial_state(self) -> FilterState:
        r0 = so3_exp(self.r_hat0)
        attitude = r0 if self.variant == "matrix" else rot_to_quat(r0)
        return FilterState(
            attitude=attitude,
            p_hat=self.p_hat0,
            v_hat=self.v_hat0,
            sigma_hat=self.sigma_hat0,
        )


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
        loaded = yaml.safe_load(path.read_text())
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a mapping of keys to values")
        raw.update(loaded)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    if "dt" in raw:
        try:
            dt = float(raw.pop("dt"))
        except (TypeError, ValueError) as err:
            raise ConfigError("dt must be a number") from err
        if dt <= 0:
            raise ConfigError("dt must be positive")
        stated = raw.get("filter_rate")
        if stated is not None and abs(float(stated) * dt - 1.0) > 1e-9:
            raise ConfigError("dt and filter_rate disagree; give one of them")
        raw["filter_rate"] = 1.0 / dt

    params = {k: raw.pop(k) for k in list(raw) if k in _TRAJECTORY_KEYS}
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return RunConfig(trajectory_params=params, **raw)
    except TypeError as err:
        raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class MetricsRow:
    """Per-step error metrics against truth."""

    t: float
    att_err: float
    pos_err: float
    vel_err: float
    sigma_norm: float
    e_r: float
    py_residual: float

    def __post_init__(self) -> None:
        if not (-1e-9 <= self.att_err <= 1.0 + 1e-9):
            raise ValueError("att_err must lie in [0, 1]")
        if not (self.pos_err >= 0 and self.vel_err >= 0):
            raise ValueError("pos_err and vel_err must be nonnegative")


def synthesize_measurements(
    traj: TruthTrajectory,
    anchors: AnchorSet,
    topology: str,
    noise: NoiseSpec | None,
    env: ReferenceEnvironment,
    tag_offset: np.ndarray | None = None,
) -> tuple[list[ImuSample], list[ToaRanges | TdoaRanges]]:
    """Sensor streams for every trajectory sample.

    Noise draws come from one generator in a fixed per-sample order (gyro,
    accelerometer, magnetometer, then one draw per transmitted range
    value), so a seed pins the entire stream.  ``tag_offset`` displaces
    the ranging tag from the vehicle reference point by a body-frame
    lever arm.
    """
    rng = noise.stream() if noise is not None else None
    duration = float(traj.t[-1] - traj.t[0])
    lever = None if tag_offset is None or not np.any(tag_offset) else tag_offset
    imu_stream: list[ImuSample] = []
    range_stream: list[ToaRanges | TdoaRanges] = []
    for i in range(len(traj)):
        t = float(traj.t[i])
        scaled = noise.scaled(noise.scale_at(t, duration)) if noise is not None else None
        vdot = traj.rot[i] @ traj.a[i] + env.g_vec
        imu_stream.append(
            measure_imu(
                traj.state(i), traj.omega[i], vdot, env, noise=scaled, rng=rng, t=t
            )
        )
        offset = None if lever is None else (traj.rot[i], lever)
        if topology == "toa":
            obs = toa_ranges(traj.p[i], anchors)
            if lever is not None:
                tag = traj.p[i] + traj.rot[i] @ lever
                obs = ToaRanges(d=np.linalg.norm(anchors.anchors - tag, axis=1))
            if scaled is not None:
                obs = ToaRanges(d=obs.d + rng.normal(0.0, scaled.sigma_range, len(obs.d)))
        else:
            ring = "ring" if topology == "tdoa-ring" else MAIN_BS
            obs = tdoa_ranges(traj.p[i], anchors, topology=ring, tag_offset=offset)
            if scaled is not None:
                obs = TdoaRanges(
                    topology=obs.topology,
                    diffs=obs.diffs + rng.normal(0.0, scaled.sigma_range, len(obs.diffs)),
                )
        range_stream.append(obs)
    return imu_stream, range_stream


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


_TRUTH_HEADER = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]


def _write_truth(path: Path, traj: TruthTrajectory) -> None:
    rows = []
    for i in range(len(traj)):
        q = rot_to_quat(traj.rot[i])
        rows.append([_fmt(traj.t[i])] + [_fmt(x) for x in traj.p[i]] + [_fmt(x) for x in q])
    _write_csv(path, _TRUTH_HEADER, rows)


def write_dataset(
    out_dir: str | Path,
    traj: TruthTrajectory,
    anchors: AnchorSet,
    imu_stream: list[ImuSample],
    range_stream: list[TdoaRanges],
) -> Path:
    """Write the four-file CSV dataset layout.

    ``truth.csv``: t, px, py, pz, qw, qx, qy, qz (scalar-first attitude).
    ``imu.csv``: t, wx, wy, wz, ax, ay, az, mx, my, mz.
    ``anchors.csv``: id, x, y, z (1-based ids).
    ``tdoa.csv``: t, i, j, d with d = dist(anchor j) - dist(anchor i); one
    row per difference in topology order (ring: consecutive pairs plus the
    wraparound; main: pairs (1, j)).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_truth(out / "truth.csv", traj)

    imu_rows = [
        [_fmt(s.t)]
        + [_fmt(x) for x in s.omega_m]
        + [_fmt(x) for x in s.a_m]
        + [_fmt(x) for x in s.m_m]
        for s in imu_stream
    ]
    _write_csv(
        out / "imu.csv",
        ["t", "wx", "wy", "wz", "ax", "ay", "az", "mx", "my", "mz"],
        imu_rows,
    )

    anchor_rows = [
        [str(i + 1)] + [_fmt(x) for x in row] for i, row in enumerate(anchors.anchors)
    ]
    _write_csv(out / "anchors.csv", ["id", "x", "y", "z"], anchor_rows)

    n = len(anchors)
    tdoa_rows = []
    for k, obs in enumerate(range_stream):
        if not isinstance(obs, TdoaRanges):
            raise SchemaError("dataset export requires TDOA observations")
        t = _fmt(traj.t[k])
        if obs.topology == RING:
            pairs = [(j + 1, (j + 1) % n + 1) for j in range(n)]
        else:
            pairs = [(1, j) for j in range(2, n + 1)]
        for (i, j), d in zip(pairs, obs.diffs):
            tdoa_rows.append([t, str(i), str(j), _fmt(d)])
    _write_csv(out / "tdoa.csv", ["t", "i", "j", "d"], tdoa_rows)
    return out


def _read_csv(path: Path, columns: list[str]) -> np.ndarray:
    if not path.exists():
        raise SchemaError(f"missing dataset file: {path.name}")
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        if header != columns:
            missing = [c for c in columns if c not in header]
            if missing:
                raise SchemaError(f"{path.name}: missing column {missing[0]!r}")
            raise SchemaError(f"{path.name}: expected columns {columns}, got {header}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise SchemaError(f"{path.name}: {err}") from err
    if data.size and data.shape[1] != len(columns):
        raise SchemaError(f"{path.name}: ragged rows")
    return data


def ingest_dataset(
    dataset_dir: str | Path,
    filter_rate: float,
    topology: str = "tdoa-ring",
) -> tuple[TruthTrajectory, AnchorSet, list[ImuSample], list[TdoaRanges]]:
    """Load a four-file dataset and align it to the filter clock.

    The IMU/truth clock is decimated by an integer stride down to
    ``filter_rate`` (500 Hz data at a 100 Hz filter keeps every 5th
    sample); ranging rows are grouped per timestamp and held to the
    nearest decimated tick.  Truth velocity is reconstructed from the
    full-rate positions before decimation; body rates and specific force
    are derived the same way, for replay only.
    """
    src = Path(dataset_dir)
    truth = _read_csv(src / "truth.csv", _TRUTH_HEADER)
    imu = _read_csv(src / "imu.csv", ["t", "wx", "wy", "wz", "ax", "ay", "az", "mx", "my", "mz"])
    anchors_raw = _read_csv(src / "anchors.csv", ["id", "x", "y", "z"])
    tdoa = _read_csv(src / "tdoa.csv", ["t", "i", "j", "d"])
    if len(truth) < 2:
        raise SchemaError("truth.csv needs at least two samples")
    if len(truth) != len(imu) or np.max(np.abs(truth[:, 0] - imu[:, 0])) > 1e-9:
        raise ClockError("truth.csv and imu.csv clocks disagree")
    t_full = truth[:, 0]
    if np.any(np.diff(t_full) <= 0):
        raise ClockError("timestamps must be strictly increasing")

    order = np.argsort(anchors_raw[:, 0])
    anchor_set = AnchorSet(anchors=anchors_raw[order, 1:4])

    dt_full = float(np.median(np.diff(t_full)))
    stride = max(1, int(round(1.0 / (filter_rate * dt_full))))
    if abs(1.0 / (stride * dt_full) - filter_rate) > 0.01 * filter_rate:
        raise ConfigError(
            f"filter rate {filter_rate} Hz is not an integer decimation of the "
            f"{1.0 / dt_full:.6g} Hz dataset clock"
        )

    p_full = truth[:, 1:4]
    v_full = reconstruct_velocity(p_full, dt_full)
    idx = np.arange(0, len(t_full), stride)
    n = len(idx)
    rot = np.empty((n, 3, 3))
    for k, i in enumerate(idx):
        rot[k] = quat_to_rot(truth[i, 4:8])
    # body rates/specific force are derivative reconstructions kept only so
    # the replay satisfies the trajectory contract
    dt_f = dt_full * stride
    omega = np.zeros((n, 3))
    for k in range(n - 1):
        omega[k] = Rotation.from_matrix(rot[k].T @ rot[k + 1]).as_rotvec() / dt_f
    omega[-1] = omega[-2]
    vdot_full = reconstruct_velocity(v_full, dt_full)
    g = np.array([0.0, 0.0, 9.81])
    a = np.einsum("nij,nj->ni", rot.transpose(0, 2, 1), vdot_full[idx] - g)

    traj = TruthTrajectory(
        t=t_full[idx], rot=rot, p=p_full[idx], v=v_full[idx], omega=omega, a=a
    )

    imu_stream = [
        ImuSample(omega_m=imu[i, 1:4], a_m=imu[i, 4:7], m_m=imu[i, 7:10], t=float(imu[i, 0]))
        for i in idx
    ]

    n_anchors = len(anchor_set)
    per_tick = n_anchors if topology == "tdoa-ring" else n_anchors - 1
    times, starts = np.unique(tdoa[:, 0], return_index=True)
    if np.any(np.diff(times) <= 0):
        raise ClockError("tdoa.csv timestamps must be increasing")
    range_stream: list[TdoaRanges] = []
    want = (
        [(j + 1, (j + 1) % n_anchors + 1) for j in range(n_anchors)]
        if topology == "tdoa-ring"
        else [(1, j) for j in range(2, n_anchors + 1)]
    )
    for i in idx:
        tick = t_full[i]
        g_idx = int(np.argmin(np.abs(times - tick)))
        lo = starts[g_idx]
        hi = starts[g_idx + 1] if g_idx + 1 < len(starts) else len(tdoa)
        block = tdoa[lo:hi]
        if len(block) != per_tick:
            raise SchemaError(
                f"tdoa.csv: expected {per_tick} rows at t={times[g_idx]:.6g}, got {len(block)}"
            )
        pairs = [(int(r[1]), int(r[2])) for r in block]
        if pairs != want:
            raise SchemaError(
                f"tdoa.csv: anchor pairs at t={times[g_idx]:.6g} do not match "
                f"the {topology} topology"
            )
        topo = RING if topology == "tdoa-ring" else MAIN_BS
        range_stream.append(TdoaRanges(topology=topo, diffs=block[:, 3]))
    return traj, anchor_set, imu_stream, range_stream


def _metrics_row(
    t: float,
    truth_rot: np.ndarray,
    truth_p: np.ndarray,
    truth_v: np.ndarray,
    state: FilterState,
    diag: Diagnostics,
) -> MetricsRow:
    return MetricsRow(
        t=t,
        att_err=float(attitude_distance(truth_rot @ state.rotation().T)),
        pos_err=float(np.linalg.norm(truth_p - state.p_hat)),
        vel_err=float(np.linalg.norm(truth_v - state.v_hat)),
        sigma_norm=float(np.linalg.norm(state.sigma_hat)),
        e_r=diag.e_r,
        py_residual=diag.innovation_norm,
    )


_ESTIMATE_HEADER = [
    "t", "px", "py", "pz", "vx", "vy", "vz",
    "qw", "qx", "qy", "qz", "s1", "s2", "s3", "e_r", "py_residual", "dropout",
]
_METRICS_HEADER = ["t", "att_err", "pos_err", "vel_err", "sigma_norm", "e_r", "py_residual"]


def run_experiment(cfg: RunConfig) -> dict:
    """Execute one configured run and write its artifacts.

    Writes ``estimates.csv`` (state trace), ``metrics.csv`` (error trace),
    and ``summary.json`` under ``cfg.out``.  Returns the summary mapping.

    Raises
    ------
    NumericalFailure
        If the state stops being finite or no step obtains a usable fix.
    """
    env = cfg.env()
    gains = cfg.gains()
    anchors = cfg.anchor_set()
    if cfg.mode == "synthetic":
        params = dict(cfg.trajectory_params)
        params.setdefault("duration", cfg.duration)
        params.setdefault("rate", cfg.rate)
        traj = generate_trajectory(cfg.trajectory, params, env)
        stride = max(1, int(round(cfg.rate / cfg.filter_rate)))
        if stride > 1:
            traj = TruthTrajectory(
                t=traj.t[::stride].copy(),
                rot=traj.rot[::stride].copy(),
                p=traj.p[::stride].copy(),
                v=traj.v[::stride].copy(),
                omega=traj.omega[::stride].copy(),
                a=traj.a[::stride].copy(),
            )
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
    est_rows: list[list[str]] = []
    metric_rows: list[MetricsRow] = []
    dropouts = 0
    sigma_alerts = 0
    for i in range(n):
        try:
            state, diag = step(state, imu_stream[i], range_stream[i], anchors, env, gains, dt)
        except ValueError as err:
            # config and data were validated up front, so a value error out
            # of the step math means the numerics ran away
            raise NumericalFailure(f"filter step failed at t={traj.t[i]:.3f}: {err}") from err
        if diag.dropout:
            dropouts += 1
        if diag.sigma_alert:
            sigma_alerts += 1
        q = rot_to_quat(state.rotation())
        est_rows.append(
            [_fmt(traj.t[i + 1])]
            + [_fmt(x) for x in state.p_hat]
            + [_fmt(x) for x in state.v_hat]
            + [_fmt(x) for x in q]
            + [_fmt(x) for x in state.sigma_hat]
            + [_fmt(diag.e_r), _fmt(diag.innovation_norm), str(int(diag.dropout))]
        )
        metric_rows.append(
            _metrics_row(float(traj.t[i + 1]), traj.rot[i + 1], traj.p[i + 1], traj.v[i + 1], state, diag)
        )
    if dropouts == n:
        raise NumericalFailure("every step dropped its measurement")

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_truth(out / "truth.csv", traj)
    _write_csv(out / "estimates.csv", _ESTIMATE_HEADER, est_rows)
    _write_csv(
        out / "metrics.csv",
        _METRICS_HEADER,
        (
            [_fmt(r.t), _fmt(r.att_err), _fmt(r.pos_err), _fmt(r.vel_err),
             _fmt(r.sigma_norm), _fmt(r.e_r), _fmt(r.py_residual)]
            for r in metric_rows
        ),
    )

    tail = metric_rows[len(metric_rows) // 2 :]
    summary = {
        "steps": n,
        "dropouts": dropouts,
        "sigma_alerts": sigma_alerts,
        "final": {
            "att_err": metric_rows[-1].att_err,
            "pos_err": metric_rows[-1].pos_err,
            "vel_err": metric_rows[-1].vel_err,
        },
        "steady_state_median": {
            "att_err": float(np.median([r.att_err for r in tail])),
            "pos_err": float(np.median([r.pos_err for r in tail])),
            "vel_err": float(np.median([r.vel_err for r in tail])),
        },
        "time_to_pos_below_0.3": _time_to_threshold(metric_rows, 0.3),
        "seed": cfg.seed,
        "topology": cfg.topology,
        "variant": cfg.variant,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _time_to_threshold(rows: list[MetricsRow], threshold: float) -> float | None:
    for row in rows:
        if row.pos_err <= threshold:
            return row.t
    return None


def recompute_metrics(estimates_path: str | Path, truth_path: str | Path, out_path: str | Path) -> int:
    """Rebuild metrics.csv from a saved estimate trace and a truth file.

    Truth rows are matched to estimate rows by timestamp (nearest sample,
    tolerance half a truth interval).  Returns the number of rows written.
    """
    est_path = Path(estimates_path)
    if not est_path.exists():
        raise SchemaError(f"missing estimates file: {est_path}")
    with est_path.open() as fh:
        header = fh.readline().strip().split(",")
        if header != _ESTIMATE_HEADER:
            raise SchemaError(f"{est_path.name}: unexpected columns {header}")
        est = np.loadtxt(fh, delimiter=",", ndmin=2)
    truth = _read_csv(Path(truth_path), _TRUTH_HEADER)
    t_truth = truth[:, 0]
    if np.any(np.diff(t_truth) <= 0):
        raise ClockError("truth timestamps must be strictly increasing")
    dt_truth = float(np.median(np.diff(t_truth)))
    v_truth = reconstruct_velocity(truth[:, 1:4], dt_truth)

    rows = []
    for row in est:
        i = int(np.argmin(np.abs(t_truth - row[0])))
        if abs(t_truth[i] - row[0]) > 0.5 * dt_truth + 1e-9:
            raise ClockError(f"no truth sample near t={row[0]:.6g}")
        r_true = quat_to_rot(truth[i, 4:8])
        r_est = quat_to_rot(row[7:11])
        m = MetricsRow(
            t=float(row[0]),
            att_err=float(attitude_distance(r_true @ r_est.T)),
            pos_err=float(np.linalg.norm(truth[i, 1:4] - row[1:4])),
            vel_err=float(np.linalg.norm(v_truth[i] - row[4:7])),
            sigma_norm=float(math.sqrt(row[11] ** 2 + row[12] ** 2 + row[13] ** 2)),
            e_r=float(row[14]),
            py_residual=float(row[15]),
        )
        rows.append(
            [_fmt(m.t), _fmt(m.att_err), _fmt(m.pos_err), _fmt(m.vel_err),
             _fmt(m.sigma_norm), _fmt(m.e_r), _fmt(m.py_residual)]
        )
    _write_csv(Path(out_path), _METRICS_HEADER, rows)
    return len(rows)
