"""Host-speed calibration: a fixed reference kernel timed around measured work.

The benchmark host is a share of a machine whose speed changes by up to
about 2x as other tenants load it, from one minute to the next and often
within a second; the slowdown shows in CPU time as much as in wall time
(it is not steal).  A time measured at one moment is then not comparable
with one measured at another.  So the benchmark runs a short fixed
reference kernel -- the mix of a filter step: a small least-squares
solve, a rotation exponential, an SVD re-projection, a validated value
object and a few Python containers -- before every ``STEP_EVERY``-th
timed filter step, and from a SIGALRM interval timer every ``EVERY_S`` in
the rest of a timed operation.  Each stretch of measured time is rescaled
by the host speed measured around it, ``REF_NOMINAL_S`` over the
reference time, and the reference runs themselves are left out of every
measured time.  Times are then seconds at a nominal host speed: the speed
at which the kernel takes ``REF_NOMINAL_S`` (about its time on a 2-vCPU
Intel Xeon share running unloaded).  The kernel is part of the benchmark,
not of uwbnav, so a change to the package moves the measured work and not
the yardstick.

The kernel is timed warm (one untimed pass first), so its time does not
depend on what the package ran before it.  It is broad on purpose: a
slow spell of the host slows a filter step about 1.79x, this kernel
about 1.74x, while a tight 9x9 solve loop slows only 1.62x and would
leave a tenth of the slowdown in the rescaled times.

Stretch k runs from the end of sample k-1 to the start of sample k; its
speed is the mean of ``REF_NOMINAL_S / reference`` over the two samples
that bracket it, k-1 and k.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

REF_NOMINAL_S = 120e-6
# an untimed pass first: after unrelated code a cold pass takes up to
# twice as long and would read as a slow host
WARM_ITERS = 1
# a reference sample before every STEP_EVERY-th filter step
STEP_EVERY = 4
# interval of the calibration timer between filter steps
EVERY_S = 0.02

_RNG = np.random.default_rng(20230825)
_A = _RNG.standard_normal((6, 3))
_B = _RNG.standard_normal(6)
_W = 0.1 * _RNG.standard_normal(3)


@dataclass(frozen=True)
class _Pose:
    rot: np.ndarray
    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self) -> None:
        for name in ("rot", "pos", "vel"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} is not finite")
            object.__setattr__(self, name, value)


def _skew(w: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def reference_kernel(iters: int = 1) -> float:
    """Fixed work shaped like a filter step; returns a checksum."""
    acc = 0.0
    for i in range(iters):
        q, r = np.linalg.qr(_A)
        x = np.linalg.solve(r, q.T @ _B)
        w = _W + 1e-3 * x
        theta = float(np.linalg.norm(w))
        k = _skew(w)
        rot = np.eye(3) + np.sin(theta) / theta * k + (1.0 - np.cos(theta)) / theta**2 * (k @ k)
        u, s, vt = np.linalg.svd(rot)
        pose = _Pose(u @ vt, np.cross(x, w), np.concatenate([x[:2], [s[0]]]))
        m = np.zeros((5, 5))
        m[:3, :3], m[:3, 3], m[:3, 4] = pose.rot, pose.pos, pose.vel
        acc += float(np.trace(m @ m)) + len({"k": i, "v": [j * 0.5 for j in range(8)]})
    return acc


class HostClock:
    """Reference samples taken between stretches of measured work.

    ``marks[k]`` is ``(begin_ns, start_ns, end_ns)`` of the k-th sample:
    its untimed warm pass starts at ``begin_ns``, its timed pass runs from
    ``start_ns`` to ``end_ns``.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, int, int]] = []
        # set while a filter step runs: the step probe samples between
        # steps, so the timer leaves a step alone
        self.hold = False
        self._busy = False
        self._speeds: np.ndarray | None = None

    def sample(self) -> int:
        """Time one reference run now; returns its mark index."""
        if self._busy:  # the timer fired inside a sample: skip it
            return len(self.marks) - 1
        self._busy = True
        begin = perf_counter_ns()
        reference_kernel(WARM_ITERS)
        start = perf_counter_ns()
        reference_kernel()
        self.marks.append((begin, start, perf_counter_ns()))
        self._speeds = None
        self._busy = False
        return len(self.marks) - 1

    def _tick(self, signum, frame) -> None:
        if not self.hold:
            self.sample()

    def start(self) -> None:
        """Sample every ``EVERY_S`` from now on, between Python bytecodes."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.hold = False

    def speeds(self) -> np.ndarray:
        """Per stretch k: nominal over measured seconds around it."""
        if self._speeds is None:
            ref = np.array([end - start for _, start, end in self.marks], dtype=float) * 1e-9
            speed = REF_NOMINAL_S / ref
            self._speeds = np.array(
                [speed[max(0, k - 1) : k + 1].mean() for k in range(len(ref) + 1)]
            )
        return self._speeds

    def span(self, first: int, last: int, nominal: bool) -> float:
        """Seconds from the end of mark ``first`` to the start of mark ``last``.

        Reference runs in between are left out; with ``nominal`` each
        stretch is rescaled to the nominal host speed.
        """
        marks = self.marks
        gaps = np.array(
            [marks[k][0] - marks[k - 1][2] for k in range(first + 1, last + 1)], dtype=float
        )
        if nominal:
            gaps = gaps * self.speeds()[first + 1 : last + 1]
        return float(gaps.sum()) * 1e-9
