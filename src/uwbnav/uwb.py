"""UWB range generation and least-squares position reconstruction.

Supports time-of-arrival ranging (one absolute distance per anchor) and two
time-difference-of-arrival topologies: a main-base-station scheme where
every difference is taken against anchor 1, and a ring scheme chaining
consecutive anchors with a wraparound pair.  Each TDOA topology is
defined once, by the anchor-pair list :class:`AnchorSet` builds for it
(``AnchorSet.tdoa``): difference k is the distance to the second anchor of
pair k minus the distance to the first.  Range synthesis, the one TDOA
solver and the dataset's ``i,j`` columns all read that list.

Each solver rewrites the squared-range identities as an overdetermined
linear system and solves it in the least-squares sense from one thin
singular value decomposition of the system matrix, which also yields the
rank test and the condition number.  Forming the normal equations would
square the condition number, so it is avoided.  The TDOA systems carry the
unknown distance to anchor 1 as a fourth state alongside the position.

The TOA system matrix depends on the anchors alone, so :class:`AnchorSet`
factors it once and a TOA solve is two small matrix-vector products; the
TDOA matrices carry the measured differences in their last column and are
factored per solve, from position blocks the anchor set also keeps.  A
solve runs once per filter step, so its products use ``ndarray.dot``:
``@`` costs several times as much in dispatch on operands this small, for
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgesdd

from .liegroup import _unchecked

__all__ = [
    "GeometryDegenerate",
    "AnchorSet",
    "ToaRanges",
    "TdoaRanges",
    "PositionFix",
    "RangeSet",
    "anchor_floor",
    "toa_ranges",
    "toa_solve",
    "tdoa_ranges",
    "tdoa_solve",
    "solve_fix",
]

MIN_ANCHOR_SEPARATION = 1e-6
COND_CEILING = 1e8
_EPS = float(np.finfo(float).eps)

RING = "ring"
MAIN_BS = "main-bs"


class GeometryDegenerate(RuntimeError):
    """Anchor geometry cannot support a well-posed position solve."""


class PairList(NamedTuple):
    """One TDOA topology over an anchor set, and the constant parts of its solve.

    ``first`` and ``second`` are the 0-based anchor indices of each pair,
    in topology order: difference k is dist(anchor ``second[k]``) -
    dist(anchor ``first[k]``).  ``system`` is the solver matrix with rows
    ``h[first] - h[second]`` and its last column, for the measured
    differences, left zero.  ``sq_first`` and ``sq_second`` are the squared
    norms of each pair's anchors.
    """

    first: np.ndarray
    second: np.ndarray
    system: np.ndarray
    sq_first: np.ndarray
    sq_second: np.ndarray


@dataclass(frozen=True)
class AnchorSet:
    """Fixed anchor positions in the inertial frame.

    Each solver enforces the anchor-count floor of :func:`anchor_floor` and
    its own rank test, so sets of any size can be constructed.

    Derived once here for the solvers: ``sq_norms`` (squared anchor
    norms), ``toa_factors`` (the thin SVD ``(U^T, s, V)`` of the TOA system
    ``h[1:] - h[0]`` with its conditioning, see :func:`_factor`; None below
    the TOA anchor floor) and ``tdoa``, the :class:`PairList` of each TDOA
    topology: main-bs pairs ``(0, j)`` for j = 1..N-1, ring pairs ``(j, j +
    1)`` for j = 0..N-2 and the wraparound ``(N - 1, 0)``.  Construction
    never raises on geometry: a rank-deficient TOA system is recorded and
    reported by :func:`toa_solve`.
    """

    anchors: np.ndarray
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    toa_factors: tuple | None = field(init=False, repr=False, compare=False)
    tdoa: dict[str, PairList] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.anchors, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError("anchors must be an (N, 3) array")
        if not np.isfinite(a).all():
            raise ValueError("anchors must be finite")
        diffs = a[:, None, :] - a[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= MIN_ANCHOR_SEPARATION:
            raise ValueError("anchors closer than the minimum separation")
        n = a.shape[0]
        ids = np.arange(n)
        sq_norms = np.sum(a**2, axis=1)
        tdoa = {}
        for topology, first, second in (
            (MAIN_BS, np.zeros(n - 1, dtype=int), ids[1:]),
            (RING, ids, (ids + 1) % n),
        ):
            system = np.zeros((len(first), 4))
            system[:, :3] = diffs[first, second]
            tdoa[topology] = PairList(first, second, system, sq_norms[first], sq_norms[second])
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "sq_norms", sq_norms)
        object.__setattr__(self, "toa_factors", _factor(a[1:] - a[0]) if n >= anchor_floor(None) else None)
        object.__setattr__(self, "tdoa", tdoa)

    def __len__(self) -> int:
        return self.anchors.shape[0]


@dataclass(frozen=True)
class ToaRanges:
    """Absolute distances from the tag to every anchor, in anchor order."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        _check_ranges(d, None)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class TdoaRanges:
    """Range differences under one of the two supported topologies.

    Entry k is dist(second) - dist(first) for pair k of the topology's
    anchor-pair list, ``AnchorSet.tdoa[topology]``.  In 1-based
    anchor numbering, ``main-bs`` pairs are (1, k+2) for k = 0..N-2;
    ``ring`` pairs are (k+1, k+2) for k = 0..N-2 plus the wraparound (N, 1).
    """

    topology: str
    diffs: np.ndarray

    def __post_init__(self) -> None:
        if self.topology not in (MAIN_BS, RING):
            raise ValueError(f"unknown TDOA topology {self.topology!r}")
        d = np.asarray(self.diffs, dtype=float)
        _check_ranges(d, self.topology)
        object.__setattr__(self, "diffs", d)


def _check_ranges(d: np.ndarray, topology: str | None, ndim: int = 1) -> None:
    """The ToaRanges (``topology`` None) or TdoaRanges value check, on one row or a block."""
    if topology is None:
        if d.ndim != ndim or not np.isfinite(d).all() or (d < 0.0).any():
            raise ValueError("ranges must be finite and non-negative")
    elif d.ndim != ndim or not np.isfinite(d).all():
        raise ValueError("diffs must be a finite 1-D array")


def _range_rows(block: np.ndarray, topology: str | None) -> list[ToaRanges] | list[TdoaRanges]:
    """One ToaRanges (``topology`` None) or TdoaRanges per row of an ``(n, k)`` block, checked once."""
    _check_ranges(block, topology, ndim=2)
    if topology is None:
        return [_unchecked(ToaRanges, d=row) for row in block]
    return [_unchecked(TdoaRanges, topology=topology, diffs=row) for row in block]


RangeSet = ToaRanges | TdoaRanges


@dataclass(frozen=True)
class PositionFix:
    """Least-squares position solution.

    ``aux_range`` is the recovered distance to anchor 1 for TDOA solves
    (None for TOA); ``aux_clamped`` flags a negative auxiliary range that
    was clamped to zero.  ``condition_number`` is that of the solved system
    matrix.
    """

    p: np.ndarray
    condition_number: float
    aux_range: float | None = None
    aux_clamped: bool = False


def toa_ranges(p: np.ndarray, anchors: AnchorSet) -> ToaRanges:
    """Noise-free absolute ranges from position ``p`` to every anchor."""
    return ToaRanges(d=_range_block(np.asarray(p, dtype=float), anchors, None))


def tdoa_ranges(p: np.ndarray, anchors: AnchorSet, topology: str) -> TdoaRanges:
    """Noise-free range differences for the requested topology."""
    return TdoaRanges(topology=topology, diffs=_range_block(np.asarray(p, dtype=float), anchors, topology))


def _range_block(p: np.ndarray, anchors: AnchorSet, topology: str | None) -> np.ndarray:
    """Noise-free ranges (``topology`` None) or range differences for tag positions ``(..., 3)``."""
    d = np.linalg.norm(anchors.anchors - p[..., None, :], axis=-1)
    if topology is None:
        return d
    if topology not in anchors.tdoa:
        raise ValueError(f"unknown TDOA topology {topology!r}")
    pairs = anchors.tdoa[topology]
    return d[..., pairs.second] - d[..., pairs.first]


def anchor_floor(topology: str | None) -> int:
    """Fewest anchors a solve needs under ``topology`` (None for TOA).

    4 for TOA; 5 for TDOA, whose systems carry the range to anchor 1 as a
    fourth unknown.
    """
    return 4 if topology is None else 5


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | str]:
    """Thin SVD ``a = U diag(s) V^T`` as ``(U^T, s, V, conditioning)``.

    ``conditioning`` is the condition number ``s_max / s_min``, or, when
    ``a`` is rank deficient (``s_min`` at or below ``s_max max(shape)
    eps``), the message :func:`_solve` raises for it.  LAPACK ``gesdd`` is
    called directly because these systems are tiny and per-call overhead
    dominates: the ``numpy.linalg.svd`` wrapper costs about as much again as
    the factorization itself.
    """
    u, s, vt, info = dgesdd(a, full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge (LAPACK info {info})")
    s_max, s_min = float(s[0]), float(s[-1])
    tol = s_max * max(a.shape) * _EPS
    if not s_min > tol:
        return u.T, s, vt.T, f"system rank {int(np.count_nonzero(s > tol))} below {a.shape[1]} unknowns"
    return u.T, s, vt.T, s_max / s_min


def _solve(factors: tuple, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solution ``V ((U^T b) / s)`` of ``a x = b`` from ``_factor(a)``, and its condition number.

    ``a`` is factored directly, so the normal equations (which would square
    the condition number) are never formed.  This is the one rank and
    condition gate of every solver; ``not cond <= COND_CEILING`` also
    rejects a NaN condition number.

    Raises
    ------
    GeometryDegenerate
        If ``a`` is rank deficient or its condition number exceeds
        ``COND_CEILING``.
    ValueError
        If the solution is not finite (ranges so large that the squared-range
        right-hand side overflows).
    """
    ut, s, v, cond = factors
    if isinstance(cond, str):
        raise GeometryDegenerate(cond)
    if not cond <= COND_CEILING:
        raise GeometryDegenerate(f"condition number {cond:.3g} above ceiling {COND_CEILING:.3g}")
    x = v.dot(ut.dot(b) / s)
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError("position solve overflowed: ranges too large")
    return x, cond


def toa_solve(anchors: AnchorSet, ranges: ToaRanges) -> PositionFix:
    """Position from absolute ranges.

    Differencing the squared-range identity ``d_i^2 = ||h_i||^2 + ||p||^2 -
    2 h_i . p`` against anchor 1 cancels ``||p||^2`` and leaves the linear
    system with rows ``(h_i - h_1) . p = (d_1^2 - d_i^2 + ||h_i||^2 -
    ||h_1||^2) / 2``.  The matrix of that system is the anchor set's, so
    its factorization (``anchors.toa_factors``) is reused and a solve only
    forms the right-hand side.

    Raises
    ------
    GeometryDegenerate
        If fewer than 4 anchors, rank-deficient geometry, or conditioning
        above ``COND_CEILING``.
    """
    n = len(anchors)
    floor = anchor_floor(None)
    if n < floor:
        raise GeometryDegenerate(f"need at least {floor} anchors, got {n}")
    d = ranges.d
    if d.shape != (n,):
        raise ValueError("range count does not match anchor count")
    hn2 = anchors.sq_norms
    b = 0.5 * (d[0] ** 2 - d[1:] ** 2 + hn2[1:] - hn2[0])
    p, cond = _solve(anchors.toa_factors, b)
    return _unchecked(PositionFix, p=p, condition_number=cond, aux_range=None, aux_clamped=False)


def tdoa_solve(anchors: AnchorSet, ranges: TdoaRanges) -> PositionFix:
    """Position from range differences, over the topology's anchor-pair list.

    For pair (i, j) with difference ``d = dist_j - dist_i``, squaring
    ``dist_j = d + dist_i`` gives the row ``(h_i - h_j) . p - d * dist_i =
    (d^2 + ||h_i||^2 - ||h_j||^2) / 2``.  The unknowns are stacked as ``[p,
    dist_1]``.  Under main-bs every pair starts at anchor 1, so ``dist_i``
    is ``dist_1``.  Ring differences telescope: ``dist_i`` is ``dist_1``
    plus the partial sum ``c_i`` of the differences before pair i, which
    adds ``d c_i`` to the row's right-hand side (zero for the first pair;
    the wraparound pair closes the ring with ``c_N``).

    Raises
    ------
    GeometryDegenerate
        If fewer than 5 anchors, rank deficiency, or conditioning above
        ``COND_CEILING``.  The system has 4 unknowns; main-bs has ``N - 1``
        rows, and the ring rows sum to zero by telescoping, so the ring
        system rank is at most ``N - 1`` too.
    """
    n = len(anchors)
    floor = anchor_floor(ranges.topology)
    if n < floor:
        raise GeometryDegenerate(f"need at least {floor} anchors, got {n}")
    _, second, system, sq_first, sq_second = anchors.tdoa[ranges.topology]
    diffs = ranges.diffs
    if diffs.shape != second.shape:
        raise ValueError("difference count does not match anchor count")
    a = system.copy()
    a[:, 3] = -diffs
    b = diffs**2 + sq_first - sq_second
    if ranges.topology == RING:
        b += 2.0 * diffs * np.concatenate([[0.0], np.cumsum(diffs[:-1])])
    x, cond = _solve(_factor(a), 0.5 * b)
    aux = float(x[3])
    clamped = aux < 0.0
    if clamped:
        aux = 0.0
    return _unchecked(PositionFix, p=x[:3], condition_number=cond, aux_range=aux, aux_clamped=clamped)


def solve_fix(anchors: AnchorSet, obs: ToaRanges | TdoaRanges) -> PositionFix:
    """Dispatch an observation to the TOA solver or, on its own topology, to the TDOA solver."""
    if isinstance(obs, ToaRanges):
        return toa_solve(anchors, obs)
    return tdoa_solve(anchors, obs)
