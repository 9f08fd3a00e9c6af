"""UWB range generation and least-squares position reconstruction.

Supports time-of-arrival ranging (``toa``, one absolute distance per
anchor) and two time-difference-of-arrival topologies: ``tdoa-main``, a
main-base-station scheme where every difference is taken against anchor 1,
and ``tdoa-ring``, a ring scheme chaining consecutive anchors with a
wraparound pair.  These three names, ``TOPOLOGIES``, are the one ranging
vocabulary of the package: the run configuration, the command line and
the harness read them from here.  Each TDOA topology is
defined once, by the anchor-pair list :class:`AnchorSet` builds for it
(``AnchorSet.tdoa``): difference k is the distance to the second anchor of
pair k minus the distance to the first.  Range synthesis, the one TDOA
solver and the dataset's ``i,j`` columns all read that list.

Each solver rewrites the squared-range identities as an overdetermined
linear system ``A x = b`` and solves it in the least-squares sense from a
thin singular value decomposition; forming the normal equations would
square the condition number, so it is avoided.  Every decomposition is
taken once, by ``numpy.linalg.svd`` when an :class:`AnchorSet` is built,
because the system matrices are constant but for one column:

- TOA: ``A`` depends on the anchors alone, so a solve is ``V ((U^T b) /
  s)``.
- TDOA: the unknowns are the position and the distance to anchor 1, and
  ``A = [A0 | c]`` is a constant position block ``A0`` (rows ``h[first] -
  h[second]``, factored as ``U0 S0 V0^T``) plus the column ``c = -d`` of
  measured differences, a rank-one addition.  With ``z = U0^T c``, ``r = c
  - U0 z`` and ``beta^2 = |r|^2``, the auxiliary range is ``x4 = r^T b /
  beta^2`` and the position ``p = V0 S0^-1 U0^T (b - x4 c)``.

The rank test counts singular values above ``s_max max(shape) eps``: for
TDOA, ``A0``'s rank (taken once) plus one if ``beta`` passes the same
test against ``||A||_F``.  The condition number is the Frobenius-norm one,
``kappa_F = ||A||_F ||A^+||_F``, which the stored singular values give
without a per-solve decomposition: ``sqrt(sum s^2 sum 1/s^2)`` for TOA and
``sqrt((sum s^2 + |z|^2 + beta^2) (sum 1/s^2 + (sum (z_i/s_i)^2 + 1) /
beta^2))`` for TDOA.  On k columns ``kappa_2 <= kappa_F <= k kappa_2``, so
``COND_CEILING`` on it is at most k times stricter than on ``kappa_2``.

A solve runs once per filter step on a handful of rows, where a numpy call
costs more in dispatch than its arithmetic, so solves compute on Python
floats from the float copies of each factor the anchor set keeps, read the
range sets' float tuples and return a fix that holds floats (see
``navfilter``'s "Cost" note).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, starmap
from operator import mul
from typing import NamedTuple

import numpy as np

__all__ = [
    "TOPOLOGIES",
    "GeometryDegenerate",
    "AnchorSet",
    "Ranges",
    "PositionFix",
    "anchor_floor",
    "toa_solve",
    "tdoa_solve",
    "solve_fix",
]

MIN_ANCHOR_SEPARATION = 1e-6
# no anchor coordinate may exceed this magnitude: the squared norms and
# distances, and the sums of squares the factors hold, then stay finite
ANCHOR_LIMIT = 1e150
COND_CEILING = 1e8
_EPS = float(np.finfo(float).eps)

# the ranging topologies: absolute ranges, and the two TDOA anchor-pair lists
TOPOLOGIES = ("toa", "tdoa-main", "tdoa-ring")


class GeometryDegenerate(RuntimeError):
    """Anchor geometry cannot support a well-posed position solve."""


class Factor(NamedTuple):
    """Thin SVD ``a = U diag(s) V^T`` of a constant system matrix, as Python floats.

    ``ut`` holds the rows of ``U^T``, ``s`` the singular values in descending
    order and ``v`` the rows of ``V``.  ``rank`` is the numeric rank, the
    count of singular values above ``s_max max(shape) eps``; the rows of
    ``ut`` past it are zero, so projections onto them span the numeric range
    only.  ``fro2`` is ``sum s^2`` (``||a||_F^2``) and ``inv2`` is ``sum
    1/s^2`` over the rank (``||a^+||_F^2`` at full rank).
    """

    ut: list
    s: list
    v: list
    rank: int
    fro2: float
    inv2: float


class PairList(NamedTuple):
    """One TDOA topology over an anchor set, and the constant parts of its solve.

    ``first`` and ``second`` are the 0-based anchor indices of each pair,
    in topology order: difference k is dist(anchor ``second[k]``) -
    dist(anchor ``first[k]``).  ``sq_first`` and ``sq_second`` are the
    squared norms of each pair's anchors, and ``factor`` the :class:`Factor`
    of the solver's position block, rows ``h[first] - h[second]`` (None
    below the TDOA anchor floor).
    """

    first: np.ndarray
    second: np.ndarray
    sq_first: list
    sq_second: list
    factor: Factor | None


@dataclass(frozen=True)
class AnchorSet:
    """Fixed anchor positions in the inertial frame.

    Each solver enforces the anchor-count floor of :func:`anchor_floor` and
    its own rank test, so sets of any size can be constructed.

    Derived once here for the solvers: ``sq_norms`` (squared anchor norms),
    ``toa_factor`` (the :class:`Factor` of the TOA system ``h[1:] - h[0]``;
    None below the TOA anchor floor) and ``tdoa``, the :class:`PairList` of
    each TDOA topology: ``tdoa-main`` pairs ``(0, j)`` for j = 1..N-1,
    ``tdoa-ring`` pairs ``(j, j + 1)`` for j = 0..N-2 and the wraparound
    ``(N - 1, 0)``.  The ``tdoa-main`` position block is the TOA system
    negated, so it shares that
    factor with ``V`` negated.  Construction raises ValueError only on the
    anchors themselves (shape, non-finite or beyond ``ANCHOR_LIMIT``,
    closer than ``MIN_ANCHOR_SEPARATION``), never on geometry: a
    rank-deficient system is recorded and reported at solve time.  The
    checks and the squared norms run on Python floats; numpy only factors
    the two system matrices.
    """

    anchors: np.ndarray
    sq_norms: list = field(init=False, repr=False, compare=False)
    toa_factor: Factor | None = field(init=False, repr=False, compare=False)
    tdoa: dict[str, PairList] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.anchors, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3 or not len(a):
            raise ValueError("anchors must be an (N, 3) array")
        rows = a.tolist()
        coords = [x for row in rows for x in row]
        if not all(map(math.isfinite, coords)):
            raise ValueError("anchors must be finite")
        if not max(map(abs, coords)) <= ANCHOR_LIMIT:
            raise ValueError(f"anchors must lie within {ANCHOR_LIMIT:g} of the origin: their squares would overflow")
        if min(starmap(math.dist, combinations(rows, 2)), default=math.inf) <= MIN_ANCHOR_SEPARATION:
            raise ValueError("anchors closer than the minimum separation")
        n = len(rows)
        ids = np.arange(n)
        sq_norms = [x * x + y * y + z * z for x, y, z in rows]
        toa = _factor(a[1:] - a[0]) if n >= anchor_floor("toa") else None
        solvable = n >= anchor_floor("tdoa-main")
        ring_second = np.concatenate((ids[1:], ids[:1]))
        tdoa = {
            "tdoa-main": PairList(
                np.zeros(n - 1, dtype=int), ids[1:], sq_norms[:1] * (n - 1), sq_norms[1:],
                toa._replace(v=[[-x for x in row] for row in toa.v]) if solvable else None,
            ),
            "tdoa-ring": PairList(
                ids, ring_second, sq_norms, sq_norms[1:] + sq_norms[:1],
                _factor(a - a[ring_second]) if solvable else None,
            ),
        }
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "sq_norms", sq_norms)
        object.__setattr__(self, "toa_factor", toa)
        object.__setattr__(self, "tdoa", tdoa)

    def __len__(self) -> int:
        return len(self.sq_norms)


@dataclass(slots=True)
class Ranges:
    """One ranging epoch under ``topology``, one of ``TOPOLOGIES``, as a float tuple.

    For ``toa``, ``values`` holds the absolute distance to every anchor, in
    anchor order.  For a TDOA topology, entry k is dist(second) -
    dist(first) for pair k of the topology's anchor-pair list,
    ``AnchorSet.tdoa[topology]``: in 1-based anchor numbering, ``tdoa-main``
    pairs are (1, k+2) for k = 0..N-2, and ``tdoa-ring`` pairs are (k+1,
    k+2) for k = 0..N-2 plus the wraparound (N, 1).  A range set holds what
    it is given: the harness builds sets from a block that passed
    :func:`_check_ranges`.
    """

    topology: str
    values: tuple


def _check_ranges(block: np.ndarray, topology: str) -> None:
    """The range value check, once over an ``(n, k)`` block of one topology's rows."""
    if topology == "toa":
        if not np.isfinite(block).all() or (block < 0.0).any():
            raise ValueError("ranges must be finite and non-negative")
    elif not np.isfinite(block).all():
        raise ValueError("diffs must be a finite 1-D array")


def _range_rows(block: np.ndarray, topology: str) -> list[Ranges]:
    """One Ranges per row of an ``(n, k)`` block (see :func:`_check_ranges`)."""
    return [Ranges(topology, row) for row in map(tuple, block.tolist())]


@dataclass(slots=True)
class PositionFix:
    """Least-squares position solution, as the solvers build it.

    ``p`` is the position as a float 3-tuple.  ``aux_range`` is the
    recovered distance to anchor 1 for TDOA solves (None for TOA);
    ``aux_clamped`` flags a negative auxiliary range that was clamped to
    zero.  ``condition_number`` is the Frobenius-norm condition number
    ``||A||_F ||A^+||_F`` of the solved system matrix ``A`` (see the module
    notes), at least its 2-norm condition number and at most its column
    count times that.
    """

    p: tuple
    condition_number: float
    aux_range: float | None
    aux_clamped: bool


def _range_block(p: np.ndarray, anchors: AnchorSet, topology: str) -> np.ndarray:
    """Noise-free ranges (``toa``) or range differences for tag positions ``(..., 3)``."""
    d = np.linalg.norm(anchors.anchors - p[..., None, :], axis=-1)
    if topology == "toa":
        return d
    if topology not in anchors.tdoa:
        raise ValueError(f"unknown TDOA topology {topology!r}")
    pairs = anchors.tdoa[topology]
    return d[..., pairs.second] - d[..., pairs.first]


def anchor_floor(topology: str) -> int:
    """Fewest anchors a solve needs under ``topology``.

    4 for ``toa``; 5 for TDOA, whose systems carry the range to anchor 1 as
    a fourth unknown.
    """
    return 4 if topology == "toa" else 5


def _factor(a: np.ndarray) -> Factor:
    """The :class:`Factor` of ``a``, from one ``numpy.linalg.svd``."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s, ut = s.tolist(), u.T.tolist()
    tol = s[0] * max(a.shape) * _EPS
    rank = sum(x > tol for x in s)
    for row in ut[rank:]:
        row[:] = [0.0] * len(row)
    return Factor(ut, s, vt.T.tolist(), rank, sum(x * x for x in s), sum(1.0 / (x * x) for x in s[:rank]))


def _finite(values):
    """``values``, when every one is finite: the squared ranges and the solution must not overflow.

    Raises
    ------
    ValueError
        If a value is NaN or infinite (ranges so large that their squares
        overflow).
    """
    if not all(map(math.isfinite, values)):
        raise ValueError("position solve overflowed: ranges too large")
    return values


def _check_rank(rank: int, unknowns: int) -> None:
    """Raise GeometryDegenerate for a system of numeric rank ``rank`` below its ``unknowns``."""
    if rank < unknowns:
        raise GeometryDegenerate(f"system rank {rank} below {unknowns} unknowns")


def _check_condition(cond: float) -> float:
    """``cond``, at or below ``COND_CEILING``; ``not cond <= COND_CEILING`` also rejects NaN.

    Raises
    ------
    GeometryDegenerate
        If the condition number exceeds ``COND_CEILING``.
    """
    if not cond <= COND_CEILING:
        raise GeometryDegenerate(f"condition number {cond:.3g} above ceiling {COND_CEILING:.3g}")
    return cond


def _position(v: list, y0: float, y1: float, y2: float) -> tuple[float, float, float]:
    """``V y`` from the rows of ``V``, checked finite."""
    (v00, v01, v02), (v10, v11, v12), (v20, v21, v22) = v
    return _finite((v00 * y0 + v01 * y1 + v02 * y2, v10 * y0 + v11 * y1 + v12 * y2, v20 * y0 + v21 * y1 + v22 * y2))


def toa_solve(anchors: AnchorSet, ranges: Ranges) -> PositionFix:
    """Position from absolute ranges.

    Differencing the squared-range identity ``d_i^2 = ||h_i||^2 + ||p||^2 -
    2 h_i . p`` against anchor 1 cancels ``||p||^2`` and leaves the linear
    system with rows ``(h_i - h_1) . p = (d_1^2 - d_i^2 + ||h_i||^2 -
    ||h_1||^2) / 2``.  The matrix of that system is the anchor set's, so
    its factorization (``anchors.toa_factor``) is reused and a solve only
    forms the right-hand side.

    Raises
    ------
    GeometryDegenerate
        If fewer than 4 anchors, rank-deficient geometry, or conditioning
        above ``COND_CEILING``.
    ValueError
        If the range count is not the anchor count, or the solve overflows.
    """
    n = len(anchors)
    floor = anchor_floor("toa")
    if n < floor:
        raise GeometryDegenerate(f"need at least {floor} anchors, got {n}")
    d, hn2 = ranges.values, anchors.sq_norms
    if len(d) != n:
        raise ValueError("range count does not match anchor count")
    e0, h0 = d[0] * d[0], hn2[0]
    # an overflowed entry of b makes the solution non-finite, which _position rejects
    b = [0.5 * (e0 - di * di + hi - h0) for di, hi in zip(d[1:], hn2[1:])]
    f = anchors.toa_factor
    _check_rank(f.rank, 3)
    cond = _check_condition(math.sqrt(f.fro2 * f.inv2))
    (u0, u1, u2), (s0, s1, s2) = f.ut, f.s
    p = _position(f.v, sum(map(mul, u0, b)) / s0, sum(map(mul, u1, b)) / s1, sum(map(mul, u2, b)) / s2)
    return PositionFix(p, cond, None, False)


def tdoa_solve(anchors: AnchorSet, ranges: Ranges) -> PositionFix:
    """Position from range differences, over the topology's anchor-pair list.

    For pair (i, j) with difference ``d = dist_j - dist_i``, squaring
    ``dist_j = d + dist_i`` gives the row ``(h_i - h_j) . p - d * dist_i =
    (d^2 + ||h_i||^2 - ||h_j||^2) / 2``.  The unknowns are stacked as ``[p,
    dist_1]``.  Under ``tdoa-main`` every pair starts at anchor 1, so
    ``dist_i`` is ``dist_1``.  Ring differences telescope: ``dist_i`` is ``dist_1``
    plus the partial sum ``c_i`` of the differences before pair i, which
    adds ``d c_i`` to the row's right-hand side (zero for the first pair;
    the wraparound pair closes the ring with ``c_N``).  The solve is the
    rank-one update of the module notes on the factored position block.

    Raises
    ------
    GeometryDegenerate
        If fewer than 5 anchors, rank deficiency, or conditioning above
        ``COND_CEILING``.  The system has 4 unknowns; ``tdoa-main`` has
        ``N - 1`` rows, and the ring rows sum to zero by telescoping, so the ring
        system rank is at most ``N - 1`` too.
    ValueError
        If the difference count does not match the anchor count, or the
        solve overflows.
    """
    n = len(anchors)
    topology, d = ranges.topology, ranges.values
    floor = anchor_floor(topology)
    if n < floor:
        raise GeometryDegenerate(f"need at least {floor} anchors, got {n}")
    _, second, sq_first, sq_second, f = anchors.tdoa[topology]
    if len(d) != len(second):
        raise ValueError("difference count does not match anchor count")
    if topology == "tdoa-ring":
        b, partial = [], 0.0
        for di, hi, hj in zip(d, sq_first, sq_second):
            b.append(0.5 * (di * di + hi - hj + 2.0 * di * partial))
            partial += di
    else:
        b = [0.5 * (di * di + hi - hj) for di, hi, hj in zip(d, sq_first, sq_second)]
    # projections of d = -c: they give -z and -r, and the same beta^2
    (u0, u1, u2), (s0, s1, s2) = f.ut, f.s
    z0, z1, z2 = sum(map(mul, u0, d)), sum(map(mul, u1, d)), sum(map(mul, u2, d))
    r = [di - (a0 * z0 + a1 * z1 + a2 * z2) for di, a0, a1, a2 in zip(d, u0, u1, u2)]
    beta2 = sum(map(mul, r, r))
    _finite(b + [beta2])
    fro2 = f.fro2 + (z0 * z0 + z1 * z1 + z2 * z2) + beta2
    tol = len(d) * _EPS
    _check_rank(f.rank + (beta2 > fro2 * tol * tol), 4)
    w0, w1, w2 = z0 / s0, z1 / s1, z2 / s2
    cond = _check_condition(math.sqrt(fro2 * (f.inv2 + (w0 * w0 + w1 * w1 + w2 * w2 + 1.0) / beta2)))
    aux = -sum(map(mul, r, b)) / beta2
    p = _position(
        f.v, (sum(map(mul, u0, b)) + aux * z0) / s0, (sum(map(mul, u1, b)) + aux * z1) / s1,
        (sum(map(mul, u2, b)) + aux * z2) / s2,
    )
    clamped = aux < 0.0
    if clamped:
        aux = 0.0
    return PositionFix(p, cond, aux, clamped)


def solve_fix(anchors: AnchorSet, obs: Ranges) -> PositionFix:
    """Dispatch an observation to the TOA solver or, on its own topology, to the TDOA solver."""
    if obs.topology == "toa":
        return toa_solve(anchors, obs)
    return tdoa_solve(anchors, obs)
