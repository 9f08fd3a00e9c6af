"""UWB range generation and least-squares position reconstruction.

Supports time-of-arrival ranging (one absolute distance per anchor) and two
time-difference-of-arrival topologies: a main-base-station scheme where
every difference is taken against anchor 1, and a ring scheme chaining
consecutive anchors with a wraparound pair.  Each solver rewrites the
squared-range identities as an overdetermined linear system and solves it
in the least-squares sense from one thin singular value decomposition of the
system matrix, which also yields the rank test and the condition number.
Forming the normal equations would square the condition number, so it is
avoided.  The TDOA systems carry the unknown distance to anchor 1 as a
fourth state alongside the position.

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
    "tdoa_solve_main_bs",
    "tdoa_solve_ring",
    "solve_fix",
]

MIN_ANCHOR_SEPARATION = 1e-6
DEFAULT_COND_CEILING = 1e8
_EPS = float(np.finfo(float).eps)

RING = "ring"
MAIN_BS = "main-bs"


class GeometryDegenerate(RuntimeError):
    """Anchor geometry cannot support a well-posed position solve."""


@dataclass(frozen=True)
class AnchorSet:
    """Fixed anchor positions in the inertial frame.

    ``dim`` selects the positioning dimensionality: 3 solves for the full
    position, 2 restricts the solve to the x/y plane (planar deployments).
    Each solver enforces the anchor-count floor of :func:`anchor_floor` and
    its own rank test, so sets of any size can be constructed.

    Derived once here for the solvers: ``sq_norms`` (squared anchor norms
    over the solved coordinates), ``ring_next`` (index of each anchor's ring
    successor, wrapping to anchor 1), ``toa_factors`` (the thin SVD
    ``(U^T, s, V)`` of the TOA system ``h[1:] - h[0]`` with its
    conditioning, see :func:`_factor`; None below the TOA anchor floor)
    and ``main_system`` / ``ring_system`` (the TDOA system matrices with
    their position blocks filled and the per-solve difference column left
    zero).  Construction never raises on geometry: a rank-deficient TOA
    system is recorded and reported by :func:`toa_solve`.
    """

    anchors: np.ndarray
    dim: int = 3
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    ring_next: np.ndarray = field(init=False, repr=False, compare=False)
    toa_factors: tuple | None = field(init=False, repr=False, compare=False)
    main_system: np.ndarray = field(init=False, repr=False, compare=False)
    ring_system: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.anchors, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError("anchors must be an (N, 3) array")
        if not np.isfinite(a).all():
            raise ValueError("anchors must be finite")
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        diffs = a[:, None, :] - a[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= MIN_ANCHOR_SEPARATION:
            raise ValueError("anchors closer than the minimum separation")
        dim, n = self.dim, a.shape[0]
        nxt = (np.arange(n) + 1) % n
        main = np.zeros((n - 1, dim + 1))
        main[:, :dim] = a[0, :dim] - a[1:, :dim]
        ring = np.zeros((n, dim + 1))
        ring[:, :dim] = a[:, :dim] - a[nxt, :dim]
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "sq_norms", np.sum(a[:, :dim] ** 2, axis=1))
        object.__setattr__(self, "ring_next", nxt)
        toa = _factor(a[1:, :dim] - a[0, :dim]) if n >= anchor_floor(None, dim) else None
        object.__setattr__(self, "toa_factors", toa)
        object.__setattr__(self, "main_system", main)
        object.__setattr__(self, "ring_system", ring)

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

    ``main-bs``: entry k is dist(anchor k+2) - dist(anchor 1), k = 0..N-2.
    ``ring``: entry k is dist(anchor k+2) - dist(anchor k+1) for
    k = 0..N-2 plus the wraparound dist(anchor 1) - dist(anchor N).
    (1-based anchor numbering in both descriptions.)
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


def tdoa_ranges(
    p: np.ndarray,
    anchors: AnchorSet,
    topology: str,
    tag_offset: tuple[np.ndarray, np.ndarray] | None = None,
) -> TdoaRanges:
    """Noise-free range differences for the requested topology.

    ``tag_offset`` is an optional ``(rotation, lever_arm)`` pair placing the
    tag at ``p + rotation @ lever_arm`` instead of ``p`` (tag mounted away
    from the vehicle reference point).
    """
    p = np.asarray(p, dtype=float)
    if tag_offset is not None:
        rot, lever = tag_offset
        p = p + np.asarray(rot, dtype=float) @ np.asarray(lever, dtype=float)
    return TdoaRanges(topology=topology, diffs=_range_block(p, anchors, topology))


def _range_block(p: np.ndarray, anchors: AnchorSet, topology: str | None) -> np.ndarray:
    """Noise-free ranges (``topology`` None) or range differences for tag positions ``(..., 3)``."""
    d = np.linalg.norm(anchors.anchors - p[..., None, :], axis=-1)
    if topology is None:
        return d
    if topology == MAIN_BS:
        return d[..., 1:] - d[..., :1]
    if topology == RING:
        return d[..., anchors.ring_next] - d
    raise ValueError(f"unknown TDOA topology {topology!r}")


def anchor_floor(topology: str | None, dim: int = 3) -> int:
    """Fewest anchors a ``dim``-D solve needs under ``topology`` (None for TOA).

    ``dim + 1`` for TOA; ``dim + 2`` for TDOA, whose systems carry the range
    to anchor 1 as one more unknown.
    """
    return dim + 1 if topology is None else dim + 2


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


def _solve(factors: tuple, b: np.ndarray, cond_ceiling: float) -> tuple[np.ndarray, float]:
    """Least-squares solution ``V ((U^T b) / s)`` of ``a x = b`` from ``_factor(a)``, and its condition number.

    ``a`` is factored directly, so the normal equations (which would square
    the condition number) are never formed.  This is the one rank and
    condition gate of every solver; ``not cond <= cond_ceiling`` also
    rejects a NaN ceiling.

    Raises
    ------
    GeometryDegenerate
        If ``a`` is rank deficient or its condition number exceeds
        ``cond_ceiling``.
    ValueError
        If the solution is not finite (ranges so large that the squared-range
        right-hand side overflows).
    """
    ut, s, v, cond = factors
    if isinstance(cond, str):
        raise GeometryDegenerate(cond)
    if not cond <= cond_ceiling:
        raise GeometryDegenerate(f"condition number {cond:.3g} above ceiling {cond_ceiling:.3g}")
    x = v.dot(ut.dot(b) / s)
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError("position solve overflowed: ranges too large")
    return x, cond


def toa_solve(
    anchors: AnchorSet, ranges: ToaRanges, cond_ceiling: float = DEFAULT_COND_CEILING
) -> PositionFix:
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
        If fewer than ``dim + 1`` anchors, rank-deficient geometry, or
        conditioning above ``cond_ceiling``.
    """
    n = len(anchors)
    dim = anchors.dim
    if n < anchor_floor(None, dim):
        raise GeometryDegenerate(f"need at least {anchor_floor(None, dim)} anchors, got {n}")
    d = ranges.d
    if d.shape != (n,):
        raise ValueError("range count does not match anchor count")
    hn2 = anchors.sq_norms
    b = 0.5 * (d[0] ** 2 - d[1:] ** 2 + hn2[1:] - hn2[0])
    x, cond = _solve(anchors.toa_factors, b, cond_ceiling)
    p = np.zeros(3)
    p[:dim] = x
    return _unchecked(PositionFix, p=p, condition_number=cond, aux_range=None, aux_clamped=False)


def _finish_tdoa(x: np.ndarray, cond: float, dim: int) -> PositionFix:
    p = np.zeros(3)
    p[:dim] = x[:dim]
    aux = float(x[dim])
    clamped = aux < 0.0
    if clamped:
        aux = 0.0
    return _unchecked(PositionFix, p=p, condition_number=cond, aux_range=aux, aux_clamped=clamped)


def tdoa_solve_main_bs(
    anchors: AnchorSet, ranges: TdoaRanges, cond_ceiling: float = DEFAULT_COND_CEILING
) -> PositionFix:
    """Position from main-base-station range differences.

    With ``d_i1 = dist_i - dist_1``, squaring ``dist_i = d_i1 + dist_1``
    gives rows ``(h_1 - h_i) . p - d_i1 * dist_1 = (d_i1^2 + ||h_1||^2 -
    ||h_i||^2) / 2`` in the stacked unknown ``[p, dist_1]``.

    Raises
    ------
    GeometryDegenerate
        If fewer than ``dim + 2`` anchors (the system has ``dim + 1``
        unknowns and ``N - 1`` rows), rank deficiency, or bad conditioning.
    """
    if ranges.topology != MAIN_BS:
        raise ValueError("expected main-bs ranges")
    n = len(anchors)
    dim = anchors.dim
    if n < anchor_floor(MAIN_BS, dim):
        raise GeometryDegenerate(f"need at least {anchor_floor(MAIN_BS, dim)} anchors, got {n}")
    diffs = ranges.diffs
    if diffs.shape != (n - 1,):
        raise ValueError("difference count does not match anchor count")
    hn2 = anchors.sq_norms
    a = anchors.main_system.copy()
    a[:, dim] = -diffs
    b = 0.5 * (diffs**2 + hn2[0] - hn2[1:])
    x, cond = _solve(_factor(a), b, cond_ceiling)
    return _finish_tdoa(x, cond, dim)


def tdoa_solve_ring(
    anchors: AnchorSet, ranges: TdoaRanges, cond_ceiling: float = DEFAULT_COND_CEILING
) -> PositionFix:
    """Position from ring range differences.

    Consecutive differences telescope: dist to anchor j equals dist to
    anchor 1 plus the partial sum ``c_j`` of the first ``j - 1`` differences.
    Substituting into the squared-range identity for pair (j, j+1) yields
    rows ``(h_j - h_{j+1}) . p - d * dist_1 = (d^2 + ||h_j||^2 -
    ||h_{j+1}||^2 + 2 d c_j) / 2`` with ``d`` the pair's difference; the
    first row has an empty partial sum and the wraparound pair (N, 1) closes
    the ring with ``c_N``.

    Raises
    ------
    GeometryDegenerate
        If fewer than ``dim + 2`` anchors, rank deficiency, or bad
        conditioning.  The ring rows sum to zero by telescoping, so the
        system rank is at most ``N - 1`` and ``N`` rows only determine the
        ``dim + 1`` unknowns once ``N >= dim + 2``.
    """
    if ranges.topology != RING:
        raise ValueError("expected ring ranges")
    n = len(anchors)
    dim = anchors.dim
    if n < anchor_floor(RING, dim):
        raise GeometryDegenerate(f"need at least {anchor_floor(RING, dim)} anchors, got {n}")
    diffs = ranges.diffs
    if diffs.shape != (n,):
        raise ValueError("difference count does not match anchor count")
    hn2 = anchors.sq_norms
    nxt = anchors.ring_next
    partial = np.concatenate([[0.0], np.cumsum(diffs[:-1])])
    a = anchors.ring_system.copy()
    a[:, dim] = -diffs
    b = 0.5 * (diffs**2 + hn2 - hn2[nxt] + 2.0 * diffs * partial)
    x, cond = _solve(_factor(a), b, cond_ceiling)
    return _finish_tdoa(x, cond, dim)


def solve_fix(
    anchors: AnchorSet,
    obs: ToaRanges | TdoaRanges,
    cond_ceiling: float = DEFAULT_COND_CEILING,
) -> PositionFix:
    """Dispatch an observation to the solver matching its topology."""
    if isinstance(obs, ToaRanges):
        return toa_solve(anchors, obs, cond_ceiling)
    if obs.topology == MAIN_BS:
        return tdoa_solve_main_bs(anchors, obs, cond_ceiling)
    return tdoa_solve_ring(anchors, obs, cond_ceiling)
