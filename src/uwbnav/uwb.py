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
pair k minus the distance to the first.  Range synthesis, the TDOA
solves and the dataset's ``i,j`` columns all read that list.

:func:`solve_fix` is the one solve: under each topology it rewrites the
squared-range identities as an overdetermined linear system ``A x = b``
and solves it in the least-squares sense from a thin singular value
decomposition; forming the normal equations would square the condition
number, so it is avoided.  Every decomposition is taken once, by
``numpy.linalg.svd`` when an :class:`AnchorSet` is built, and kept in its
one table keyed by topology, ``AnchorSet.factors``, because the system
matrices are constant but for one column:

- TOA: ``A`` depends on the anchors alone, so a solve is ``V ((U^T b) /
  s)``.
- TDOA: the unknowns are the position and the distance to anchor 1, and
  ``A = [A0 | c]`` is a constant position block ``A0`` (rows ``h[first] -
  h[second]``, factored as ``U0 S0 V0^T``) plus the column ``c = -d`` of
  measured differences, a rank-one addition.  With ``z = U0^T c``, ``r = c
  - U0 z`` and ``beta^2 = |r|^2``, the auxiliary range is ``x4 = r^T b /
  beta^2`` and the position ``p = V0 S0^-1 U0^T (b - x4 c)``.

The rank test counts singular values above ``s_max max(shape) eps``, and
the condition number gated on, and not returned, is the Frobenius-norm
one, ``kappa_F = ||A||_F ||A^+||_F``: ``sqrt(sum s^2 sum 1/s^2)`` for a
position block.  Each block is tested once, with the anchor floor, when
the :class:`AnchorSet` is built, so a TOA solve tests nothing.  A TDOA
solve tests what its measured column adds: rank 4 needs ``beta`` to pass
the rank test against ``||A||_F``, and ``kappa_F = sqrt((sum s^2 + |z|^2 +
beta^2) (sum 1/s^2 + (sum (z_i/s_i)^2 + 1) / beta^2))`` is never below the
block's.  On k columns ``kappa_2 <= kappa_F <= k kappa_2``, so
``COND_CEILING`` on it is at most k times stricter than on ``kappa_2``.

A solve runs once per filter step on a handful of rows, where a numpy call
costs more in dispatch than its arithmetic and a loop's per-row overhead a
third of the solve.  So the module writes one straight-line solver per
topology and row count (:func:`_source`), compiled once per process, and an
anchor set binds the float copies of its ``factors`` entry and of the
squared norms its rows read into it on its first solve under a topology.
A solver reads the range set's float tuple and returns the fix as a float
3-tuple, the position alone (see ``navfilter``'s "Cost" note).  Each dot
product adds its terms from ``0.0`` in row order, the rule that fixes the
bits on every Python version: the loop oracles of ``tests/reference.py``
add in it explicitly (the builtin float ``sum`` compensates from Python
3.12 on).  A finiteness test is one
``math.isfinite`` of a group's sum, so it also refuses finite values whose
sum passes the float range (~1.8e308).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations, starmap
from typing import NamedTuple

import numpy as np

__all__ = [
    "TOPOLOGIES",
    "GeometryDegenerate",
    "AnchorSet",
    "Ranges",
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
# fewest anchors a fix needs: TDOA carries the range to anchor 1 as a fourth unknown
_FLOOR = {"toa": 4, "tdoa-main": 5, "tdoa-ring": 5}


class GeometryDegenerate(RuntimeError):
    """Anchor geometry cannot support a well-posed position solve."""


class Factor(NamedTuple):
    """Thin SVD ``a = U diag(s) V^T`` of a constant system matrix, as Python floats.

    ``ut`` holds the rows of ``U^T``, ``s`` the singular values in descending
    order and ``v`` the rows of ``V``.  ``fro2`` is ``sum s^2``
    (``||a||_F^2``) and ``inv2`` is ``sum 1/s^2`` (``||a^+||_F^2``).  Only a
    block that can give a fix is kept as a factor: its rank is full and its
    condition number at most ``COND_CEILING``.
    """

    ut: list
    s: list
    v: list
    fro2: float
    inv2: float


class PairList(NamedTuple):
    """One TDOA topology over an anchor set: the 0-based anchor indices of each pair, in topology order.

    Difference k is dist(anchor ``second[k]``) - dist(anchor ``first[k]``).
    """

    first: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class AnchorSet:
    """Fixed anchor positions in the inertial frame.

    Derived once here for the solvers: ``sq_norms`` (squared anchor norms),
    ``tdoa``, the :class:`PairList` of each TDOA topology (``tdoa-main``
    pairs ``(0, j)`` for j = 1..N-1, ``tdoa-ring`` pairs ``(j, j + 1)`` for
    j = 0..N-2 and the wraparound ``(N - 1, 0)``), ``factors``, the
    :class:`Factor` of each topology's position block (TOA's system ``h[1:]
    - h[0]``, a TDOA topology's rows ``h[first] - h[second]``), and
    ``unfixable``, the reason for each topology under which the set gives
    no fix: fewer anchors than its floor (4 for TOA, 5 for TDOA), or a
    position block of rank below 3 or condition number above
    ``COND_CEILING``.  ``factors`` holds a key for exactly the topologies
    ``unfixable`` does not; :func:`solve_fix`, the run configuration and
    dataset ingest all refuse the others with that one reason.  The
    ``tdoa-main`` position block is the TOA system negated, so it shares
    TOA's verdict and factor (``V`` negated).  Construction raises
    ValueError only on the anchors themselves (shape, non-finite or beyond
    ``ANCHOR_LIMIT``, closer than ``MIN_ANCHOR_SEPARATION``).  The checks
    and the squared norms run on Python floats; numpy only factors the two
    system matrices.  ``solvers`` holds the solver bound on the set's first
    solve under each topology.
    """

    anchors: np.ndarray
    sq_norms: list = field(init=False, repr=False, compare=False)
    tdoa: dict[str, PairList] = field(init=False, repr=False, compare=False)
    factors: dict[str, Factor] = field(init=False, repr=False, compare=False)
    unfixable: dict[str, str] = field(init=False, repr=False, compare=False)
    solvers: dict = field(init=False, repr=False, compare=False)

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
        ring_second = np.concatenate((ids[1:], ids[:1]))
        factors, why = {}, {}
        for topology in TOPOLOGIES:
            if n < _FLOOR[topology]:
                why[topology] = f"need at least {_FLOOR[topology]} anchors, got {n}"
            elif topology == "tdoa-main" and "toa" in why:  # the TOA system negated: TOA's verdict
                why[topology] = why["toa"]
            elif topology == "tdoa-main":  # and TOA's factor, with V negated
                factors[topology] = factors["toa"]._replace(v=[[-x for x in row] for row in factors["toa"].v])
            else:
                try:
                    factors[topology] = _factor(a[1:] - a[0] if topology == "toa" else a - a[ring_second])
                except GeometryDegenerate as err:
                    why[topology] = str(err)
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "sq_norms", [x * x + y * y + z * z for x, y, z in rows])
        object.__setattr__(self, "tdoa", {
            "tdoa-main": PairList(np.zeros(n - 1, dtype=int), ids[1:]), "tdoa-ring": PairList(ids, ring_second),
        })
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "unfixable", {t: f"anchors give no {t} fix: {w}" for t, w in why.items()})
        object.__setattr__(self, "solvers", {})

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
        raise ValueError("range differences must be finite")


def _range_block(p: np.ndarray, anchors: AnchorSet, topology: str) -> np.ndarray:
    """Noise-free ranges (``toa``) or range differences for tag positions ``(..., 3)``."""
    d = np.linalg.norm(anchors.anchors - p[..., None, :], axis=-1)
    if topology == "toa":
        return d
    if topology not in anchors.tdoa:
        raise ValueError(f"unknown TDOA topology {topology!r}")
    pairs = anchors.tdoa[topology]
    return d[..., pairs.second] - d[..., pairs.first]


def _factor(a: np.ndarray) -> Factor:
    """The :class:`Factor` of a position block ``a``, from one ``numpy.linalg.svd``.

    GeometryDegenerate if its rank is below 3 or ``sqrt(fro2 inv2)`` above ``COND_CEILING``.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = s.tolist()
    tol = s[0] * max(a.shape) * _EPS
    rank = sum(x > tol for x in s)
    if rank < 3:
        raise GeometryDegenerate(f"system rank {rank} below 3 unknowns")
    fro2, inv2 = sum(x * x for x in s), sum(1.0 / (x * x) for x in s)
    _check_condition(math.sqrt(fro2 * inv2))
    return Factor(u.T.tolist(), s, vt.T.tolist(), fro2, inv2)


def _check_condition(cond: float) -> None:
    """Raise unless ``cond`` is at or below ``COND_CEILING``; ``not cond <= COND_CEILING`` also rejects NaN.

    Raises
    ------
    GeometryDegenerate
        If the condition number exceeds ``COND_CEILING``.
    """
    if not cond <= COND_CEILING:
        raise GeometryDegenerate(f"condition number {cond:.3g} above ceiling {COND_CEILING:.3g}")


def _source(topology: str, rows: int) -> str:
    """Source of the straight-line solver factory for ``rows`` system rows under ``topology``.

    The factory binds a set's factor entries (squared anchor norms: ``h``,
    or each pair's ``f`` and ``g``; ``U^T``, ``s``, ``V``, ``fro2``, ``inv2``)
    into the solver: the TOA or TDOA passes of :func:`solve_fix`, rows
    written out.  The ring's first row adds no ``2 d_1 c_1`` (``c_1 =
    0.0``) and its partial sum starts at ``d_1``, not ``0.0 + d_1``: each
    could only flip the sign of a zero added to a value that is never -0.0.
    """
    toa, ring, k = topology == "toa", topology == "tdoa-ring", range(rows)
    norms = [f"h{i}" for i in range(rows + 1)] if toa else [f"f{i}" for i in k] + [f"g{i}" for i in k]
    params = [*norms, *(f"u{j}_{i}" for j in range(3) for i in k), "s0", "s1", "s2",
              *(f"v{j}{i}" for j in range(3) for i in range(3)), "fro2", "inv2"]
    d, b = [f"d{i}" for i in range(rows + toa)], [f"b{i}" for i in k]

    def dot(j, xs):  # row j of U^T times the column xs
        return " + ".join(["0.0", *(f"u{j}_{i} * {x}" for i, x in zip(k, xs))])

    if toa:  # row i: (d_1^2 - d_i^2 + |h_i|^2 - |h_1|^2) / 2 over the anchors after the first
        body = ["e0 = d0 * d0", *(f"b{i} = 0.5 * (e0 - d{i + 1} * d{i + 1} + h{i + 1} - h0)" for i in k)]
        body += [f"q{j} = ({dot(j, b)}) / s{j}" for j in range(3)]
    else:  # row i: (d_i^2 + |h_first|^2 - |h_second|^2 + 2 d_i c_i) / 2, the partial sum c_i on the ring only
        body = []
        for i in k:
            body.append(f"b{i} = 0.5 * (d{i} * d{i} + f{i} - g{i}" + (f" + 2.0 * d{i} * c{i})" if ring and i else ")"))
            if ring and i + 1 < rows:
                body.append(f"c{i + 1} = " + (f"c{i} + d{i}" if i else "d0"))
        body += [f"z{j} = {dot(j, d)}" for j in range(3)] + [f"y{j} = {dot(j, b)}" for j in range(3)]
        body += [f"r{i} = d{i} - (u0_{i} * z0 + u1_{i} * z1 + u2_{i} * z2)" for i in k]
        body += ["beta2 = " + " + ".join(f"r{i} * r{i}" for i in k),  # r_i^2 is never -0.0: no 0.0 start needed
                 "rb = " + " + ".join(["0.0", *(f"r{i} * b{i}" for i in k)]),
                 f"if not math.isfinite({' + '.join(b)} + beta2):",
                 "    raise ValueError('position solve overflowed: ranges too large')",
                 "total = fro2 + (z0 * z0 + z1 * z1 + z2 * z2) + beta2",
                 "if not beta2 > total * tol * tol:  # the block has rank 3: the measured column must add the fourth",
                 "    raise GeometryDegenerate('system rank 3 below 4 unknowns')",
                 "w0, w1, w2 = z0 / s0, z1 / s1, z2 / s2",
                 "cond = math.sqrt(total * (inv2 + (w0 * w0 + w1 * w1 + w2 * w2 + 1.0) / beta2))",
                 "if not cond <= COND_CEILING:",
                 "    _check_condition(cond)",
                 "aux = -rb / beta2",
                 *(f"q{j} = (y{j} + aux * z{j}) / s{j}" for j in range(3))]
    body += [*(f"x{j} = v{j}0 * q0 + v{j}1 * q1 + v{j}2 * q2" for j in range(3)),
             "if not math.isfinite(x0 + x1 + x2):",
             "    raise ValueError('position solve overflowed: ranges too large')",
             "return x0, x1, x2"]
    return "\n".join([
        f"def factory({', '.join(params)}):",
        *([] if toa else [f"    tol = {rows} * _EPS"]),
        "    def solve(d):",
        "        try:",
        f"            {', '.join(d)}, = d",
        "        except ValueError:",
        f"            raise ValueError('{'range' if toa else 'difference'} count does not match anchor count')"
        " from None",
        *(f"        {line}" for line in body),
        "    return solve",
    ]) + "\n"


@functools.cache
def _factory(topology: str, rows: int):
    """The factory :func:`_source` writes, compiled once per process in this module's globals, which a solver reads."""
    namespace: dict = {}
    exec(compile(_source(topology, rows), f"<uwb {topology} solver, {rows} rows>", "exec"), globals(), namespace)
    return namespace["factory"]


def _solver(anchors: AnchorSet, topology: str):
    """The anchor set's solver under ``topology``, bound on its first solve; GeometryDegenerate if ``unfixable``."""
    solvers = anchors.solvers
    if topology not in solvers:
        if topology in anchors.unfixable:
            raise GeometryDegenerate(anchors.unfixable[topology])
        f, h = anchors.factors[topology], anchors.sq_norms
        norms = h if topology == "toa" else [h[i] for side in anchors.tdoa[topology] for i in side]
        (u0, u1, u2), (v0, v1, v2) = f.ut, f.v
        solvers[topology] = _factory(topology, len(u0))(*norms, *u0, *u1, *u2, *f.s, *v0, *v1, *v2, f.fro2, f.inv2)
    return solvers[topology]


def solve_fix(anchors: AnchorSet, obs: Ranges) -> tuple[float, float, float]:
    """The fix position from one ranging epoch under its own topology, as a float 3-tuple.

    TOA: differencing the squared-range identity ``d_i^2 = ||h_i||^2 +
    ||p||^2 - 2 h_i . p`` against anchor 1 cancels ``||p||^2`` and leaves
    the rows ``(h_i - h_1) . p = (d_1^2 - d_i^2 + ||h_i||^2 - ||h_1||^2) /
    2``, whose matrix is the anchor set's: a solve reuses its factor
    (``anchors.factors["toa"]``), checked once, and only forms ``b``.

    TDOA: for pair (i, j) with difference ``d = dist_j - dist_i``, squaring
    ``dist_j = d + dist_i`` gives the row ``(h_i - h_j) . p - d * dist_i =
    (d^2 + ||h_i||^2 - ||h_j||^2) / 2``.  The unknowns are stacked as ``[p,
    dist_1]``.  Under ``tdoa-main`` every pair starts at anchor 1, so
    ``dist_i`` is ``dist_1``.  Ring differences telescope: ``dist_i`` is
    ``dist_1`` plus the partial sum ``c_i`` of the differences before pair
    i, which adds ``d c_i`` to the row's right-hand side (zero for the first
    pair; the wraparound pair closes the ring with ``c_N``).  The solve is
    the rank-one update of the module notes on the factored position block.

    Raises
    ------
    GeometryDegenerate
        With the anchor set's ``unfixable`` reason, or, under TDOA, if the
        system with the measured column has rank below 4 or conditioning
        above ``COND_CEILING``.  It has 4 unknowns; ``tdoa-main`` has ``N -
        1`` rows, and the ring rows sum to zero by telescoping, so the ring
        system rank is at most ``N - 1`` too.
    ValueError
        If the range or difference count does not match the anchor count,
        or the solve overflows: the fix, or under TDOA ``b`` and ``beta^2``,
        hold a value that is not finite or sum past the float range.
    """
    return _solver(anchors, obs.topology)(obs.values)
