import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    near_coplanar_anchors,
    ranges_of,
    tdoa_ranges,
    tdoa_solve_loop,
    tdoa_solve_main_bs,
    tdoa_solve_ring,
    toa_ranges,
    toa_solve_loop,
    toa_solve_per_call,
)
from uwbnav import uwb
from uwbnav.harness import default_anchors


def box_anchors(scale=4.0, jitter=None):
    """Eight anchors near the corners of a box, well spread."""
    corners = np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (0.1, 1)], dtype=float
    )
    a = corners * np.array([scale, scale, 3.0])
    if jitter is not None:
        a = a + jitter
    return uwb.AnchorSet(anchors=a)


def frobenius_condition(a):
    """``||a||_F ||a^+||_F``, from the pseudo-inverse."""
    return float(np.linalg.norm(a) * np.linalg.norm(np.linalg.pinv(a)))


@pytest.fixture
def anchors():
    return box_anchors()


coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
point = st.tuples(coord, coord, coord).map(np.array)


class TestAnchorSet:
    def test_rejects_coincident_anchors(self):
        a = np.zeros((4, 3))
        a[1] = [1, 0, 0]
        a[2] = [0, 1, 0]
        a[3] = [1e-9, 0, 0]
        with pytest.raises(ValueError):
            uwb.AnchorSet(anchors=a)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            uwb.AnchorSet(anchors=np.zeros((4, 2)))

    @pytest.mark.parametrize(
        "anchors",
        [
            default_anchors(),
            box_anchors(),
            uwb.AnchorSet(anchors=box_anchors().anchors[:3]),
            uwb.AnchorSet(anchors=box_anchors().anchors[:4]),
            uwb.AnchorSet(anchors=np.array([[float(i), 0.0, 0.0] for i in range(5)])),
            near_coplanar_anchors(),
        ],
        ids=["room", "box", "toa-floor", "tdoa-floor", "rank", "ceiling"],
    )
    def test_factor_table_keys_the_fixable_topologies(self, anchors):
        # one factor per topology that can give a fix; tdoa-main's block is the TOA system negated
        assert set(anchors.factors) == set(uwb.TOPOLOGIES) - set(anchors.unfixable)
        if "tdoa-main" in anchors.factors:  # the same ut, s, fro2 and inv2
            toa = anchors.factors["toa"]
            assert anchors.factors["tdoa-main"] == toa._replace(v=[[-x for x in row] for row in toa.v])


@pytest.mark.filterwarnings("error")
class TestOverflowingAnchors:
    # finite anchors whose squares overflow float64 are refused by name,
    # before numpy warns, instead of building a rank-deficient factor
    @pytest.mark.parametrize("magnitude", [1e155, -1e200, 1e308])
    def test_named_error_without_warning(self, magnitude):
        a = box_anchors().anchors.copy()
        a[3, 1] = magnitude
        with pytest.raises(ValueError, match="anchors must lie within .* of the origin"):
            uwb.AnchorSet(anchors=a)

    def test_largest_accepted_anchors_build_finite_factors(self):
        a = box_anchors().anchors / 4.0 * uwb.ANCHOR_LIMIT
        anchors = uwb.AnchorSet(anchors=a)
        values = anchors.sq_norms + [x for f in anchors.factors.values() for x in (*f.s, f.fro2, f.inv2)]
        assert np.all(np.isfinite(values))
        assert anchors.unfixable == {}  # every stored factor has full rank


class TestForwardRanges:
    def test_toa_matches_direct_norms(self, anchors, rng):
        p = rng.uniform(-2, 2, size=3)
        d = np.array(toa_ranges(p, anchors).values)
        for i in range(len(anchors)):
            assert d[i] == pytest.approx(np.linalg.norm(anchors.anchors[i] - p))

    def test_main_bs_differences(self, anchors, rng):
        p = rng.uniform(-2, 2, size=3)
        d = np.array(toa_ranges(p, anchors).values)
        diffs = np.array(tdoa_ranges(p, anchors, "tdoa-main").values)
        assert diffs == pytest.approx(d[1:] - d[0])

    def test_ring_differences_telescope_to_zero(self, anchors, rng):
        p = rng.uniform(-2, 2, size=3)
        diffs = np.array(tdoa_ranges(p, anchors, "tdoa-ring").values)
        assert len(diffs) == len(anchors)
        assert diffs.sum() == pytest.approx(0.0, abs=1e-12)


@given(point, point)
def test_squared_range_identity(p, h):
    # d^2 == ||h||^2 + ||p||^2 - 2 h.p
    d2 = np.linalg.norm(p - h) ** 2
    assert d2 == pytest.approx(h @ h + p @ p - 2.0 * h @ p, abs=1e-10)


@given(point, point, point)
def test_difference_identity(p, hi, hj):
    # the row identity used by the TDOA solvers, with d the difference
    # dist(hj) - dist(hi)
    di = np.linalg.norm(p - hi)
    dj = np.linalg.norm(p - hj)
    d = dj - di
    lhs = 0.5 * (d * d + hi @ hi - hj @ hj)
    rhs = (hi - hj) @ p - d * di
    assert lhs == pytest.approx(rhs, abs=1e-10)


class TestToaSolve:
    def test_recovers_position(self, anchors, rng):
        for _ in range(50):
            p = rng.uniform(-3, 3, size=3)
            fix = uwb.solve_fix(anchors, toa_ranges(p, anchors))
            assert np.linalg.norm(np.subtract(fix, p)) < 1e-9

    def test_matches_lstsq_oracle(self, anchors, rng):
        p = rng.uniform(-3, 3, size=3)
        d = np.array(toa_ranges(p, anchors).values)
        h = anchors.anchors
        a_rows, b_rows = [], []
        for i in range(1, len(anchors)):
            a_rows.append(h[i] - h[0])
            b_rows.append(0.5 * (d[0] ** 2 - d[i] ** 2 + h[i] @ h[i] - h[0] @ h[0]))
        ref, *_ = np.linalg.lstsq(np.array(a_rows), np.array(b_rows), rcond=None)
        fix = uwb.solve_fix(anchors, ranges_of("toa", d))
        assert np.allclose(fix, ref, atol=1e-10)

    def test_translation_equivariance(self, rng):
        shift = rng.uniform(-5, 5, size=3)
        base = box_anchors()
        moved = uwb.AnchorSet(anchors=base.anchors + shift)
        p = rng.uniform(-2, 2, size=3)
        fix = uwb.solve_fix(moved, toa_ranges(p + shift, moved))
        assert np.allclose(fix, p + shift, atol=1e-9)

    def test_too_few_anchors(self):
        three = uwb.AnchorSet(anchors=np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0.0]]))
        with pytest.raises(uwb.GeometryDegenerate):
            uwb.solve_fix(three, ranges_of("toa", np.ones(3)))

    def test_collinear_anchors_degenerate(self):
        line = uwb.AnchorSet(anchors=np.array([[float(i), 0, 0] for i in range(5)]))
        d = toa_ranges(np.array([1.0, 1.0, 1.0]), line)
        with pytest.raises(uwb.GeometryDegenerate):
            uwb.solve_fix(line, d)

    @pytest.mark.parametrize("topology", uwb.TOPOLOGIES)
    def test_geometry_check_rejects_what_no_solve_accepts(self, rng, topology):
        # a TDOA solve's condition number is at least its position block's, so
        # a block above the ceiling fails every solve, as TOA's constant system does
        flat = near_coplanar_anchors()
        assert "above ceiling" in flat.unfixable[topology]
        for p in rng.uniform(-3, 3, size=(20, 3)):
            obs = toa_ranges(p, flat) if topology == "toa" else tdoa_ranges(p, flat, topology)
            with pytest.raises(uwb.GeometryDegenerate):
                uwb.solve_fix(flat, obs)
        assert topology not in box_anchors().unfixable

    def test_condition_ceiling_enforced(self, rng):
        flat = near_coplanar_anchors()
        d = toa_ranges(rng.uniform(-2, 2, size=3), flat)
        with pytest.raises(uwb.GeometryDegenerate, match=r"condition number .* above ceiling 1e\+08"):
            uwb.solve_fix(flat, d)


def _outcome(solve, *args):
    """A solve's fix position as an array, checked to be a float 3-tuple, or the message it raised GeometryDegenerate with."""
    try:
        fix = solve(*args)
    except uwb.GeometryDegenerate as err:
        return str(err)
    assert type(fix) is tuple and len(fix) == 3 and all(type(x) is float for x in fix), fix
    return np.array(fix)


def _assert_same_outcome(got, ref):
    if isinstance(ref, str):
        assert got == ref
        return
    assert np.array_equal(got, ref)


def _assert_close_outcome(got, ref, anchors, obs):
    """The same error message, or positions agreeing to round-off: ``1e-10 kappa max(1, |p|)``, with kappa the
    Frobenius condition number of the system solved."""
    if isinstance(ref, str):
        assert got == ref
        return
    tol = 1e-10 * frobenius_condition(_system(anchors, obs)) * max(1.0, float(np.linalg.norm(ref)))
    assert np.abs(got - ref).max() <= tol


class TestFactoredToaSolve:
    # the anchor set factors the constant TOA system once; every solve must
    # equal a fresh per-call factorization bit for bit, errors included

    def test_matches_per_call_svd_bitwise(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 12))
            anchors = uwb.AnchorSet(anchors=rng.uniform(-6.0, 6.0, size=(n, 3)))
            p = rng.uniform(-4.0, 4.0, size=3)
            obs = ranges_of("toa", np.abs(np.array(toa_ranges(p, anchors).values) + rng.normal(0.0, 0.05, n)))
            _assert_same_outcome(_outcome(uwb.solve_fix, anchors, obs), _outcome(toa_solve_per_call, anchors, obs))

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[float(i), 0.0, 0.0] for i in range(5)], "anchors give no toa fix: system rank 1 below 3 unknowns"),
            ([[0, 0, 0], [4, 0, 0], [0, 4, 0.0]], "anchors give no toa fix: need at least 4 anchors, got 3"),
            (near_coplanar_anchors().anchors, "anchors give no toa fix: condition number 1.09e+10 above ceiling 1e+08"),
        ],
        ids=["collinear", "too-few", "ceiling"],
    )
    def test_degenerate_sets_construct_then_raise_at_solve(self, points, message):
        anchors = uwb.AnchorSet(anchors=np.array(points, dtype=float))
        obs = ranges_of("toa", np.ones(len(anchors)))
        assert _outcome(toa_solve_per_call, anchors, obs) == message
        assert _outcome(uwb.solve_fix, anchors, obs) == message


class TestPairListSolve:
    # one rank-one solve over the topology's pair list must match the
    # dedicated per-topology solvers of tests/reference.py, which factor the
    # whole 4-column system per call, outcome for outcome (errors with their
    # messages) and to round-off in value: counts start below the anchor
    # floor, and of every four sets one puts the tag on anchor 1 (a negative
    # least-squares range to it for some draws), one is coplanar (rank
    # deficient) and one near-coplanar (condition gate); the floor, rank
    # and condition refusals are the anchor set's, made on the position block

    @pytest.mark.parametrize("topology", ["tdoa-main", "tdoa-ring"])
    def test_matches_dedicated_solvers(self, rng, topology):
        oracle = tdoa_solve_main_bs if topology == "tdoa-main" else tdoa_solve_ring
        seen = set()
        for k in range(300):
            n = int(rng.integers(3, 12))
            points = rng.uniform(-6.0, 6.0, size=(n, 3))
            if k % 4 == 2:
                points[:, 2] = 1.5
            elif k % 4 == 3:
                points[:, 2] = 1.5 + 1e-9 * rng.standard_normal(n)
            anchors = uwb.AnchorSet(anchors=points)
            tag = points[0] + 1e-4 if k % 4 == 1 else rng.uniform(-4.0, 4.0, size=3)
            clean = np.array(tdoa_ranges(tag, anchors, topology).values)
            obs = ranges_of(topology, clean + rng.normal(0.0, 0.05, clean.shape))
            ref = _outcome(oracle, anchors, obs)
            _assert_close_outcome(_outcome(uwb.solve_fix, anchors, obs), ref, anchors, obs)
            seen.add(ref.split(": ")[-1].split(" ")[0] if isinstance(ref, str) else "fix")
        assert seen == {"fix", "need", "system", "condition"}


def _system(anchors, obs):
    """The matrix of the linear system a solver solves for ``obs``: TOA rows ``h_i - h_1``, TDOA ``[h_first - h_second, -d]``."""
    h = anchors.anchors
    if obs.topology == "toa":
        return h[1:] - h[0]
    pairs = anchors.tdoa[obs.topology]
    return np.column_stack([h[pairs.first] - h[pairs.second], -np.array(obs.values)])


def _noisy_obs(anchors, topology, tag, rng):
    if topology == "toa":
        return ranges_of("toa", np.abs(np.array(toa_ranges(tag, anchors).values) + rng.normal(0.0, 0.05, len(anchors))))
    clean = np.array(tdoa_ranges(tag, anchors, topology).values)
    return ranges_of(topology, clean + rng.normal(0.0, 0.05, clean.shape))


class TestFrobeniusCondition:
    # every solver gates on kappa_F = ||A||_F ||A^+||_F of the system it
    # solves, TOA's from the anchor set's singular values, TDOA's in closed
    # form from the rank-one update of the position block, and returns no
    # copy of it: a ceiling set just above or below a value shows which
    # value the gate computed

    @pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
    def test_matches_pseudo_inverse(self, monkeypatch, rng, topology):
        # the anchor set reads the ceiling when it is built: a TOA refusal is its verdict
        verdict = "anchors give no toa fix: " if topology == "toa" else ""
        for _ in range(50):
            anchors = box_anchors(jitter=rng.normal(0.0, 0.5, (8, 3)))
            obs = _noisy_obs(anchors, topology, rng.uniform(-3.0, 3.0, 3), rng)
            kappa = frobenius_condition(_system(anchors, obs))
            monkeypatch.setattr(uwb, "COND_CEILING", kappa * (1.0 + 1e-9))
            assert isinstance(_outcome(uwb.solve_fix, uwb.AnchorSet(anchors=anchors.anchors), obs), np.ndarray)
            monkeypatch.setattr(uwb, "COND_CEILING", kappa * (1.0 - 1e-9))
            with pytest.raises(uwb.GeometryDegenerate, match=rf"^{verdict}condition number .* above ceiling"):
                uwb.solve_fix(uwb.AnchorSet(anchors=anchors.anchors), obs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 11), st.sampled_from(["toa", "tdoa-main", "tdoa-ring"]))
    def test_bracketed_by_two_norm_condition(self, seed, n, topology):
        # on k columns, kappa_2 <= kappa_F <= k kappa_2: the gate passes a
        # ceiling just above k kappa_2 and refuses one just below kappa_2
        rng = np.random.default_rng(seed)
        anchors = uwb.AnchorSet(anchors=rng.uniform(-6.0, 6.0, size=(n, 3)))
        obs = _noisy_obs(anchors, topology, rng.uniform(-4.0, 4.0, 3), rng)
        try:
            uwb.solve_fix(anchors, obs)
        except uwb.GeometryDegenerate:
            return
        a = _system(anchors, obs)
        kappa_2 = np.linalg.cond(a)
        # the anchor set reads the ceiling when it is built, so each is built under its patch
        with mock.patch.object(uwb, "COND_CEILING", a.shape[1] * kappa_2 * (1.0 + 1e-12)):
            uwb.solve_fix(uwb.AnchorSet(anchors=anchors.anchors), obs)
        with mock.patch.object(uwb, "COND_CEILING", kappa_2 * (1.0 - 1e-12)), pytest.raises(
            uwb.GeometryDegenerate, match="above ceiling"
        ):
            uwb.solve_fix(uwb.AnchorSet(anchors=anchors.anchors), obs)


class TestTdoaSolvers:
    @pytest.mark.parametrize("topology", ["tdoa-main", "tdoa-ring"])
    def test_recovers_position(self, anchors, rng, topology):
        for _ in range(50):
            p = rng.uniform(-3, 3, size=3)
            fix = uwb.solve_fix(anchors, tdoa_ranges(p, anchors, topology))
            assert np.linalg.norm(np.subtract(fix, p)) < 1e-8

    def test_topologies_agree_after_conversion(self, anchors, rng):
        p = rng.uniform(-3, 3, size=3)
        main = np.array(tdoa_ranges(p, anchors, "tdoa-main").values)
        # tdoa-ring differences from tdoa-main ones: consecutive subtraction plus
        # the wraparound back to anchor 1
        ring = np.empty(len(anchors))
        ring[0] = main[0]
        ring[1:-1] = main[1:] - main[:-1]
        ring[-1] = -main[-1]
        fix_m = uwb.solve_fix(anchors, ranges_of("tdoa-main", main))
        fix_r = uwb.solve_fix(anchors, ranges_of("tdoa-ring", ring))
        assert np.linalg.norm(np.subtract(fix_m, fix_r)) < 1e-6

    def test_ring_matches_lstsq_oracle(self, anchors, rng):
        p = rng.uniform(-3, 3, size=3)
        obs = tdoa_ranges(p, anchors, "tdoa-ring")
        h = anchors.anchors
        n = len(anchors)
        a_rows, b_rows, partial = [], [], 0.0
        for k in range(n):
            j = (k + 1) % n
            d = obs.values[k]
            a_rows.append(np.concatenate([h[k] - h[j], [-d]]))
            b_rows.append(0.5 * (d * d + h[k] @ h[k] - h[j] @ h[j] + 2.0 * d * partial))
            partial += d
        ref, *_ = np.linalg.lstsq(np.array(a_rows), np.array(b_rows), rcond=None)
        fix = uwb.solve_fix(anchors, obs)
        assert np.allclose(fix, ref[:3], atol=1e-9)

    def test_main_bs_needs_five_anchors(self):
        four = uwb.AnchorSet(
            anchors=np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4.0]])
        )
        obs = tdoa_ranges(np.ones(3), four, "tdoa-main")
        with pytest.raises(uwb.GeometryDegenerate):
            uwb.solve_fix(four, obs)

    def test_ring_rows_sum_to_zero(self, anchors, rng):
        # telescoping makes the ring rows linearly dependent, which is why
        # the solver demands one more anchor than the unknown count
        p = rng.uniform(-2, 2, size=3)
        obs = tdoa_ranges(p, anchors, "tdoa-ring")
        h = anchors.anchors
        nxt = np.roll(np.arange(len(anchors)), -1)
        a = np.hstack([h - h[nxt], -np.array(obs.values)[:, None]])
        assert np.abs(a.sum(axis=0)).max() < 1e-12

    def test_ring_rejects_four_anchors(self):
        four = uwb.AnchorSet(
            anchors=np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4.0]])
        )
        obs = tdoa_ranges(np.array([0.8, 1.1, 0.9]), four, "tdoa-ring")
        with pytest.raises(uwb.GeometryDegenerate):
            uwb.solve_fix(four, obs)

    def test_ring_works_with_five_anchors(self, rng):
        five = uwb.AnchorSet(
            anchors=np.array(
                [[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4.0], [4, 4, 2.0]]
            )
        )
        p = np.array([0.8, 1.1, 0.9])
        fix = uwb.solve_fix(five, tdoa_ranges(p, five, "tdoa-ring"))
        assert np.linalg.norm(np.subtract(fix, p)) < 1e-7

    @pytest.mark.parametrize("topology", ["tdoa-main", "tdoa-ring"])
    def test_condition_ceiling_enforced(self, rng, topology):
        flat = near_coplanar_anchors()
        obs = tdoa_ranges(rng.uniform(-2, 2, size=3), flat, topology)
        with pytest.raises(uwb.GeometryDegenerate, match=r"condition number .* above ceiling 1e\+08"):
            uwb.solve_fix(flat, obs)

    def test_solve_fix_dispatch(self, anchors, rng):
        p = rng.uniform(-2, 2, size=3)
        for obs in (
            toa_ranges(p, anchors),
            tdoa_ranges(p, anchors, "tdoa-main"),
            tdoa_ranges(p, anchors, "tdoa-ring"),
        ):
            fix = uwb.solve_fix(anchors, obs)
            assert np.linalg.norm(np.subtract(fix, p)) < 1e-8


@pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
def test_solvers_enforce_anchor_floor(topology):
    # every solver rejects one anchor below the anchor set's floor, with the
    # reason the run configuration and ingest refuse it with
    floor = uwb._FLOOR[topology]
    assert floor == (4 if topology == "toa" else 5)
    few = uwb.AnchorSet(anchors=box_anchors().anchors[: floor - 1])
    p = np.array([0.3, -0.2, 1.1])
    obs = tdoa_ranges(p, few, topology)
    reason = f"anchors give no {topology} fix: need at least {floor} anchors, got {floor - 1}"
    assert few.unfixable[topology] == reason
    with pytest.raises(uwb.GeometryDegenerate, match=f"^{reason}$"):
        uwb.solve_fix(few, obs)


@pytest.mark.filterwarnings("error")
class TestOverflowingRanges:
    # finite ranges whose squares overflow (or nearly overflow) float64:
    # each solver must refuse them by name or return a finite fix, never a
    # NaN or inf position, and must not warn on the way
    @pytest.mark.parametrize("magnitude", [1e150, 1e200])
    @pytest.mark.parametrize("topology", ["toa", "tdoa-main", "tdoa-ring"])
    def test_no_non_finite_fix(self, anchors, rng, topology, magnitude):
        p = rng.uniform(-2, 2, size=3)
        if topology == "toa":
            d = np.array(toa_ranges(p, anchors).values)
            d[0] = magnitude
            obs = ranges_of("toa", d)
        else:
            diffs = np.array(tdoa_ranges(p, anchors, topology).values)
            diffs[0] = magnitude
            obs = ranges_of(topology, diffs)
        if magnitude * magnitude == np.inf:
            with pytest.raises(ValueError, match="position solve overflowed: ranges too large"):
                uwb.solve_fix(anchors, obs)
            return
        try:
            fix = uwb.solve_fix(anchors, obs)
        except (ValueError, uwb.GeometryDegenerate):
            return
        assert np.all(np.isfinite(fix))


def _bits(solve, anchors, obs):
    """A solve's fix as the hex of each coordinate, or the type and message of its refusal."""
    try:
        fix = solve(anchors, obs)
    except (ValueError, uwb.GeometryDegenerate) as err:
        return type(err).__name__, str(err)
    assert type(fix) is tuple and all(type(x) is float for x in fix), fix
    return "fix", tuple(x.hex() for x in fix)


LOOP = {"toa": toa_solve_loop, "tdoa-main": tdoa_solve_loop, "tdoa-ring": tdoa_solve_loop}


class TestStraightLineSolvers:
    # the generated solvers write out the loop passes of tests/reference.py
    # row by row: every fix must carry the loop's bits, signed zeros
    # included, and every refusal its exception type and message

    def test_match_the_loop_oracle_bit_for_bit(self, rng):
        seen = Counter()
        for k in range(300):
            n = int(rng.integers(4, 13))
            points = rng.uniform(-6.0, 6.0, size=(n, 3))
            if k % 3 == 2:  # near-coplanar: unfixable below some spread, conditioned near the ceiling above it
                points[:, 2] = 1.5 + 10.0 ** rng.uniform(-9.0, -1.0) * rng.standard_normal(n)
            anchors = uwb.AnchorSet(anchors=points)
            tag = rng.uniform(-4.0, 4.0, 3)
            for topology in uwb.TOPOLOGIES:
                clean = np.array((toa_ranges(tag, anchors) if topology == "toa" else
                                  tdoa_ranges(tag, anchors, topology)).values)
                signed = clean.copy()
                signed[:: 2] = np.copysign(0.0, rng.standard_normal(len(clean[:: 2])))
                cases = [clean, np.abs(clean + rng.normal(0.0, 0.05, clean.shape)), np.zeros_like(clean), signed,
                         clean * 10.0 ** rng.uniform(150.0, 156.0), clean[1:]]
                for values in cases:
                    obs = ranges_of(topology, values)
                    # a ceiling patched after the set was built reaches its bound solver through uwb's globals
                    with mock.patch.object(uwb, "COND_CEILING", 1e3 if k % 2 else uwb.COND_CEILING):
                        got = _bits(uwb.solve_fix, anchors, obs)
                        assert got == _bits(LOOP[topology], anchors, obs), (k, topology, values)
                    seen[got[1].split(" ")[0] if got[0] != "fix" else "fix"] += 1
        # a fix, the unfixable verdict, rank 3, the ceiling, an overflow and a count mismatch
        assert set(seen) == {"fix", "anchors", "system", "condition", "position", "range", "difference"}, seen

    def test_one_compile_per_topology_and_row_count(self):
        before = uwb._factory.cache_info()
        sets = [box_anchors(jitter=np.full((8, 3), 0.01 * k)) for k in range(3)]
        assert all(anchors.solvers == {} for anchors in sets)  # nothing is bound when a set is built
        for anchors in sets:
            for topology in uwb.TOPOLOGIES:
                uwb.solve_fix(anchors, tdoa_ranges(np.array([0.3, 0.2, 1.0]), anchors, topology))
            assert set(anchors.solvers) == set(uwb.TOPOLOGIES)
        after = uwb._factory.cache_info()
        assert after.misses - before.misses <= 3 and after.hits - before.hits >= 6

    def test_nothing_compiled_on_import_or_load_config(self):
        config = Path(__file__).resolve().parent.parent / "configs" / "circle.yaml"
        code = (
            "import uwbnav.cli\n"
            "from uwbnav import uwb\n"
            "from uwbnav.harness import load_config\n"
            f"cfg = load_config({str(config)!r})\n"
            "print(uwb._factory.cache_info().currsize, cfg.anchor_set().solvers)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        assert out.split() == ["0", "{}"]

    def test_finite_rows_summing_past_the_float_range_are_an_overflow(self):
        # the one refusal the sum test adds: differences in the block's column space, each row's b finite, whose
        # b sum passes ~1.8e308 (the loop of finite checks let them through to a rank-3 refusal)
        anchors = box_anchors()
        f = anchors.factors["tdoa-main"]
        d = tuple((np.array(f.ut).T @ np.array([1.0, 0.5, 0.25]) * 10.0 ** 154.22).tolist())
        assert all(np.isfinite(0.5 * x * x) for x in d)
        with pytest.raises(ValueError, match="^position solve overflowed: ranges too large$"):
            uwb.solve_fix(anchors, ranges_of("tdoa-main", d))
