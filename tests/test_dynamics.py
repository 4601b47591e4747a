import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracklink.dynamics as dynamics
from tracklink.dynamics import (
    SHORT_TRACKLET_SIMILARITY,
    build_hankel,
    estimate_rank,
    hankel_columns,
    interpolate_gap,
    motion_similarity,
)
from tracklink.model import RunConfig

from conftest import line_tracklet, make_tracklet
from oracles import reference_hankel, reference_joint_centers, reference_motion_similarity

TAU = 0.01


def seq(points):
    return np.array(points, dtype=float)


def line_points(n, origin=(60.0, 400.0), velocity=(8.0, -5.0)):
    return [(origin[0] + velocity[0] * i, origin[1] + velocity[1] * i) for i in range(n)]


def quad_points(n, coeffs=((3.0, -40.0, 200.0), (-2.5, 50.0, 40.0))):
    (ax, bx, cx), (ay, by, cy) = coeffs
    return [(ax * t * t + bx * t + cx, ay * t * t + by * t + cy) for t in range(1, n + 1)]


class TestHankelShape:
    def test_columns_formula_l9(self):
        assert hankel_columns(9) == 7

    def test_columns_formula_l10(self):
        assert hankel_columns(10) == 7

    def test_matrix_shape(self):
        h = build_hankel(seq(line_points(9)))
        assert h.shape == (2 * (9 - 7 + 1), 7)

    def test_constant_sequence_columns_identical(self):
        h = build_hankel(seq([(5.0, 5.0)] * 8))
        assert np.all(h == h[:, :1])

    def test_anti_diagonal_block_structure(self):
        # explicit layout on a line and on random sequences of length 3-40
        rng = np.random.default_rng(11)
        sequences = [line_points(9)] + [
            [tuple(p) for p in rng.normal(0.0, 100.0, size=(length, 2)).tolist()]
            for length in range(3, 41)
        ]
        for pts in sequences:
            h = build_hankel(seq(pts))
            n = hankel_columns(len(pts))
            block_rows = len(pts) - n + 1
            assert h.shape == (2 * block_rows, n)
            expected = np.empty((2 * block_rows, n))
            for i in range(block_rows):
                for j in range(n):
                    expected[2 * i, j], expected[2 * i + 1, j] = pts[i + j]
            assert h.flags.c_contiguous
            assert np.array_equal(h, expected)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_hankel(seq([(1.0, 1.0), (2.0, 2.0)]))


class TestRank:
    def test_constant_rank_1(self):
        assert estimate_rank(build_hankel(seq([(5.0, 5.0)] * 9)), TAU) == 1

    def test_constant_velocity_rank_2(self):
        assert estimate_rank(build_hankel(seq([(t, 2.0 * t) for t in range(1, 13)])), TAU) == 2

    def test_quadratic_rank_3(self):
        assert estimate_rank(build_hankel(seq(quad_points(12))), TAU) == 3

    def test_zero_matrix_rank_0(self):
        assert estimate_rank(build_hankel(seq([(0.0, 0.0)] * 6)), TAU) == 0

    def test_noisy_constant_velocity_monte_carlo(self):
        hits = 0
        for sd in range(100):
            rng = np.random.default_rng(sd)
            pts = [
                (10.0 * t + 50.0 + rng.normal(0, 0.5), 20.0 * t + 30.0 + rng.normal(0, 0.5))
                for t in range(1, 13)
            ]
            hits += estimate_rank(build_hankel(seq(pts)), TAU) == 2
        assert hits >= 90

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            estimate_rank(build_hankel(seq(line_points(6))), 0.0)


class TestInterpolateGap:
    def test_midpoint(self):
        a = make_tracklet(1, 1, centers=[(-2.0, -2.0), (-1.0, -1.0), (0.0, 0.0)])
        b = make_tracklet(2, 5, centers=[(4.0, 4.0), (5.0, 5.0)])
        joint = interpolate_gap(a, b)
        assert joint[2].tolist() == [0.0, 0.0]
        assert joint[3].tolist() == [2.0, 2.0]  # the single gap frame
        assert joint.shape == (b.end - a.start + 1, 2)

    def test_adjacent_concatenates(self):
        a = make_tracklet(1, 1, centers=[(0.0, 0.0), (1.0, 0.0)])
        b = make_tracklet(2, 3, centers=[(2.0, 0.0), (3.0, 0.0)])
        joint = interpolate_gap(a, b)
        assert joint.tolist() == [[0, 0], [1, 0], [2, 0], [3, 0]]

    def test_three_gap_affine_steps(self):
        a = make_tracklet(1, 1, centers=[(-1.0, 0.0), (0.0, 0.0)])
        b = make_tracklet(2, 6, centers=[(8.0, 0.0), (9.0, 0.0)])
        joint = interpolate_gap(a, b)
        assert joint[2:5].tolist() == [[2.0, 0.0], [4.0, 0.0], [6.0, 0.0]]

    def test_ordering_violation(self):
        a = make_tracklet(1, 1, length=5)
        b = make_tracklet(2, 3, length=5)
        with pytest.raises(ValueError):
            interpolate_gap(a, b)


class TestMotionSimilarity:
    def test_split_constant_velocity_is_one(self):
        pts = line_points(24, origin=(50.0, 30.0), velocity=(10.0, 20.0))
        a = make_tracklet(1, 1, centers=pts[:12])
        b = make_tracklet(2, 13, centers=pts[12:])
        assert motion_similarity(a, b, TAU) == pytest.approx(1.0)

    def test_independent_lines_near_zero(self):
        a = make_tracklet(1, 1, centers=line_points(12, (50.0, 30.0), (10.0, 20.0)))
        b = make_tracklet(2, 16, centers=line_points(12, (300.0, 200.0), (-8.0, 15.0)))
        assert motion_similarity(a, b, TAU) <= 0.1

    def test_pair_that_does_not_go_forward_raises(self):
        # short tracklets too, which take the fallback when b is after a
        for length in (1, 2, 10):
            a = make_tracklet(1, 1, length=length)
            for b in (make_tracklet(2, a.end, length=10), make_tracklet(3, 1, length=length)):
                with pytest.raises(ValueError, match="needs b after a"):
                    motion_similarity(a, b, TAU)

    def test_short_tracklet_fallback(self):
        a = make_tracklet(1, 1, centers=[(0.0, 0.0), (1.0, 1.0)])
        b = make_tracklet(2, 10, centers=line_points(8))
        assert motion_similarity(a, b, TAU) == SHORT_TRACKLET_SIMILARITY

    def test_translation_invariance(self):
        # fixed configurations inside the numeric operating regime: the
        # relative-tau rank saturates when motion is tiny against the
        # position magnitude, so slopes stay >= 5 px/frame here
        cases = [
            ((60.0, 90.0), (8.0, -5.0), (40.0, 60.0)),
            ((45.0, 120.0), (-7.0, 9.0), (55.0, 12.0)),
            ((100.0, 50.0), (6.0, 11.0), (25.0, 48.0)),
        ]
        for origin, v, (dx, dy) in cases:
            pts = line_points(24, origin, v)
            a = make_tracklet(1, 1, centers=pts[:12])
            b = make_tracklet(2, 15, centers=pts[14:])
            base = motion_similarity(a, b, TAU)
            a2 = make_tracklet(1, 1, centers=[(x + dx, y + dy) for x, y in pts[:12]])
            b2 = make_tracklet(2, 15, centers=[(x + dx, y + dy) for x, y in pts[14:]])
            assert motion_similarity(a2, b2, TAU) == base == 1.0

    def test_scale_invariance(self):
        pts = line_points(20, (60.0, 400.0), (8.0, -5.0))
        a = make_tracklet(1, 1, centers=pts[:10])
        b = make_tracklet(2, 12, centers=pts[11:])
        base = motion_similarity(a, b, TAU)
        for c in (0.25, 4.0):
            a2 = make_tracklet(1, 1, centers=[(c * x, c * y) for x, y in pts[:10]])
            b2 = make_tracklet(2, 12, centers=[(c * x, c * y) for x, y in pts[11:]])
            assert motion_similarity(a2, b2, TAU) == base

    def test_interior_splits_of_line_give_one(self):
        pts = line_points(20, (60.0, 90.0), (8.0, -5.0))
        for cut in range(6, 15):
            a = make_tracklet(1, 1, centers=pts[:cut])
            b = make_tracklet(2, cut + 1, centers=pts[cut:])
            assert motion_similarity(a, b, TAU) == pytest.approx(1.0), f"cut={cut}"

    def test_quadratic_split_gives_one(self):
        # vertex centered in the window keeps the curvature singular
        # value above tau in both halves
        pts = quad_points(24, coeffs=((3.0, -72.0, 500.0), (-2.5, 60.0, 40.0)))
        a = make_tracklet(1, 1, centers=pts[:12])
        b = make_tracklet(2, 13, centers=pts[12:])
        assert motion_similarity(a, b, TAU) == pytest.approx(1.0)

    def test_upper_bound_with_noise(self):
        violations = 0
        for sd in range(50):
            rng = np.random.default_rng(sd)
            pts = [
                (10.0 * t + 50 + rng.normal(0, 0.5), 20.0 * t + 30 + rng.normal(0, 0.5))
                for t in range(1, 25)
            ]
            a = make_tracklet(1, 1, centers=pts[:12])
            b = make_tracklet(2, 13, centers=pts[12:])
            if motion_similarity(a, b, TAU) > 1.05:
                violations += 1
        assert violations == 0


def _centers(kind, length, rng):
    """A center sequence of one of the shapes the motion cue meets."""
    if kind == "zero":
        return np.zeros((length, 2))
    if kind == "constant":
        return np.tile(rng.uniform(0.0, 640.0, 2), (length, 1))
    if kind == "grid":
        return rng.integers(0, 640, (length, 2)).astype(float)
    t = np.arange(length)[:, None]
    path = rng.uniform(0.0, 640.0, 2) + rng.uniform(-9.0, 9.0, 2) * t
    path += rng.uniform(-0.2, 0.2, 2) * t**2
    return path + rng.normal(0.0, 0.5, (length, 2))


_KINDS = st.sampled_from(["noisy", "grid", "constant", "zero"])


class TestReferenceEquivalence:
    """motion_similarity equals the three-SVD tuple path in ``oracles``
    exactly, the 0.5 fallback included, and raises on a pair that
    overlaps; the joint sequence and its Hankel matrix equal the
    reference's bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        len_a=st.integers(1, 40),
        len_b=st.integers(1, 40),
        offset=st.integers(-6, 25),  # b.start - a.end - 1; below 0 overlaps
        kind_a=_KINDS,
        kind_b=_KINDS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, len_a, len_b, offset, kind_a, kind_b, seed):
        rng = np.random.default_rng(seed)
        a = make_tracklet(1, 30, centers=_centers(kind_a, len_a, rng).tolist())
        b = make_tracklet(2, a.end + 1 + offset, centers=_centers(kind_b, len_b, rng).tolist())
        if offset < 0:
            with pytest.raises(ValueError):
                motion_similarity(a, b, TAU)
            return
        joint = interpolate_gap(a, b)
        assert joint.tolist() == [list(p) for p in reference_joint_centers(a, b)]
        if len(joint) >= 3:
            assert np.array_equal(build_hankel(joint), reference_hankel(joint.tolist()))
        for tau in (TAU, 0.1, TAU):  # a second tolerance, then the memo again
            got = motion_similarity(a, b, tau)
            assert got == reference_motion_similarity(a, b, tau)
            if min(len_a, len_b) < 3 or kind_a == kind_b == "zero":
                assert got == SHORT_TRACKLET_SIMILARITY

    def test_own_rank_estimated_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            dynamics, "estimate_rank", lambda h, tau: calls.append(h) or 1
        )
        a = line_tracklet(1, 1, 10)
        later = [line_tracklet(k, 12 + k, 10) for k in range(2, 6)]
        for b in later:
            motion_similarity(a, b, TAU)
        # a once, each b once, one joint rank per pair
        assert len(calls) == 1 + 2 * len(later)
        motion_similarity(a, later[0], TAU)
        assert len(calls) == 2 + 2 * len(later)

    def test_center_array_read_only(self):
        t = line_tracklet(1, 1, 5)
        assert t.center_array.shape == (5, 2)
        assert t.center_array.tolist() == [list(d.center) for d in t.detections]
        with pytest.raises(ValueError):
            t.center_array[0, 0] = 0.0
