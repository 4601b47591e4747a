"""Motion-dynamics similarity from Hankel-matrix numerical rank.

A tracklet's center sequence is laid out as a block-Hankel matrix with
two-row (x, y) blocks; the numerical rank of that matrix estimates the
order of the autoregressive model generating the motion.  Two tracklets
moving under one shared model keep the joint rank equal to each part's
rank, driving the rank-ratio similarity to 1; unrelated motions inflate
the joint rank and drive it toward (or below) 0.

Each tracklet's own rank is estimated once and kept on the tracklet, so
a candidate link costs one SVD: the rank of its gap-filled joint
sequence.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from tracklink.model import Tracklet, gap_points

log = logging.getLogger(__name__)

# Similarity granted when a tracklet is too short to build a Hankel
# window; neutral between the same-dynamics (1) and unrelated (0) poles.
SHORT_TRACKLET_SIMILARITY = 0.5


def hankel_columns(length: int) -> int:
    return length - math.ceil(length / 3) + 1


def build_hankel(positions) -> np.ndarray:
    """Block-Hankel layout of a (length, 2) position sequence as a
    C-contiguous array: block row i, column j holds position i+j-2
    (1-based), x coordinate on the block's first row, y on the second."""
    positions = np.ascontiguousarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (length, 2), got {positions.shape}")
    length = len(positions)
    if length < 3:
        raise ValueError(f"need at least 3 positions for a Hankel window, got {length}")
    n = hankel_columns(length)
    block_rows = length - n + 1
    # over the contiguous (x, y) stream, row r = 2i + c starts at element r
    # and column j steps one position (two elements): entry (r, j) is
    # positions[i + j][c]
    item = positions.itemsize
    windows = np.ndarray(
        (2 * block_rows, n), dtype=float, buffer=positions, strides=(item, 2 * item)
    )
    return windows.copy()


def estimate_rank(matrix: np.ndarray, tau: float) -> int:
    """Numerical rank: singular values above tau times the largest."""
    if tau <= 0:
        raise ValueError("rank tolerance must be positive")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tau * sv[0]))


def own_rank(t: Tracklet, tau: float) -> int:
    """Hankel rank of t's own centers, estimated once per tolerance and
    kept in the tracklet's memo."""
    key = ("hankel_rank", tau)
    if key not in t.memo:
        t.memo[key] = estimate_rank(build_hankel(t.center_array), tau)
    return t.memo[key]


def interpolate_gap(a: Tracklet, b: Tracklet) -> np.ndarray:
    """Joint (length, 2) center array: a's centers, the gap frames
    linearly interpolated from a's last center to b's first, b's centers."""
    if b.start <= a.end:
        raise ValueError(
            f"interpolate_gap needs b after a (a.end={a.end}, b.start={b.start})"
        )
    filled = gap_points(a.center_array[-1], b.center_array[0], b.start - a.end - 1)
    return np.concatenate((a.center_array, filled, b.center_array))


def motion_similarity(a: Tracklet, b: Tracklet, tau: float) -> float:
    """Rank-ratio motion similarity of linking a -> b.

    Raises ValueError unless b starts after a ends (``interpolate_gap``).
    Tracklets too short for a Hankel window get the neutral fallback
    similarity.  Values outside [0, 1] can occur when the joint rank
    under- or overshoots; they are logged and passed through unclamped.
    """
    joint = interpolate_gap(a, b)
    if a.length < 3 or b.length < 3:
        return SHORT_TRACKLET_SIMILARITY
    rank_a = own_rank(a, tau)
    rank_b = own_rank(b, tau)
    rank_joint = estimate_rank(build_hankel(joint), tau)
    if rank_joint == 0:
        return SHORT_TRACKLET_SIMILARITY
    similarity = (rank_a + rank_b) / rank_joint - 1.0
    if similarity > 1.05 or similarity < 0.0:
        log.debug(
            "rank-ratio similarity %.3f outside [0, 1] for tracklets %d -> %d "
            "(ranks %d + %d / %d)",
            similarity, a.id, b.id, rank_a, rank_b, rank_joint,
        )
    return similarity
