"""Motion-dynamics similarity from Hankel-matrix numerical rank.

A tracklet's center sequence is laid out as a block-Hankel matrix with
two-row (x, y) blocks; the numerical rank of that matrix estimates the
order of the autoregressive model generating the motion.  Two tracklets
moving under one shared model keep the joint rank equal to each part's
rank, driving the rank-ratio similarity to 1; unrelated motions inflate
the joint rank and drive it toward (or below) 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tracklink.model import Tracklet, temporal_overlap

log = logging.getLogger(__name__)

NEG_INF = float("-inf")

# Similarity granted when a tracklet is too short to build a Hankel
# window; neutral between the same-dynamics (1) and unrelated (0) poles.
SHORT_TRACKLET_SIMILARITY = 0.5


@dataclass(frozen=True)
class DynamicSequence:
    """Frame-ordered 2-D positions (box centers), gapless."""

    start_frame: int
    positions: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class HankelMatrix:
    matrix: np.ndarray
    columns: int
    block_rows: int


def sequence_of(t: Tracklet) -> DynamicSequence:
    return DynamicSequence(start_frame=t.start, positions=tuple(t.centers()))


def hankel_columns(length: int) -> int:
    return length - math.ceil(length / 3) + 1


def build_hankel(seq: DynamicSequence) -> HankelMatrix:
    """Block-Hankel layout: block row i, column j holds position i+j-2
    (1-based), x coordinate on the block's first row, y on the second."""
    length = len(seq)
    if length < 3:
        raise ValueError(f"need at least 3 positions for a Hankel window, got {length}")
    n = hankel_columns(length)
    block_rows = length - n + 1
    # windows[i, c, j] = positions[i + j][c]; rows 2i and 2i+1 are block i
    windows = sliding_window_view(np.asarray(seq.positions, dtype=float), n, axis=0)
    mat = np.ascontiguousarray(windows.reshape(2 * block_rows, n))
    return HankelMatrix(matrix=mat, columns=n, block_rows=block_rows)


def estimate_rank(h: HankelMatrix, tau: float) -> int:
    """Numerical rank: singular values above tau times the largest."""
    if tau <= 0:
        raise ValueError("rank tolerance must be positive")
    sv = np.linalg.svd(h.matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tau * sv[0]))


def interpolate_gap(a: Tracklet, b: Tracklet) -> DynamicSequence:
    """Joint center sequence of a, linearly interpolated gap frames, b."""
    if b.start <= a.end:
        raise ValueError(
            f"interpolate_gap needs b after a (a.end={a.end}, b.start={b.start})"
        )
    positions = list(a.centers())
    gap = b.start - a.end - 1
    ax, ay = positions[-1]
    bx, by = b.centers()[0]
    for i in range(1, gap + 1):
        frac = i / (gap + 1)
        positions.append((ax + frac * (bx - ax), ay + frac * (by - ay)))
    positions.extend(b.centers())
    return DynamicSequence(start_frame=a.start, positions=tuple(positions))


def motion_similarity(a: Tracklet, b: Tracklet, tau: float) -> float:
    """Rank-ratio motion similarity of linking a -> b.

    Returns -inf on temporal conflict.  Tracklets too short for a Hankel
    window get the neutral fallback similarity.  Values outside [0, 1]
    can occur when the joint rank under- or overshoots; they are logged
    and passed through unclamped.
    """
    if temporal_overlap(a, b) or b.start <= a.end:
        return NEG_INF
    if a.length < 3 or b.length < 3:
        return SHORT_TRACKLET_SIMILARITY
    rank_a = estimate_rank(build_hankel(sequence_of(a)), tau)
    rank_b = estimate_rank(build_hankel(sequence_of(b)), tau)
    rank_joint = estimate_rank(build_hankel(interpolate_gap(a, b)), tau)
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
