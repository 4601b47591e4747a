"""Pairwise tracklet affinities: one scoring rule per ingredient.

The link a -> b scores S = P_m ** lambda * P_a * C.  ``gate`` gives the
binary limiting constraints C = c_t * c_e, ``appearance_score`` maps a
pair's appearance distance product (each tracklet's mean learned
distance to the other's probe) to P_a, ``assess_difficult`` flags
occlusion-difficult tracklets, and ``link_score`` clamps P_m, applies
the motion weight lambda (1 unless the pair is flagged) and returns
(lambda, S, -log S).  All affinities are computed per local segment.  An
AffinityTable keeps every ingredient per ordered pair, so
``refit_lambdas`` rebuilds a table under other motion weights by
rescoring only its flagged rows; every other row has lambda = 1 under
any weights and passes through unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from tracklink.dynamics import NEG_INF, motion_similarity
from tracklink.metric import TargetMetric, metric_distance, probe
from tracklink.model import (
    Box,
    ExitMap,
    RunConfig,
    Tracklet,
    gap_frames,
    intersection_area,
    temporal_overlap,
)

SCORE_FLOOR = 1e-12


@dataclass(frozen=True)
class AffinityRow:
    """All affinity ingredients for the ordered candidate link i -> j."""

    i: int
    j: int
    p_m: float
    p_a: float
    c_t: int
    c_e: int
    flagged: bool
    gap: int
    lam: float
    score: float
    cost: float


@dataclass(frozen=True)
class AffinityTable:
    segment_index: int
    rows: tuple[AffinityRow, ...]
    gamma: float


def gate(a: Tracklet, b: Tracklet, exit_map: ExitMap | None) -> tuple[int, int]:
    """Limiting constraints (c_t, c_e) of the link a -> b: c_t is 0 when
    the frame spans overlap; c_e is 0 when b does not start after a ends
    or when a ended inside the exit band (it left the scene and cannot
    continue as b)."""
    c_t = 0 if temporal_overlap(a, b) else 1
    exited = exit_map is not None and exit_map.exited(a)
    c_e = 0 if b.start <= a.end or exited else 1
    return c_t, c_e


def appearance_score(product: float | None, gamma: float) -> float:
    """P_a = gamma / (d_ab * d_ba) capped at 1; a missing product (no
    appearance cue) or a zero one (indistinguishable appearance) gives 1."""
    if product is None or product <= 0.0:
        return 1.0
    return min(1.0, gamma / product)


def appearance_distance_product(
    a: Tracklet,
    b: Tracklet,
    metrics: dict[int, TargetMetric],
    cfg: RunConfig,
) -> float:
    """d_ab * d_ba: each tracklet's mean learned distance to the other's
    probe (``metric.probe``)."""
    if a.id not in metrics or b.id not in metrics:
        raise ValueError(f"missing metric for tracklet pair ({a.id}, {b.id})")
    d_ab = _mean_probe_distance(a, metrics[a.id], probe(b, cfg))
    d_ba = _mean_probe_distance(b, metrics[b.id], probe(a, cfg))
    return d_ab * d_ba


def _mean_probe_distance(t: Tracklet, metric: TargetMetric, anchor) -> float:
    return sum(metric_distance(metric, d.feature, anchor) for d in t.detections) / t.length


def assess_difficult(tracklets: list[Tracklet], cfg: RunConfig) -> set[int]:
    """Ids of tracklets in an occlusion-like configuration: a pair whose
    boxes overlap by at least eta times the smaller area at a shared
    starting frame or a shared ending frame.  Only tracklets that start
    (or end) in one frame can form such a pair, so each frame's group is
    tested on its own."""
    flagged: set[int] = set()
    for pick in (0, -1):  # the first detection, then the last
        groups: dict[int, list[tuple[int, Box]]] = {}
        for t in tracklets:
            det = t.detections[pick]
            groups.setdefault(det.frame, []).append((t.id, det.box))
        for group in groups.values():
            for (id_i, box_i), (id_k, box_k) in itertools.combinations(group, 2):
                overlap = intersection_area(box_i, box_k)
                smaller = min(box_i[2] * box_i[3], box_k[2] * box_k[3])
                if overlap >= cfg.overlap_eta * smaller:
                    flagged.add(id_i)
                    flagged.add(id_k)
    return flagged


def motion_weight(flagged: bool, gap: int, cfg: RunConfig) -> float:
    """Exponent applied to the motion affinity: 1 for easy pairs, the
    level-1/level-2 weight for flagged pairs with a real gap."""
    if not flagged or gap < 1:
        return 1.0
    if gap <= cfg.gap_bound:
        return cfg.lambda1
    return cfg.lambda2


def link_score(
    p_m: float,
    p_a: float,
    c: int,
    flagged: bool,
    gap: int,
    cfg: RunConfig,
) -> tuple[float, float, float]:
    """The one scoring rule: (lambda, S, -log S) of a link.  S is
    (P_m ** lambda) * P_a * C with P_m clamped to [0, 1] and 0^0 = 1; it
    is zero on temporal conflict (P_m = -inf) or a closed gate."""
    lam = motion_weight(flagged, gap, cfg)
    if c == 0 or p_m == NEG_INF:
        score = 0.0
    else:
        powered = 1.0 if lam == 0.0 else max(0.0, min(1.0, p_m)) ** lam
        score = powered * p_a
    return lam, score, transition_cost(score)


def transition_cost(score: float) -> float:
    """Negative log affinity; scores at or below the floor yield +inf,
    meaning the graph edge is omitted."""
    if score < 0.0:
        raise ValueError(f"affinity score must be nonnegative, got {score}")
    if score <= SCORE_FLOOR:
        return math.inf
    return -math.log(score)


def candidate_pairs(
    segment_tracklets: list[Tracklet],
    later_tracklets: list[Tracklet],
    cfg: RunConfig,
) -> list[tuple[Tracklet, Tracklet]]:
    """Ordered linkable pairs scored within one segment table: every pair
    of the segment's own tracklets in which b starts after a ends, then
    every link from one of them to a later segment's tracklet b that
    starts after a ends with at most gap_bound empty frames between them
    (the short-gap bound of ``motion_weight``)."""
    inside = sorted(segment_tracklets, key=lambda t: t.id)
    later = sorted(later_tracklets, key=lambda t: t.id)
    pairs = [(a, b) for a in inside for b in inside if b.start > a.end]
    pairs += [
        (a, b) for a in inside for b in later if a.end < b.start <= a.end + 1 + cfg.gap_bound
    ]
    return pairs


def build_affinity_table(
    segment_index: int,
    pairs: list[tuple[Tracklet, Tracklet]],
    metrics: dict[int, TargetMetric],
    flagged_ids: set[int],
    cfg: RunConfig,
    exit_map: ExitMap | None,
    use_appearance: bool = True,
) -> AffinityTable:
    """Score every candidate pair of a segment.

    gamma normalizes appearance per segment: the smallest admissible
    distance product, so the best pair's P_a is exactly 1 and every P_a
    lies in (0, 1].  Appearance is measured only on pairs the gate
    leaves open.
    """
    staged = []
    for a, b in pairs:
        c_t, c_e = gate(a, b, exit_map)
        product = None
        if use_appearance and c_t * c_e == 1:
            product = appearance_distance_product(a, b, metrics, cfg)
        staged.append((a, b, c_t, c_e, product))
    gamma = min((p for *_, p in staged if p is not None and p > 0.0), default=1.0)
    rows = []
    for a, b, c_t, c_e, product in staged:
        p_m = motion_similarity(a, b, cfg.rank_tol)
        p_a = appearance_score(product, gamma)
        gap = gap_frames(a, b) if b.start > a.end else 0
        flagged = a.id in flagged_ids or b.id in flagged_ids
        scored = link_score(p_m, p_a, c_t * c_e, flagged, gap, cfg)
        rows.append(AffinityRow(a.id, b.id, p_m, p_a, c_t, c_e, flagged, gap, *scored))
    return AffinityTable(segment_index=segment_index, rows=tuple(rows), gamma=gamma)


def refit_lambdas(table: AffinityTable, cfg: RunConfig) -> AffinityTable:
    """The table under new motion weights: flagged rows are rescored from
    their stored ingredients; every other row has lambda = 1 under any
    weights and is passed through unchanged."""
    rows = tuple(
        AffinityRow(
            r.i, r.j, r.p_m, r.p_a, r.c_t, r.c_e, r.flagged, r.gap,
            *link_score(r.p_m, r.p_a, r.c_t * r.c_e, r.flagged, r.gap, cfg),
        )
        if r.flagged
        else r
        for r in table.rows
    )
    return AffinityTable(segment_index=table.segment_index, rows=rows, gamma=table.gamma)
