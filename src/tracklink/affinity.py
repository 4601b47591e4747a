"""Pairwise tracklet affinities: one scoring rule per ingredient.

The link a -> b scores S = P_m ** lambda * P_a * C.  The limiting
constraints C are ``candidate_pairs``' rule: it offers a -> b only when b
starts after a ends and a did not leave the scene through the exit band,
so every scored row has C = 1.  ``appearance_score`` maps a pair's
appearance distance product (each tracklet's mean learned distance to
the other's probe) to P_a, ``assess_difficult`` flags occlusion-difficult
tracklets, and ``link_score`` clamps P_m, applies the motion weight
lambda (1 unless the pair is flagged) and returns (lambda, S, -log S).
All affinities are computed per local segment.  An
AffinityTable keeps every ingredient per ordered pair, so
``refit_lambdas`` rebuilds a table under other motion weights by
rescoring only its flagged rows; every other row has lambda = 1 under
any weights and passes through unchanged.  Of the flagged rows, those
``fixed_above_zero`` names score the same at every weight above 0, so
the weight sweep rescores only the others.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from tracklink.dynamics import motion_similarity
from tracklink.metric import TargetMetric, metric_distance, probe
from tracklink.model import Box, ExitMap, RunConfig, Tracklet, gap_frames, intersection_area

SCORE_FLOOR = 1e-12


@dataclass(frozen=True)
class AffinityRow:
    """All affinity ingredients for the ordered candidate link i -> j."""

    i: int
    j: int
    p_m: float
    p_a: float
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
    flagged: bool,
    gap: int,
    cfg: RunConfig,
) -> tuple[float, float, float]:
    """The one scoring rule: (lambda, S, -log S) of a candidate link.  S
    is (P_m ** lambda) * P_a with P_m clamped to [0, 1] and 0^0 = 1; C = 1
    on every pair ``candidate_pairs`` offers."""
    lam = motion_weight(flagged, gap, cfg)
    powered = 1.0 if lam == 0.0 else max(0.0, min(1.0, p_m)) ** lam
    score = powered * p_a
    return lam, score, transition_cost(score)


def fixed_above_zero(p_m: float, gap: int) -> bool:
    """Whether ``link_score`` gives a flagged row one score at every
    motion weight above 0: its gap is under one frame (lambda = 1
    always), or its P_m clamps to 0 or to 1, which every positive power
    leaves as it is."""
    return gap < 1 or not 0.0 < p_m < 1.0


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
    exit_map: ExitMap | None,
) -> list[tuple[Tracklet, Tracklet]]:
    """Ordered linkable pairs scored within one segment table, the one
    home of the limiting constraints: a link a -> b needs b to start
    after a ends, and a must not have ended inside the exit band (it left
    the scene and nothing continues it; an exited tracklet may still be
    a b).  Offered are every such pair of the segment's own tracklets,
    then every link from one of them to a later segment's tracklet b
    with at most gap_bound empty frames between them (the short-gap
    bound of ``motion_weight``)."""
    inside = sorted(segment_tracklets, key=lambda t: t.id)
    later = sorted(later_tracklets, key=lambda t: t.id)
    starts = [a for a in inside if exit_map is None or not exit_map.exited(a)]
    pairs = [(a, b) for a in starts for b in inside if b.start > a.end]
    pairs += [
        (a, b) for a in starts for b in later if a.end < b.start <= a.end + 1 + cfg.gap_bound
    ]
    return pairs


def build_affinity_table(
    segment_index: int,
    pairs: list[tuple[Tracklet, Tracklet]],
    metrics: dict[int, TargetMetric],
    flagged_ids: set[int],
    cfg: RunConfig,
    use_appearance: bool = True,
) -> AffinityTable:
    """Score every candidate pair of a segment (``candidate_pairs``).

    gamma normalizes appearance per segment: the smallest positive
    distance product, so the best pair's P_a is exactly 1 and every P_a
    lies in (0, 1].
    """
    products = [
        appearance_distance_product(a, b, metrics, cfg) if use_appearance else None
        for a, b in pairs
    ]
    gamma = min((p for p in products if p is not None and p > 0.0), default=1.0)
    rows = []
    for (a, b), product in zip(pairs, products):
        p_m = motion_similarity(a, b, cfg.rank_tol)
        p_a = appearance_score(product, gamma)
        gap = gap_frames(a, b)
        flagged = a.id in flagged_ids or b.id in flagged_ids
        scored = link_score(p_m, p_a, flagged, gap, cfg)
        rows.append(AffinityRow(a.id, b.id, p_m, p_a, flagged, gap, *scored))
    return AffinityTable(segment_index=segment_index, rows=tuple(rows), gamma=gamma)


def refit_lambdas(table: AffinityTable, cfg: RunConfig) -> AffinityTable:
    """The table under new motion weights: flagged rows are rescored from
    their stored ingredients; every other row has lambda = 1 under any
    weights and is passed through unchanged."""
    rows = tuple(
        AffinityRow(
            r.i, r.j, r.p_m, r.p_a, r.flagged, r.gap,
            *link_score(r.p_m, r.p_a, r.flagged, r.gap, cfg),
        )
        if r.flagged
        else r
        for r in table.rows
    )
    return AffinityTable(segment_index=table.segment_index, rows=rows, gamma=table.gamma)
