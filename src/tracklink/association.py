"""Segment partitioning, global graph assembly and trajectory emission.

Reliable tracklets become must-cover nodes of one whole-sequence flow
network; entry/exit edges carry -log(entry_exit_prob) and transition
edges carry the fused affinity costs estimated per local segment (plus
boundary pairs bridging consecutive segments).  The cover-all solve
assigns every tracklet to exactly one trajectory; gaps inside each
trajectory are filled by linear box interpolation.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from tracklink import affinity as aff
from tracklink.flow import SINK, SOURCE, FlowGraph, solve_paths
from tracklink.metric import learn_segment_metrics, refine_tracklets
from tracklink.model import Box, Detection, ExitMap, RunConfig, Tracklet, Trajectory
from tracklink.tracklets import generate_initial_tracklets


def partition_segments(n_frames: int, cfg: RunConfig) -> list[tuple[int, int]]:
    """Consecutive non-overlapping windows of segment_len frames starting
    at frame 1; the last window may be shorter."""
    if n_frames < 1:
        return []
    windows = []
    start = 1
    while start <= n_frames:
        end = min(start + cfg.segment_len - 1, n_frames)
        windows.append((start, end))
        start = end + 1
    return windows


def segment_index_of(t: Tracklet, cfg: RunConfig) -> int:
    """A tracklet belongs to the segment containing its start frame."""
    return (t.start - 1) // cfg.segment_len


def build_association_graph(
    tracklets: list[Tracklet],
    tables: list[aff.AffinityTable],
    cfg: RunConfig,
) -> FlowGraph:
    g = FlowGraph()
    entry_cost = -math.log(cfg.entry_exit_prob)
    for t in sorted(tracklets, key=lambda t: t.id):
        g.add_node(t.id, cost=0.0, must_cover=True)
    for t in sorted(tracklets, key=lambda t: t.id):
        g.add_edge(SOURCE, t.id, entry_cost)
        g.add_edge(t.id, SINK, entry_cost)
    for table in tables:
        for row in table.rows:
            if row.score > 0.0 and math.isfinite(row.cost):
                g.add_edge(row.i, row.j, row.cost)
    return g


def _interpolate_box(box_a: Box, box_b: Box, frac: float) -> Box:
    return tuple(a + frac * (b - a) for a, b in zip(box_a, box_b))


def interpolate_members(members: list[Tracklet]) -> list[tuple[int, Box]]:
    """Per-frame boxes across ordered member tracklets, with gap frames
    linearly interpolated between flanking detections."""
    out: list[tuple[int, Box]] = []
    for k, t in enumerate(members):
        if k > 0:
            prev = members[k - 1]
            gap = t.start - prev.end - 1
            box_a = prev.detections[-1].box
            box_b = t.detections[0].box
            for i in range(1, gap + 1):
                frame = prev.end + i
                out.append((frame, _interpolate_box(box_a, box_b, i / (gap + 1))))
        for d in t.detections:
            out.append((d.frame, d.box))
    return out


def associate(
    tracklets: list[Tracklet],
    tables: list[aff.AffinityTable],
    cfg: RunConfig,
) -> list[Trajectory]:
    """Global cover-all solve; each returned path becomes a Trajectory.

    Trajectory ids are assigned 1..k ordered by (start frame, first
    member id), so equal inputs yield identical outputs.
    """
    if not tracklets:
        return []
    by_id = {t.id: t for t in tracklets}
    graph = build_association_graph(tracklets, tables, cfg)
    result = solve_paths(graph, mode="cover_all")
    chains = [[by_id[n] for n in path] for path in result.paths]
    chains.sort(key=lambda members: (members[0].start, members[0].id))
    trajectories = []
    for k, members in enumerate(chains, start=1):
        trajectories.append(
            Trajectory(
                id=k,
                tracklet_ids=tuple(t.id for t in members),
                interpolated=tuple(interpolate_members(members)),
            )
        )
    return trajectories


@dataclass
class TrackingResult:
    """A run's output and what it was chosen from: the reliable
    tracklets, the per-segment affinity tables and the flagged ids."""

    trajectories: list[Trajectory]
    reliable_tracklets: list[Tracklet]
    tables: list[aff.AffinityTable]
    flagged_ids: set[int]


def infer_frame_size(detections: dict[int, list[Detection]], cfg: RunConfig):
    if cfg.frame_width > 0 and cfg.frame_height > 0:
        return cfg.frame_width, cfg.frame_height
    width = height = 0.0
    for dets in detections.values():
        for d in dets:
            width = max(width, d.box[0] + d.box[2])
            height = max(height, d.box[1] + d.box[3])
    return width, height


def _has_features(detections: dict[int, list[Detection]]) -> bool:
    return all(d.feature is not None for dets in detections.values() for d in dets)


def _metric_pool(has_features: bool) -> ProcessPoolExecutor | None:
    """The pool a run learns its target metrics in: one worker per usable
    CPU, started by ``fork`` on the first descent handed to it.  Forked
    workers inherit the loaded modules and the BLAS setting, so each
    descent computes the same bits as in this process, and a caller
    script needs no ``__main__`` guard.  None, and every descent runs
    here, without features, on one usable CPU, where the platform cannot
    fork, inside a daemonic process (which may not start processes), or
    while other threads run (a fork copies the locks they hold)."""
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if (
        not has_features
        or workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def prepare_reliable_tracklets(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    use_appearance: bool = True,
) -> TrackingResult:
    """Everything up to (not including) the global solve: initial
    tracklet generation, per-segment two-step metric learning with
    refinement, difficult-pair assessment and affinity tables.  The
    tables read each tracklet's reliable-phase metric from one map and
    its probe from the tracklet itself (``metric.probe``).

    A segment's descents run in parallel in one process pool
    (``_metric_pool``), which is shut down before this returns or
    raises; the output does not depend on the number of workers."""
    has_features = _has_features(detections)
    width, height = infer_frame_size(detections, cfg)
    exit_map = ExitMap.from_config(cfg, width, height) if width and height else None
    n_frames = max(detections) if detections else 0
    segments = partition_segments(n_frames, cfg)

    initial = generate_initial_tracklets(detections, cfg)
    per_segment: dict[int, list[Tracklet]] = {k: [] for k in range(len(segments))}
    for t in initial:
        per_segment[segment_index_of(t, cfg)].append(t)

    next_id = max((t.id for t in initial), default=0) + 1
    # tracklet ids are unique across segments, so one metric map serves
    # every segment's table
    metrics: dict = {}
    reliable_per_segment: list[list[Tracklet]] = []
    pool = _metric_pool(has_features)
    try:
        for k in range(len(segments)):
            refined = per_segment[k]
            if refined and has_features:
                refined = refine_tracklets(
                    refined, cfg, exit_map=exit_map, next_id=next_id, executor=pool
                )
                next_id = max([next_id] + [t.id + 1 for t in refined])
                # second-step update on the reliable tracklets, executed once
                learned = learn_segment_metrics(refined, "reliable", cfg, exit_map, executor=pool)
                metrics.update(learned[0])
            reliable_per_segment.append(refined)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    reliable = [t for seg in reliable_per_segment for t in seg]

    flagged_ids = aff.assess_difficult(reliable, cfg)
    tables = []
    for k, window in enumerate(segments):
        seg_tracklets = reliable_per_segment[k]
        if not seg_tracklets:
            continue
        next_window = segments[k + 1] if k + 1 < len(segments) else None
        next_tracklets = reliable_per_segment[k + 1] if next_window else []
        pairs = aff.candidate_pairs(seg_tracklets, next_tracklets, window, next_window, cfg)
        if not pairs:
            continue
        tables.append(
            aff.build_affinity_table(
                k,
                pairs,
                metrics,
                flagged_ids,
                cfg,
                exit_map,
                use_appearance=use_appearance and has_features,
            )
        )
    return TrackingResult(
        trajectories=[],
        reliable_tracklets=reliable,
        tables=tables,
        flagged_ids=flagged_ids,
    )


def track_sequence(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    use_appearance: bool = True,
) -> TrackingResult:
    """Full pipeline: detections in, identity-consistent trajectories out."""
    state = prepare_reliable_tracklets(detections, cfg, use_appearance=use_appearance)
    state.trajectories = associate(state.reliable_tracklets, state.tables, cfg)
    return state
