"""Segment grouping, global graph assembly and trajectory emission.

Reliable tracklets become must-cover nodes of one whole-sequence flow
network; entry/exit edges carry -log(entry_exit_prob) and transition
edges carry the fused affinity costs, one table per local segment
(``affinity.candidate_pairs`` says which links a table scores).  The
cover-all solve assigns every tracklet to exactly one trajectory; gaps
inside each trajectory are filled by linear box interpolation.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from tracklink import affinity as aff
from tracklink.flow import SINK, SOURCE, FlowGraph, solve_paths
from tracklink.metric import learn_segment_metrics, refine_tracklets
from tracklink.model import Box, Detection, ExitMap, RunConfig, Tracklet, Trajectory
from tracklink.tracklets import generate_initial_tracklets


def segment_index_of(t: Tracklet, first_frame: int, cfg: RunConfig) -> int:
    """A tracklet belongs to the segment containing its start frame;
    segments are segment_len frames long and counted from
    ``first_frame``, the first frame that holds a detection."""
    return (t.start - first_frame) // cfg.segment_len


def build_association_graph(
    tracklets: list[Tracklet],
    tables: list[aff.AffinityTable],
    cfg: RunConfig,
) -> FlowGraph:
    g = FlowGraph()
    entry_cost = -math.log(cfg.entry_exit_prob)
    for t in sorted(tracklets, key=lambda t: t.id):
        g.add_node(t.id, cost=0.0, must_cover=True)
        g.add_edge(SOURCE, t.id, entry_cost)
        g.add_edge(t.id, SINK, entry_cost)
    for table in tables:
        for row in table.rows:
            if math.isfinite(row.cost):  # a zero or floored score costs +inf
                g.add_edge(row.i, row.j, row.cost)
    return g


def interpolate_members(members: list[Tracklet]) -> list[tuple[int, Box]]:
    """Per-frame boxes across ordered member tracklets, with gap frames
    linearly interpolated between flanking detections."""
    out: list[tuple[int, Box]] = [(d.frame, d.box) for d in members[0].detections]
    for prev, t in zip(members, members[1:]):
        box_a, box_b = prev.detections[-1].box, t.detections[0].box
        steps = t.start - prev.end  # the gap frames, plus one
        for i in range(1, steps):
            frac = i / steps
            out.append((prev.end + i, tuple(a + frac * (b - a) for a, b in zip(box_a, box_b))))
        out.extend((d.frame, d.box) for d in t.detections)
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
    return [
        Trajectory(k, tuple(t.id for t in members), tuple(interpolate_members(members)))
        for k, members in enumerate(chains, start=1)
    ]


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


def _validate(detections: dict[int, list[Detection]]) -> bool:
    """Reject input the pipeline would otherwise pass on: a frame key that
    is not an int, a detection filed under another frame, a non-finite
    feature, or features of more than one width; no feature counts as
    the width None, so features on only some detections are rejected.
    Returns whether the detections carry features."""
    widths = set()
    for frame, dets in detections.items():
        if not isinstance(frame, int):
            raise ValueError(f"frame keys must be integers, got {frame!r}")
        for d in dets:
            if d.frame != frame:
                raise ValueError(f"a detection of frame {d.frame} is filed under frame {frame}")
            if d.feature is not None and not np.isfinite(d.feature).all():
                raise ValueError(f"frame {frame}: non-finite feature")
            widths.add(None if d.feature is None else np.shape(d.feature))
    if len(widths) > 1:
        raise ValueError(f"features of more than one width: {sorted(widths, key=str)}")
    return None not in widths


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
    its probe from the tracklet itself (``metric.probe``).  The input is
    validated first (``_validate``), before any worker starts.

    A segment's descents run in parallel in one process pool
    (``_metric_pool``), which is shut down before this returns or
    raises; the output does not depend on the number of workers."""
    has_features = _validate(detections)
    width, height = infer_frame_size(detections, cfg)
    exit_map = ExitMap.from_config(cfg, width, height) if width and height else None
    first_frame = min((f for f, dets in detections.items() if dets), default=1)

    initial = generate_initial_tracklets(detections, cfg)
    per_segment: dict[int, list[Tracklet]] = {}
    for t in initial:
        per_segment.setdefault(segment_index_of(t, first_frame, cfg), []).append(t)

    next_id = max((t.id for t in initial), default=0) + 1
    # tracklet ids are unique across segments, so one metric map serves
    # every segment's table
    metrics: dict = {}
    reliable_per_segment: dict[int, list[Tracklet]] = {}
    pool = _metric_pool(has_features)
    try:
        for k in sorted(per_segment):
            refined = per_segment[k]
            if has_features:
                refined = refine_tracklets(
                    refined, cfg, exit_map=exit_map, next_id=next_id, executor=pool
                )
                next_id = max([next_id] + [t.id + 1 for t in refined])
                # second-step update on the reliable tracklets, executed once
                learned = learn_segment_metrics(refined, "reliable", cfg, exit_map, executor=pool)
                metrics.update(learned[0])
            reliable_per_segment[k] = refined
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    reliable = [t for seg in reliable_per_segment.values() for t in seg]

    flagged_ids = aff.assess_difficult(reliable, cfg)
    appearance = use_appearance and has_features
    tables = []
    seen = 0
    for k, seg_tracklets in reliable_per_segment.items():
        seen += len(seg_tracklets)  # reliable[seen:] lies in later segments
        pairs = aff.candidate_pairs(seg_tracklets, reliable[seen:], cfg)
        if not pairs:
            continue
        tables.append(
            aff.build_affinity_table(k, pairs, metrics, flagged_ids, cfg, exit_map, appearance)
        )
    return TrackingResult([], reliable, tables, flagged_ids)


def track_sequence(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    use_appearance: bool = True,
) -> TrackingResult:
    """Full pipeline: detections in, identity-consistent trajectories out."""
    state = prepare_reliable_tracklets(detections, cfg, use_appearance=use_appearance)
    state.trajectories = associate(state.reliable_tracklets, state.tables, cfg)
    return state
