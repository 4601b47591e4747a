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
from dataclasses import dataclass

import numpy as np

from tracklink import affinity as aff
from tracklink.flow import FlowGraph, FlowGraphError, solve_paths
from tracklink.metric import learn_segment_metrics, refine_tracklets
from tracklink.model import (
    Box,
    Detection,
    ExitMap,
    RunConfig,
    Tracklet,
    Trajectory,
    check_frame,
    gap_points,
)
from tracklink.tracklets import generate_initial_tracklets


def segment_index_of(t: Tracklet, first_frame: int, cfg: RunConfig) -> int:
    """A tracklet belongs to the segment containing its start frame;
    segments are segment_len frames long and counted from
    ``first_frame``, the first frame that holds a detection."""
    return (t.start - first_frame) // cfg.segment_len


def association_arrays(
    tracklets: list[Tracklet], rows: list[aff.AffinityRow]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The association instance as arrays: the tracklet ids ascending
    (node k of the graph is ids[k]), and each row's endpoints as node
    indices and its cost.  A row naming an id that is not among the
    tracklets raises ``FlowGraphError``, as ``FlowGraph.add_edge`` does;
    the graph rejects a repeated id and a self loop."""
    ids = np.sort(np.fromiter((t.id for t in tracklets), dtype=np.int64, count=len(tracklets)))
    ends = np.array([(r.i, r.j) for r in rows], dtype=np.int64).reshape(-1, 2)
    known = np.isin(ends, ids)
    if not known.all():
        raise FlowGraphError(f"edge endpoint {ends[~known][0]} is not a known node")
    src, dst = np.searchsorted(ids, ends).T
    return ids, src, dst, np.array([r.cost for r in rows], dtype=float)


def graph_from_arrays(ids, src, dst, cost, cfg: RunConfig) -> FlowGraph:
    """The cover-all association graph over ``association_arrays``:
    every tracklet a zero-cost must-cover node with entry and exit edges
    of cost -log(entry_exit_prob), and a link for each row of finite
    cost (a zero or floored score costs +inf)."""
    ends = np.full(len(ids), -math.log(cfg.entry_exit_prob))
    finite = np.isfinite(cost)
    return FlowGraph.from_arrays(
        ids, np.zeros(len(ids)), np.ones(len(ids), dtype=bool), ends, ends,
        src[finite], dst[finite], cost[finite],
    )


def build_association_graph(
    tracklets: list[Tracklet],
    tables: list[aff.AffinityTable],
    cfg: RunConfig,
) -> FlowGraph:
    rows = [r for table in tables for r in table.rows if math.isfinite(r.cost)]
    return graph_from_arrays(*association_arrays(tracklets, rows), cfg)


def interpolate_members(members: list[Tracklet]) -> list[tuple[int, Box]]:
    """Per-frame boxes across ordered member tracklets, with gap frames
    linearly interpolated between flanking detections."""
    out: list[tuple[int, Box]] = [(d.frame, d.box) for d in members[0].detections]
    for prev, t in zip(members, members[1:]):
        filled = gap_points(prev.detections[-1].box, t.detections[0].box, t.start - prev.end - 1)
        out.extend(zip(range(prev.end + 1, t.start), map(tuple, filled.tolist())))
        out.extend((d.frame, d.box) for d in t.detections)
    return out


def link(tracklets: list[Tracklet], graph: FlowGraph) -> tuple[tuple[int, ...], ...]:
    """The global cover-all solve of an association graph over the
    tracklets: one chain of tracklet ids per path, chains ordered by
    (start frame, first member id)."""
    start = {t.id: t.start for t in tracklets}
    result = solve_paths(graph, mode="cover_all")
    return tuple(sorted((tuple(path) for path in result.paths), key=lambda c: (start[c[0]], c[0])))


def build_trajectories(
    tracklets: list[Tracklet], chains: tuple[tuple[int, ...], ...]
) -> list[Trajectory]:
    """Chain k of ``link``'s order becomes trajectory k, its gap frames
    filled by ``interpolate_members``."""
    by_id = {t.id: t for t in tracklets}
    return [
        Trajectory(k, chain, tuple(interpolate_members([by_id[n] for n in chain])))
        for k, chain in enumerate(chains, start=1)
    ]


def associate(
    tracklets: list[Tracklet],
    tables: list[aff.AffinityTable],
    cfg: RunConfig,
) -> list[Trajectory]:
    """Global cover-all solve; each returned path becomes a Trajectory.

    Two steps: ``link`` solves the association graph for the chains,
    which alone fix the output, and ``build_trajectories`` builds them;
    ``learn_weights`` calls the two apart, to solve graphs of its own
    and build only chains it has not seen.
    Trajectory ids are assigned 1..k ordered by (start frame, first
    member id), so equal inputs yield identical outputs.
    """
    graph = build_association_graph(tracklets, tables, cfg)
    return build_trajectories(tracklets, link(tracklets, graph))


@dataclass
class TrackingResult:
    """A run's output and what it was chosen from: the reliable
    tracklets, the per-segment affinity tables and the flagged ids."""

    trajectories: list[Trajectory]
    reliable_tracklets: list[Tracklet]
    tables: list[aff.AffinityTable]
    flagged_ids: set[int]


def infer_frame_size(detections: dict[int, list[Detection]], cfg: RunConfig):
    """(width, height) of the frame.  A dimension the config sets is kept;
    one it leaves at 0 is inferred on its own, as the largest right (or
    bottom) box edge in the data, and at least 0."""

    def far_edge(axis: int) -> float:
        edges = [d.box[axis] + d.box[axis + 2] for dets in detections.values() for d in dets]
        return max([0.0] + edges)

    return cfg.frame_width or far_edge(0), cfg.frame_height or far_edge(1)


def _validate(detections: dict[int, list[Detection]]) -> bool:
    """Reject input the pipeline would otherwise pass on: a frame key that
    breaks ``check_frame``, a detection filed under another frame, a
    feature that is not a non-empty 1-D vector or holds a non-finite
    value, or features of more than one width; no feature counts as the
    width None, so features on only some detections are rejected.
    Returns whether the detections carry features."""
    widths = set()
    for frame, dets in detections.items():
        check_frame(frame)
        for d in dets:
            if d.frame != frame:
                raise ValueError(f"a detection of frame {d.frame} is filed under frame {frame}")
            if d.feature is not None:
                if np.ndim(d.feature) != 1 or np.size(d.feature) == 0:
                    raise ValueError(
                        f"frame {frame}: a feature must be a non-empty 1-D vector, "
                        f"got shape {np.shape(d.feature)}"
                    )
                if not np.isfinite(d.feature).all():
                    raise ValueError(f"frame {frame}: non-finite feature")
            widths.add(None if d.feature is None else np.shape(d.feature))
    if len(widths) > 1:
        raise ValueError(f"features of more than one width: {sorted(widths, key=str)}")
    return None not in widths


def prepare_reliable_tracklets(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    use_appearance: bool = True,
) -> TrackingResult:
    """Everything up to (not including) the global solve: initial
    tracklet generation, per-segment two-step metric learning with
    refinement (the second step only when the appearance cue is used),
    difficult-pair assessment and affinity tables.  The
    tables read each tracklet's reliable-phase metric from one map and
    its probe from the tracklet itself (``metric.probe``).  The input is
    validated first (``_validate``)."""
    has_features = _validate(detections)
    appearance = use_appearance and has_features
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
    for k in sorted(per_segment):
        refined = per_segment[k]
        if has_features:
            refined = refine_tracklets(refined, cfg, exit_map=exit_map, next_id=next_id)
            next_id = max([next_id] + [t.id + 1 for t in refined])
        if appearance:
            # second-step update on the reliable tracklets, executed
            # once; only the appearance cue reads its metrics
            metrics.update(learn_segment_metrics(refined, "reliable", cfg, exit_map)[0])
        reliable_per_segment[k] = refined
    reliable = [t for seg in reliable_per_segment.values() for t in seg]

    flagged_ids = aff.assess_difficult(reliable, cfg)
    tables = []
    seen = 0
    for k, seg_tracklets in reliable_per_segment.items():
        seen += len(seg_tracklets)  # reliable[seen:] lies in later segments
        pairs = aff.candidate_pairs(seg_tracklets, reliable[seen:], cfg, exit_map)
        if pairs:
            table = aff.build_affinity_table(k, pairs, metrics, flagged_ids, cfg, appearance)
            tables.append(table)
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
