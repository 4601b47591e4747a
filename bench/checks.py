"""Output checks made apart from the program.

Nothing here calls into ``tracklink`` beyond reading the values it
returned: the minimum path-cover cost comes from an assignment problem
solved by ``scipy.optimize.linear_sum_assignment``, interpolation is
recomputed from the flanking boxes, the weight sweep is replayed from
its trace, and identity F1 is computed from scratch.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

SOURCE, SINK = -1, -2  # the flow graph's terminal ids
SWEEP = [k / 10 for k in range(11)]
REL_TOL = 1e-7  # costs are sums of logs over hundreds of links
IOU_MIN = 0.5  # a hypothesis box matches a ground-truth box above this IoU


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def min_cover_cost(nodes, entry: dict, exit_: dict, node_cost: dict, links: dict) -> float:
    """Minimum cost of node-disjoint paths covering every node of a DAG in
    which every node may start and end a path.

    Each path pays its entry and exit cost, every node its own cost and
    every link its cost.  Taking link u->v merges two paths, changing the
    total by ``c_uv - exit_u - entry_v``; a cover is a set of links in
    which every node has at most one successor and one predecessor, so
    the best cover is an n x n assignment over the gains
    ``min(0, c_uv - exit_u - entry_v)``, where a zero entry means "no
    link".  A DAG has no cycles, so every assignment is a cover.
    """
    index = {n: k for k, n in enumerate(nodes)}
    gain = np.zeros((len(nodes), len(nodes)))
    for (u, v), cost in links.items():
        i, j = index[u], index[v]
        gain[i, j] = min(gain[i, j], cost - exit_[u] - entry[v])
    rows, cols = linear_sum_assignment(gain)
    base = math.fsum(node_cost[n] + entry[n] + exit_[n] for n in nodes)
    return base + math.fsum(gain[rows, cols].tolist())


def graph_cover_cost(graph) -> float:
    """Oracle for a cover-all solve of an association graph: every node
    must be covered and has an entry and an exit edge."""
    nodes = sorted(graph.node_ids)
    _require(set(graph.must_cover_ids) == set(nodes), "oracle needs every node must-cover")
    entry, exit_, links = {}, {}, {}
    for u, v, cost in graph.edges:
        if u == SOURCE:
            entry[v] = min(cost, entry.get(v, math.inf))
        elif v == SINK:
            exit_[u] = min(cost, exit_.get(u, math.inf))
        else:
            links[(u, v)] = min(cost, links.get((u, v), math.inf))
    _require(set(entry) == set(nodes) and set(exit_) == set(nodes), "node without entry/exit")
    return min_cover_cost(nodes, entry, exit_, {n: graph.node_cost(n) for n in nodes}, links)


def table_links(tables) -> dict:
    """Linkable pairs of the affinity tables: score above 0, finite cost."""
    links = {}
    for table in tables:
        for row in table.rows:
            if row.score > 0.0 and math.isfinite(row.cost):
                links[(row.i, row.j)] = min(row.cost, links.get((row.i, row.j), math.inf))
    return links


def check_solve(graph, result):
    """A solve_paths result covers every node once along graph edges, its
    cost is the cost of its paths, and no cover is cheaper."""
    edges = {}
    for u, v, cost in graph.edges:
        edges[(u, v)] = min(cost, edges.get((u, v), math.inf))
    seen = [n for path in result.paths for n in path]
    _require(sorted(seen) == sorted(graph.node_ids), "solve does not cover each node once")
    total = 0.0
    for path in result.paths:
        hops = [SOURCE, *path, SINK]
        _require(all(hop in edges for hop in zip(hops, hops[1:])), f"path {path} leaves the graph")
        total += sum(edges[hop] for hop in zip(hops, hops[1:]))
        total += sum(graph.node_cost(n) for n in path)
    _require(_close(total, result.total_cost), f"paths cost {total}, solver says {result.total_cost}")
    best = graph_cover_cost(graph)
    _require(_close(total, best), f"solve cost {total} > optimal cover {best}")


def check_cover(trajectories, tracklets, tables, entry_cost: float) -> float:
    """The trajectories are a minimum-cost cover of the reliable
    tracklets under the run's tables; returns the optimal cost."""
    links = table_links(tables)
    ids = [t.id for t in tracklets]
    cost = {n: entry_cost for n in ids}
    best = min_cover_cost(ids, cost, cost, dict.fromkeys(ids, 0.0), links)
    total = 0.0
    for traj in trajectories:
        members = traj.tracklet_ids
        total += 2.0 * entry_cost + sum(links.get(hop, math.inf) for hop in zip(members, members[1:]))
    _require(_close(total, best), f"trajectory cost {total} != optimal cover {best}")
    return best


def check_trajectories(trajectories, tracklets, detections, tables):
    """Every reliable tracklet lies in exactly one trajectory, no
    detection is used twice, frames have no gaps, gap boxes are the
    linear interpolation of the flanking boxes and every link is an edge
    of a table."""
    by_id = {t.id: t for t in tracklets}
    members = [n for traj in trajectories for n in traj.tracklet_ids]
    _require(sorted(members) == sorted(by_id), "tracklets not covered exactly once")
    loaded = {(d.frame, tuple(d.box)) for dets in detections.values() for d in dets}
    used = set()
    links = table_links(tables)
    for traj in trajectories:
        chain = [by_id[n] for n in traj.tracklet_ids]
        expected = []
        for k, t in enumerate(chain):
            if k:
                prev = chain[k - 1]
                _require((prev.id, t.id) in links, f"link {prev.id}->{t.id} is not a table edge")
                _require(t.start > prev.end, f"link {prev.id}->{t.id} goes back in time")
                a = np.asarray(prev.detections[-1].box, dtype=float)
                b = np.asarray(t.detections[0].box, dtype=float)
                steps = t.start - prev.end
                for i in range(1, steps):
                    expected.append((prev.end + i, a + (b - a) * (i / steps)))
            for d in t.detections:
                key = (d.frame, tuple(d.box))
                _require(key in loaded, f"detection {key} was never loaded")
                _require(key not in used, f"detection {key} used twice")
                used.add(key)
                expected.append((d.frame, np.asarray(d.box, dtype=float)))
        frames = [f for f, _ in traj.interpolated]
        _require(frames == list(range(frames[0], frames[0] + len(frames))), f"trajectory {traj.id} has a frame gap")
        _require(frames == [f for f, _ in expected], f"trajectory {traj.id} frames differ from its members")
        for (frame, box), (_, want) in zip(traj.interpolated, expected):
            scale = max(1.0, float(np.abs(want).max()))
            _require(
                float(np.abs(np.asarray(box, dtype=float) - want).max()) <= 1e-9 * scale,
                f"trajectory {traj.id} frame {frame}: box {box} is not {want.tolist()}",
            )


def sweep_pick(entries, level: int) -> float:
    """The documented rule: keep the first value that strictly improves
    MOTA, or ties MOTA with strictly fewer id switches."""
    best = entries[0]
    for entry in entries[1:]:
        if entry[2] > best[2] or (entry[2] == best[2] and entry[3] < best[3]):
            best = entry
    return best[level]


def check_sweep(trace, learned):
    """The weight sweep has 22 entries, 11 per level in the documented
    order, each level keeps the first value that strictly improves MOTA
    or ties MOTA with strictly fewer id switches, and the learned pair
    scores at least the MOTA of (0, 0)."""
    _require(len(trace) == 22, f"sweep has {len(trace)} entries, not 22")
    picks = []
    for level in (0, 1):
        entries = trace[11 * level : 11 * (level + 1)]
        fixed = [e[1 - level] for e in entries]
        _require([e[level] for e in entries] == SWEEP, f"level {level + 1} does not sweep 0..1")
        _require(fixed == [0.0 if level == 0 else picks[0]] * 11, f"level {level + 1} moves the other weight")
        picks.append(sweep_pick(entries, level))
    _require(tuple(picks) == tuple(learned), f"sweep picks {picks}, learn_weights returned {learned}")
    at_learned = trace[11 + SWEEP.index(picks[1])]
    _require(at_learned[2] >= trace[0][2], "learned weights score below MOTA(0, 0)")


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every (x, y, w, h) row of a against every row of b."""
    ax2, ay2 = a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]
    bx2, by2 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]
    iw = np.clip(np.minimum(ax2[:, None], bx2) - np.maximum(a[:, None, 0], b[:, 0]), 0.0, None)
    ih = np.clip(np.minimum(ay2[:, None], by2) - np.maximum(a[:, None, 1], b[:, 1]), 0.0, None)
    inter = iw * ih
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    return inter / union


def idf1(result: dict, ground_truth: dict) -> float:
    """Identity F1 (Ristani et al. 2016): one global assignment of
    hypothesis ids to ground-truth ids maximising the frames where the
    pair overlaps with IoU above ``IOU_MIN``."""
    gt_ids, hyp_ids = sorted(ground_truth), sorted(result)
    frames: dict[int, tuple[list, list]] = {}
    for k, ident in enumerate(gt_ids):
        for frame, box in ground_truth[ident]:
            frames.setdefault(frame, ([], []))[0].append((k, box))
    for k, ident in enumerate(hyp_ids):
        for frame, box in result[ident]:
            frames.setdefault(frame, ([], []))[1].append((k, box))
    overlap = np.zeros((len(gt_ids), len(hyp_ids)))
    for gts, hyps in frames.values():
        if not gts or not hyps:
            continue
        g = np.array([k for k, _ in gts])
        h = np.array([k for k, _ in hyps])
        hit = _iou_matrix(np.array([b for _, b in gts]), np.array([b for _, b in hyps])) > IOU_MIN
        gi, hi = np.nonzero(hit)
        np.add.at(overlap, (g[gi], h[hi]), 1.0)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = overlap[rows, cols].sum()
    n_gt = sum(len(track) for track in ground_truth.values())
    n_hyp = sum(len(track) for track in result.values())
    return float(2.0 * idtp / (n_gt + n_hyp))
