"""Initial tracklet generation from raw detections.

Detections become graph nodes whose cost is the negative log-odds of the
detector score, transitions cost 0 and are only allowed between
consecutive frames within a spatial gate.  The min-cost flow is solved
greedily by dynamic programming over the frame stages: repeatedly take
the cheapest chain, remove its detections, stop once no chain is
profitable.  Chains must start and end at detections scoring above the
configured threshold; chains shorter than 2 detections are dropped.
"""

from __future__ import annotations

import math

from tracklink.flow import SINK, SOURCE, FlowGraph, _closure
from tracklink.model import Detection, RunConfig, Tracklet


def detection_cost(score: float) -> float:
    """Negative log-odds of a detector score in (0, 1); negative for
    scores above 0.5, which makes confident chains profitable."""
    if not (0.0 < score < 1.0):
        raise ValueError(f"detection score must lie strictly in (0, 1), got {score}")
    return -math.log(score / (1.0 - score))


def _gated(a: Detection, b: Detection) -> bool:
    # centers closer than half the summed widths per one-frame step
    (ax, ay), (bx, by) = a.center, b.center
    limit = 0.5 * (a.box[2] + b.box[2])
    return math.hypot(bx - ax, by - ay) < limit


def generate_initial_tracklets(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    start_id: int = 1,
) -> list[Tracklet]:
    """Greedy DP extraction of profitable detection chains.

    Returns node-disjoint tracklets; every consecutive pair inside a
    tracklet is one frame apart and within the gating radius.
    """
    frames = sorted(detections)
    nodes: list[Detection] = []
    node_of: dict[int, list[int]] = {}
    for f in frames:
        node_of[f] = []
        for det in detections[f]:
            node_of[f].append(len(nodes))
            nodes.append(det)
    n = len(nodes)
    if n == 0:
        return []
    cost = [detection_cost(d.score) for d in nodes]
    endpoint_ok = [d.score > cfg.det_threshold for d in nodes]
    entry_cost = -math.log(cfg.entry_exit_prob)
    exit_cost = -math.log(cfg.entry_exit_prob)
    preds: list[list[int]] = [[] for _ in range(n)]
    for f in frames:
        if f + 1 not in node_of:
            continue
        for j in node_of[f + 1]:
            for i in node_of[f]:
                if _gated(nodes[i], nodes[j]):
                    preds[j].append(i)

    alive = [True] * n
    tracklets: list[Tracklet] = []
    next_id = start_id
    while True:
        # arrive1[v]: best entry chain of exactly one detection ending at v;
        # arrive2[v]: best chain of >= 2 detections ending at v.
        arrive1 = [math.inf] * n
        arrive2 = [math.inf] * n
        back: list[int] = [-1] * n
        best_cost = math.inf
        best_end = -1
        for f in frames:
            for v in node_of[f]:
                if not alive[v]:
                    continue
                if endpoint_ok[v]:
                    arrive1[v] = entry_cost + cost[v]
                best_prev = math.inf
                best_prev_node = -1
                for u in preds[v]:
                    if not alive[u]:
                        continue
                    c = min(arrive1[u], arrive2[u])
                    if c < best_prev:
                        best_prev = c
                        best_prev_node = u
                if best_prev_node >= 0 and math.isfinite(best_prev):
                    arrive2[v] = best_prev + cost[v]
                    back[v] = best_prev_node
                if endpoint_ok[v] and math.isfinite(arrive2[v]):
                    total = arrive2[v] + exit_cost
                    if total < best_cost:
                        best_cost = total
                        best_end = v
        if best_end < 0 or best_cost >= 0.0:
            break
        chain = [best_end]
        v = best_end
        while arrive2[v] <= arrive1[v] and back[v] >= 0:
            v = back[v]
            chain.append(v)
        chain.reverse()
        for v in chain:
            alive[v] = False
        tracklets.append(Tracklet(id=next_id, detections=tuple(nodes[v] for v in chain)))
        next_id += 1
    return tracklets


def build_generation_graph(detections: dict[int, list[Detection]], cfg: RunConfig) -> FlowGraph:
    """The same instance as a FlowGraph, for cross-checking the DP against
    the generic solver.  Nodes that cannot lie on any legal chain
    (unreachable from entry or exit endpoints) are pruned."""
    frames = sorted(detections)
    nodes: list[Detection] = []
    node_of: dict[int, list[int]] = {}
    for f in frames:
        node_of[f] = []
        for det in detections[f]:
            node_of[f].append(len(nodes))
            nodes.append(det)
    n = len(nodes)
    endpoint_ok = [d.score > cfg.det_threshold for d in nodes]
    links: list[tuple[int, int]] = []
    for f in frames:
        if f + 1 not in node_of:
            continue
        for i in node_of[f]:
            for j in node_of[f + 1]:
                if _gated(nodes[i], nodes[j]):
                    links.append((i, j))
    succ: dict[int, list[int]] = {}
    pred: dict[int, list[int]] = {}
    for i, j in links:
        succ.setdefault(i, []).append(j)
        pred.setdefault(j, []).append(i)
    from_entry = _closure({i for i in range(n) if endpoint_ok[i]}, succ)
    to_exit = _closure({i for i in range(n) if endpoint_ok[i]}, pred)
    keep = from_entry & to_exit

    entry_cost = -math.log(cfg.entry_exit_prob)
    g = FlowGraph()
    for i in sorted(keep):
        g.add_node(i, cost=detection_cost(nodes[i].score))
    for i in sorted(keep):
        if endpoint_ok[i]:
            g.add_edge(SOURCE, i, entry_cost)
            g.add_edge(i, SINK, entry_cost)
    for i, j in links:
        if i in keep and j in keep:
            g.add_edge(i, j, 0.0)
    return g
