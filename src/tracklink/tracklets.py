"""Initial tracklet generation from raw detections.

Detections become graph nodes whose cost is the negative log-odds of the
detector score, transitions cost 0 and are only allowed between
consecutive frames within a spatial gate.  The min-cost flow is solved
greedily, not optimally, by dynamic programming over the frame stages:
repeatedly take the cheapest chain, remove its detections, stop once no
chain is profitable.  Chains must start and end at detections scoring
above the configured threshold; chains shorter than 2 detections are
dropped.

Removing a chain only changes the nodes of its own connected component
of the gating graph, so the extraction runs one component at a time.
Within a component a removal can only raise each end's total, so the
``(cost, end node)`` values it takes strictly increase; numbering all
chains by ``(cost, end node)`` therefore gives the order, and the ids,
of a pass over the whole scene.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from tracklink.model import Detection, RunConfig, Tracklet


def detection_cost(score: float) -> float:
    """Negative log-odds of a detector score in (0, 1) (``Detection``
    checks the range); negative for scores above 0.5, which makes
    confident chains profitable."""
    return -math.log(score / (1.0 - score))


def gate_mask(prev_boxes, next_boxes) -> np.ndarray:
    """``mask[i, j]``: box ``j`` of the next frame is gated to box ``i`` of
    the previous one, i.e. ``math.hypot`` of their center offset is
    strictly below half their summed widths.  Boxes are rows of
    ``(x, y, w, h)``."""
    a = np.asarray(prev_boxes, dtype=float).reshape(-1, 4)
    b = np.asarray(next_boxes, dtype=float).reshape(-1, 4)
    dx = (b[:, 0] + b[:, 2] / 2.0)[None, :] - (a[:, 0] + a[:, 2] / 2.0)[:, None]
    dy = (b[:, 1] + b[:, 3] / 2.0)[None, :] - (a[:, 1] + a[:, 3] / 2.0)[:, None]
    limit = 0.5 * (a[:, 2, None] + b[None, :, 2])
    dist = np.hypot(dx, dy)
    mask = dist < limit
    # np.hypot and math.hypot are each within an ulp of the true distance,
    # so they can disagree only within a few ulps of the limit: the scalar
    # rule decides those pairs
    for i, j in zip(*np.nonzero(np.abs(dist - limit) <= 8 * np.spacing(limit))):
        mask[i, j] = math.hypot(dx[i, j], dy[i, j]) < limit[i, j]
    return mask


def _gating_graph(detections: dict[int, list[Detection]]):
    """Detections numbered in scan order (by frame, then list order) and
    the gated links ``(src, dst)`` between consecutive frames, ordered by
    frame pair, then source, then target."""
    frames = sorted(detections)
    nodes = [d for f in frames for d in detections[f]]
    boxes = np.array([d.box for d in nodes], dtype=float).reshape(-1, 4)
    first = np.cumsum([0] + [len(detections[f]) for f in frames]).tolist()
    src: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    dst: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    for k in range(len(frames) - 1):
        if frames[k + 1] != frames[k] + 1:
            continue
        lo, mid, hi = first[k], first[k + 1], first[k + 2]
        i, j = np.nonzero(gate_mask(boxes[lo:mid], boxes[mid:hi]))
        src.append(i + lo)
        dst.append(j + mid)
    return nodes, np.concatenate(src), np.concatenate(dst)


def generate_initial_tracklets(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    start_id: int = 1,
) -> list[Tracklet]:
    """Greedy DP extraction of profitable detection chains, one connected
    component of the gating graph at a time.  Chains are numbered from
    ``start_id`` by ``(cost, end node)``.

    Returns node-disjoint tracklets; every consecutive pair inside a
    tracklet is one frame apart and within the gating radius.
    """
    nodes, src, dst = _gating_graph(detections)
    n = len(nodes)
    if n == 0:
        return []
    cost = [detection_cost(d.score) for d in nodes]
    endpoint_ok = [d.score > cfg.det_threshold for d in nodes]
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        preds[j].append(i)  # links come by ascending source

    n_components, labels = connected_components(
        coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n)), directed=False
    )
    by_component = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=n_components))[:-1]
    found: list[tuple[float, int, list[int]]] = []
    for component in np.split(by_component, bounds):
        if len(component) > 1:  # a lone detection makes no chain
            found += _extract_chains(component.tolist(), preds, cost, endpoint_ok, cfg)
    found.sort(key=lambda chain: chain[:2])
    return [
        Tracklet(id=start_id + k, detections=tuple(nodes[v] for v in chain))
        for k, (_, _, chain) in enumerate(found)
    ]


def _extract_chains(component, preds, cost, endpoint_ok, cfg: RunConfig):
    """The greedy extraction over one component, whose nodes come in
    ascending (scan) order: ``(cost, end node, chain)`` for each
    profitable chain, in the order taken."""
    local = {v: k for k, v in enumerate(component)}
    preds = [[local[u] for u in preds[v]] for v in component]
    cost = [cost[v] for v in component]
    endpoint_ok = [endpoint_ok[v] for v in component]
    n = len(component)
    entry_cost = -math.log(cfg.entry_exit_prob)
    exit_cost = -math.log(cfg.entry_exit_prob)

    alive = [True] * n
    chains: list[tuple[float, int, list[int]]] = []
    while True:
        # arrive1[v]: best entry chain of exactly one detection ending at v;
        # arrive2[v]: best chain of >= 2 detections ending at v.
        arrive1 = [math.inf] * n
        arrive2 = [math.inf] * n
        back: list[int] = [-1] * n
        best_cost = math.inf
        best_end = -1
        for v in range(n):
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
        chains.append((best_cost, component[best_end], [component[v] for v in chain]))
    return chains


def build_generation_graph(detections: dict[int, list[Detection]], cfg: RunConfig):
    """The same instance as the arrays ``(node_cost, must_cover, entry,
    exit_, src, dst, link_cost)`` of ``flow.min_cost_paths``, for
    cross-checking the DP against the exact free-mode solve.  Detections
    above the threshold may start and end a chain; the other nodes stay
    unused unless a chain runs through them."""
    nodes, src, dst = _gating_graph(detections)
    node_cost = np.array([detection_cost(d.score) for d in nodes])
    endpoint_ok = np.array([d.score > cfg.det_threshold for d in nodes], dtype=bool)
    ends = np.where(endpoint_ok, -math.log(cfg.entry_exit_prob), np.inf)
    return node_cost, np.zeros(len(nodes), dtype=bool), ends, ends, src, dst, np.zeros(len(src))
