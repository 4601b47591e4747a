"""Initial tracklet generation from raw detections.

Detections become graph nodes whose cost is the negative log-odds of the
detector score.  Links are only allowed between consecutive frames
within a spatial gate; a link ``i -> j`` costs ``_LINK_BETA * d**2 /
w**2``, with ``d`` the step between the box centres and ``w`` the mean
of the two box widths, the network-flow link cost of Zhang, Li & Nevatia
(CVPR 2008) and Pirsiavash, Ramanan & Fowlkes (CVPR 2011).  Chains must
start and end at detections scoring above the configured threshold and
pay the entry and exit costs there.  ``flow.min_cost_paths`` finds the
cheapest set of node-disjoint chains exactly; chains of one detection
are dropped.  The cost has no velocity term, so two equal boxes that
cross head-on come out as a bounce.

Chains are numbered by ``(cost, end node)``, where the cost sums the
entry cost, the detection costs and the exit cost in chain order (links
left out) and nodes are numbered in scan order, by frame, then list
order.
"""

from __future__ import annotations

import math

import numpy as np

from tracklink import flow
from tracklink.model import Detection, RunConfig, Tracklet

# weight of the squared centre step, in mean box widths, on a link
_LINK_BETA = 2.0


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


def build_generation_graph(detections: dict[int, list[Detection]], cfg: RunConfig):
    """The detections in scan order and their instance as the arrays
    ``(node_cost, must_cover, entry, exit_, src, dst, link_cost)`` of
    ``flow.min_cost_paths``.  The gated links ``src -> dst`` go between
    consecutive frames, ordered by frame pair, then source, then target.
    Detections above the threshold may start and end a chain; the other
    nodes stay unused unless a chain runs through them."""
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
    src, dst = np.concatenate(src), np.concatenate(dst)
    centres = boxes[:, :2] + boxes[:, 2:] / 2.0
    dx, dy = (centres[dst] - centres[src]).T
    width = (boxes[src, 2] + boxes[dst, 2]) / 2.0
    link_cost = _LINK_BETA * (dx * dx + dy * dy) / (width * width)

    node_cost = np.array([detection_cost(d.score) for d in nodes])
    endpoint_ok = np.array([d.score > cfg.det_threshold for d in nodes], dtype=bool)
    ends = np.where(endpoint_ok, -math.log(cfg.entry_exit_prob), np.inf)
    return nodes, (node_cost, np.zeros(len(nodes), dtype=bool), ends, ends, src, dst, link_cost)


def generate_initial_tracklets(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    start_id: int = 1,
) -> list[Tracklet]:
    """The minimum-cost set of chains of at least two detections,
    numbered from ``start_id`` by ``(cost, end node)``.

    Returns node-disjoint tracklets; every consecutive pair inside a
    tracklet is one frame apart and within the gating radius.
    """
    nodes, instance = build_generation_graph(detections, cfg)
    node_cost, _, entry, exit_, *_ = instance
    found = []
    for path in flow.min_cost_paths(*instance):
        if len(path) < 2:
            continue
        cost = entry[path[0]]
        for v in path:  # in chain order: sum() is compensated from Python 3.12
            cost += node_cost[v]
        found.append((cost + exit_[path[-1]], path[-1], path))
    found.sort(key=lambda chain: chain[:2])
    return [
        Tracklet(id=start_id + k, detections=tuple(nodes[v] for v in path))
        for k, (_, _, path) in enumerate(found)
    ]
