"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately share no code with the production solvers: the flow
oracles enumerate node-disjoint path covers by exponential subset DP or
solve a dense n x n assignment over link gains, the grid oracle scans
unit directions.  The metric references keep the plain pair loops that
the production pair collection must match bit for bit and the
penalised metric objective written with ``np.logaddexp``, and the probe
reference takes a max over (score, -frame) in place of the
sample sort; the motion reference keeps the three-SVD rank ratio built
from tuples, the difficulty reference tests every pair of tracklets, and
the initial tracklet reference runs the greedy extraction over the whole
scene with a scalar gate.  The evaluation reference is the per-frame
CLEAR MOT loop (carry, then Hungarian matching in every frame, one
``model.iou`` call per pair) that ``evaluation.evaluate`` must match
field for field.  The association graph reference adds its nodes and
edges one at a time through ``FlowGraph.add_node``/``add_edge``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import linear_sum_assignment

from tracklink.evaluation import IOU_THRESHOLD, MOSTLY_LOST, MOSTLY_TRACKED, MetricReport
from tracklink.flow import SINK, SOURCE, FlowGraph
from tracklink.metric import _negative_source_admissible, _strongest_samples
from tracklink.model import Detection, RunConfig, Tracklet, iou
from tracklink.tracklets import detection_cost


def _path_cost(g: FlowGraph, path, entry, exit_, trans):
    cost = entry[path[0]] + exit_[path[-1]]
    for node in path:
        cost += g.node_cost(node)
    for a, b in zip(path, path[1:]):
        cost += trans[(a, b)]
    return cost


def enumerate_paths(g: FlowGraph):
    """All simple source->sink paths as (frozen node set, node tuple, cost)."""
    entry, exit_, trans = {}, {}, {}
    succ: dict[int, list[int]] = {}
    for u, v, cost in g.edges:
        if u == SOURCE:
            entry[v] = min(cost, entry.get(v, math.inf))
        elif v == SINK:
            exit_[u] = min(cost, exit_.get(u, math.inf))
        else:
            key = (u, v)
            trans[key] = min(cost, trans.get(key, math.inf))
            succ.setdefault(u, []).append(v)
    paths = []

    def extend(path):
        tail = path[-1]
        if tail in exit_:
            paths.append(tuple(path))
        for nxt in succ.get(tail, []):
            if nxt not in path:
                extend(path + [nxt])

    for first in entry:
        extend([first])
    return [
        (frozenset(p), p, _path_cost(g, p, entry, exit_, trans)) for p in paths
    ]


def min_cover_cost(g: FlowGraph, mode: str) -> float:
    """Minimum total cost over all sets of node-disjoint paths that cover
    every must_cover node (mode=cover_all) or over all sets including the
    empty one (mode=free).  Exponential subset DP; intended for <= ~10
    nodes."""
    nodes = sorted(g.node_ids)
    index = {n: i for i, n in enumerate(nodes)}
    must_mask = 0
    for n in g.must_cover_ids:
        must_mask |= 1 << index[n]
    paths = []
    for _, p, cost in enumerate_paths(g):
        mask = 0
        for n in p:
            mask |= 1 << index[n]
        paths.append((mask, cost))

    n_bits = len(nodes)
    full = 1 << n_bits
    best_exact = [math.inf] * full
    best_exact[0] = 0.0
    for subset in range(1, full):
        low_bit = subset & (-subset)
        acc = math.inf
        for mask, cost in paths:
            if mask & low_bit and mask & subset == mask:
                rest = best_exact[subset ^ mask]
                if rest + cost < acc:
                    acc = rest + cost
        best_exact[subset] = acc

    required = must_mask if mode == "cover_all" else 0
    best = math.inf
    for subset in range(full):
        if subset & required == required and best_exact[subset] < best:
            best = best_exact[subset]
    return best


def random_cover_dag(rng, max_nodes=8, dyadic=True):
    """A random feasible DAG: every node has entry and exit edges, so
    cover_all is always satisfiable; costs are dyadic rationals in
    [-2, 2] for exact float arithmetic."""
    n = int(rng.integers(2, max_nodes + 1))

    def cost():
        if dyadic:
            return float(rng.integers(-128, 129)) / 64.0
        return float(rng.uniform(-2.0, 2.0))

    g = FlowGraph()
    for i in range(1, n + 1):
        g.add_node(i, cost=cost(), must_cover=bool(rng.random() < 0.7))
    for i in range(1, n + 1):
        g.add_edge(SOURCE, i, cost())
        g.add_edge(i, SINK, cost())
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.4:
            g.add_edge(i, j, cost())
    return g


def assignment_cover_cost(g: FlowGraph) -> float:
    """Minimum cover_all cost of a DAG whose nodes are all must_cover and
    all have an entry and an exit edge; polynomial, for large graphs.

    Start from every node on its own path.  Taking link u->v joins two
    paths and changes the total by ``c_uv - exit_u - entry_v``; a cover
    is a set of links giving each node at most one successor and one
    predecessor, so the best cover is a dense n x n assignment over the
    gains ``min(0, c_uv - exit_u - entry_v)`` (zero means "no link").
    """
    nodes = sorted(g.node_ids)
    assert set(g.must_cover_ids) == set(nodes)
    index = {n: k for k, n in enumerate(nodes)}
    entry, exit_ = {}, {}
    gain = np.zeros((len(nodes), len(nodes)))
    links = []
    for u, v, cost in g.edges:
        if u == SOURCE:
            entry[v] = min(cost, entry.get(v, math.inf))
        elif v == SINK:
            exit_[u] = min(cost, exit_.get(u, math.inf))
        else:
            links.append((u, v, cost))
    assert set(entry) == set(nodes) and set(exit_) == set(nodes)
    for u, v, cost in links:
        i, j = index[u], index[v]
        gain[i, j] = min(gain[i, j], cost - exit_[u] - entry[v])
    rows, cols = linear_sum_assignment(gain)
    base = math.fsum(g.node_cost(n) + entry[n] + exit_[n] for n in nodes)
    return base + math.fsum(gain[rows, cols].tolist())


def random_tie_dag(rng, n_nodes, entry_cost=-math.log(0.1)):
    """A frame-ordered must-cover DAG like a motion-only association
    graph: every node has entry and exit edges and links forward to a few
    of the next nodes (sometimes twice), with link costs from
    {0, ln 2, ln 3}, so many covers tie on cost.  Returns the graph and
    its edges in insertion order."""
    tie_costs = (0.0, math.log(2.0), math.log(3.0))
    edges = []
    for i in range(1, n_nodes + 1):
        edges.append((SOURCE, i, entry_cost))
        edges.append((i, SINK, entry_cost))
        for j in range(i + 1, min(n_nodes, i + 12) + 1):
            if rng.random() < 0.4:
                edges.append((i, j, tie_costs[int(rng.integers(3))]))
                if rng.random() < 0.1:  # a parallel edge; the cheaper copy counts
                    edges.append((i, j, tie_costs[int(rng.integers(3))]))
    return build_graph(range(1, n_nodes + 1), edges), edges


def build_graph(node_ids, edges) -> FlowGraph:
    """A graph of zero-cost must_cover nodes with the given edges, added
    in the given order."""
    g = FlowGraph()
    for n in node_ids:
        g.add_node(n, must_cover=True)
    for u, v, cost in edges:
        g.add_edge(u, v, cost)
    return g


def reference_association_graph(tracklets, tables, cfg: RunConfig) -> FlowGraph:
    """The association graph built edge by edge: every tracklet a
    zero-cost must-cover node with entry and exit edges of cost
    -log(entry_exit_prob), then one edge per table row of finite cost, in
    table order."""
    g = FlowGraph()
    entry_cost = -math.log(cfg.entry_exit_prob)
    for t in sorted(tracklets, key=lambda t: t.id):
        g.add_node(t.id, cost=0.0, must_cover=True)
        g.add_edge(SOURCE, t.id, entry_cost)
        g.add_edge(t.id, SINK, entry_cost)
    for table in tables:
        for row in table.rows:
            if math.isfinite(row.cost):
                g.add_edge(row.i, row.j, row.cost)
    return g


def grid_search_separating_direction(pos, neg, steps=360):
    """Scan unit directions in the plane for one ordering all positive
    difference vectors below all negative ones; returns the best
    fraction of correctly ordered (p, n) pairs."""
    best = 0.0
    for k in range(steps):
        ang = math.pi * k / steps
        w = np.array([math.cos(ang), math.sin(ang)])
        dp = (pos @ w) ** 2
        dn = (neg @ w) ** 2
        frac = float(np.mean(dp[:, None] < dn[None, :]))
        best = max(best, frac)
    return best


# Reference metric learning: loop-built training pairs, which the production
# code must match bit for bit, and the penalised objective that each
# learned column must be stationary on.


def reference_collect_pairs(target, others, phase, cfg, exit_map=None):
    """(positives, negatives) built one difference vector at a time."""
    samples = _strongest_samples(target, phase, cfg)
    feats = [d.feature for d in samples]
    positives = [
        np.abs(feats[i] - feats[j])
        for i in range(len(feats))
        for j in range(i + 1, len(feats))
    ]
    negatives = []
    for other in sorted(others, key=lambda t: t.id):
        if other.id == target.id:
            continue
        if not _negative_source_admissible(target, other, exit_map):
            continue
        for od in _strongest_samples(other, phase, cfg):
            for z in feats:
                negatives.append(np.abs(z - od.feature))
    dim = feats[0].size
    return (
        np.asarray(positives, dtype=float).reshape(-1, dim),
        np.asarray(negatives, dtype=float).reshape(-1, dim),
    )


def reference_probe(t, cfg):
    """Strongest detection feature within the tracklet's first
    probe_window frames; score ties go to the earliest frame."""
    window = [d for d in t.detections if d.frame < t.start + cfg.probe_window]
    best = max(window, key=lambda d: (d.score, -d.frame))
    return best.feature


def reference_sigmoid(a):
    out = np.empty_like(a)
    mask = a >= 0
    out[mask] = 1.0 / (1.0 + np.exp(-a[mask]))
    ea = np.exp(a[~mask])
    out[~mask] = ea / (1.0 + ea)
    return out


def penalised_metric_loss(W, positives, negatives, ip, iN, mu):
    """sum over matched pairs (ip[k], iN[k]) of
    log(1 + exp(||W^T x_p||^2 - ||W^T x_n||^2)) + mu * m * ||W||_F^2."""
    dp = ((positives @ W) ** 2).sum(axis=1)
    dn = ((negatives @ W) ** 2).sum(axis=1)
    loss = np.logaddexp(0.0, dp[ip] - dn[iN]).sum()
    return float(loss + mu * len(ip) * (W**2).sum())


def penalised_metric_loss_grad(W, positives, negatives, ip, iN, mu):
    """Gradient of ``penalised_metric_loss`` in W, from the gathered
    pairs: pair k adds sigmoid(a_k) * 2 (x_p x_p^T - x_n x_n^T) W."""
    dp = ((positives @ W) ** 2).sum(axis=1)
    dn = ((negatives @ W) ** 2).sum(axis=1)
    sig = np.exp(-np.logaddexp(0.0, dn[iN] - dp[ip]))
    xp, xn = positives[ip], negatives[iN]
    return 2.0 * ((xp.T * sig) @ (xp @ W) - (xn.T * sig) @ (xn @ W) + mu * len(ip) * W)


# Reference motion similarity: both own ranks and the joint rank from
# their own Hankel matrices on every call, the joint sequence built one
# tuple at a time.  The production cue must match it bit for bit.


def reference_hankel(positions):
    length = len(positions)
    if length < 3:
        raise ValueError(f"need at least 3 positions for a Hankel window, got {length}")
    n = length - math.ceil(length / 3) + 1
    block_rows = length - n + 1
    windows = sliding_window_view(np.asarray(positions, dtype=float), n, axis=0)
    return np.ascontiguousarray(windows.reshape(2 * block_rows, n))


def _reference_rank(matrix, tau):
    if tau <= 0:
        raise ValueError("rank tolerance must be positive")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tau * sv[0]))


def reference_joint_centers(a, b):
    positions = [d.center for d in a.detections]
    gap = b.start - a.end - 1
    ax, ay = positions[-1]
    bx, by = b.detections[0].center
    for i in range(1, gap + 1):
        frac = i / (gap + 1)
        positions.append((ax + frac * (bx - ax), ay + frac * (by - ay)))
    positions.extend(d.center for d in b.detections)
    return tuple(positions)


def reference_motion_similarity(a, b, tau):
    if a.length < 3 or b.length < 3:
        return 0.5
    rank_a = _reference_rank(reference_hankel(tuple(d.center for d in a.detections)), tau)
    rank_b = _reference_rank(reference_hankel(tuple(d.center for d in b.detections)), tau)
    rank_joint = _reference_rank(reference_hankel(reference_joint_centers(a, b)), tau)
    if rank_joint == 0:
        return 0.5
    return (rank_a + rank_b) / rank_joint - 1.0


def reference_assess_difficult(tracklets, eta):
    """Ids of both tracklets of every pair whose boxes overlap by at least
    eta times the smaller area at a shared start or a shared end frame,
    found by testing all pairs."""
    flagged = set()
    for t_i, t_k in itertools.combinations(tracklets, 2):
        for f_i, f_k in ((t_i.start, t_k.start), (t_i.end, t_k.end)):
            if f_i != f_k:
                continue
            ax, ay, aw, ah = t_i.detection_at(f_i).box
            bx, by, bw, bh = t_k.detection_at(f_k).box
            iw = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
            ih = max(0.0, min(ay + ah, by + bh) - max(ay, by))
            if iw * ih >= eta * min(aw * ah, bw * bh):
                flagged.update((t_i.id, t_k.id))
    return flagged


# Reference initial tracklets: the greedy extraction over all detections
# of the scene at every step, with a scalar gate.  The per-component
# production pass must give the same chains and the same ids.


def _reference_gated(a: Detection, b: Detection) -> bool:
    # centers closer than half the summed widths per one-frame step
    (ax, ay), (bx, by) = a.center, b.center
    limit = 0.5 * (a.box[2] + b.box[2])
    return math.hypot(bx - ax, by - ay) < limit


def reference_generate_initial_tracklets(
    detections: dict[int, list[Detection]],
    cfg: RunConfig,
    start_id: int = 1,
) -> list[Tracklet]:
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
                if _reference_gated(nodes[i], nodes[j]):
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


def _reference_frame_view(tracks, name: str) -> dict:
    """Map frame -> (id, box) pairs; a track that lists a frame twice
    would be counted once, so it raises ValueError."""
    view: dict = {}
    for ident in sorted(tracks):
        seen: set[int] = set()
        for frame, box in tracks[ident]:
            if frame in seen:
                raise ValueError(f"{name} id {ident} lists frame {frame} twice")
            seen.add(frame)
            view.setdefault(frame, []).append((ident, box))
    return view


def reference_evaluate(result, ground_truth) -> MetricReport:
    """CLEAR MOT metrics of a tracking result against ground truth; both
    are maps id -> frame-ordered (frame, box) lists.  No track may list a
    frame twice, and no ground-truth track may be empty."""
    if not ground_truth:
        raise ValueError("ground truth is empty")
    for ident, track in ground_truth.items():
        if not track:
            raise ValueError(f"ground-truth id {ident} has an empty track")
    gt_frames = _reference_frame_view(ground_truth, "ground-truth")
    hyp_frames = _reference_frame_view(result, "result")
    all_frames = sorted(set(gt_frames) | set(hyp_frames))

    matches: dict[int, int] = {}  # gt id -> hyp id carried across frames
    last_matched_hyp: dict[int, int] = {}
    gt_matched_frames: dict[int, int] = {ident: 0 for ident in ground_truth}
    gt_total_frames: dict[int, int] = {ident: len(track) for ident, track in ground_truth.items()}
    gt_was_matched_prev: dict[int, bool] = {}
    frag = ids = fp = fn = 0
    matched_count = 0
    iou_sum = 0.0

    for frame in all_frames:
        gts = gt_frames.get(frame, [])
        hyps = hyp_frames.get(frame, [])
        gt_boxes = {ident: box for ident, box in gts}
        hyp_boxes = {ident: box for ident, box in hyps}

        frame_matches: dict[int, int] = {}
        # keep previous matches while they still overlap
        for gt_id, hyp_id in matches.items():
            if gt_id in gt_boxes and hyp_id in hyp_boxes:
                overlap = iou(gt_boxes[gt_id], hyp_boxes[hyp_id])
                if overlap > IOU_THRESHOLD:
                    frame_matches[gt_id] = hyp_id
        # Hungarian on the rest, maximizing IoU
        free_gt = [g for g in sorted(gt_boxes) if g not in frame_matches]
        used_hyp = set(frame_matches.values())
        free_hyp = [h for h in sorted(hyp_boxes) if h not in used_hyp]
        if free_gt and free_hyp:
            cost = np.ones((len(free_gt), len(free_hyp)))
            for i, g in enumerate(free_gt):
                for j, h in enumerate(free_hyp):
                    overlap = iou(gt_boxes[g], hyp_boxes[h])
                    if overlap > IOU_THRESHOLD:
                        cost[i, j] = 1.0 - overlap
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                g, h = free_gt[i], free_hyp[j]
                if iou(gt_boxes[g], hyp_boxes[h]) > IOU_THRESHOLD:
                    frame_matches[g] = h

        for gt_id, hyp_id in frame_matches.items():
            matched_count += 1
            iou_sum += iou(gt_boxes[gt_id], hyp_boxes[hyp_id])
            gt_matched_frames[gt_id] += 1
            if gt_id in last_matched_hyp and last_matched_hyp[gt_id] != hyp_id:
                ids += 1
            last_matched_hyp[gt_id] = hyp_id
        for gt_id in gt_boxes:
            was = gt_was_matched_prev.get(gt_id)
            now = gt_id in frame_matches
            if now and was is False:
                frag += 1
            gt_was_matched_prev[gt_id] = now
        fn += len(gt_boxes) - len(frame_matches)
        fp += len(hyp_boxes) - len(frame_matches)
        matches = frame_matches

    total_gt = sum(gt_total_frames.values())
    total_hyp = sum(len(track) for track in result.values())
    mt = pt = ml = 0
    for ident in ground_truth:
        coverage = gt_matched_frames[ident] / gt_total_frames[ident]
        if coverage >= MOSTLY_TRACKED:
            mt += 1
        elif coverage <= MOSTLY_LOST:
            ml += 1
        else:
            pt += 1
    n_frames = len(all_frames) if all_frames else 1
    return MetricReport(
        mota=1.0 - (fn + fp + ids) / total_gt,
        motp=iou_sum / matched_count if matched_count else 0.0,
        recall=matched_count / total_gt,
        precision=matched_count / total_hyp if total_hyp else 0.0,
        faf=fp / n_frames,
        gt=len(ground_truth),
        mt=mt,
        pt=pt,
        ml=ml,
        frag=frag,
        ids=ids,
        matched_count=matched_count,
        ids_per_match=ids / matched_count if matched_count else 0.0,
        fp=fp,
        fn=fn,
    )
