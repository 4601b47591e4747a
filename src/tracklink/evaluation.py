"""CLEAR MOT evaluation and supervised learning of the motion-weight
levels.

Matching follows the classic protocol: matches from the previous frame
are kept while their overlap stays above 0.5, remaining candidates are
assigned by Hungarian matching maximizing IoU (pairs at or below 0.5
excluded).  MOTA = 1 - (FN + FP + IDS) / total ground-truth detections.
``evaluate`` works on arrays of all boxes at once: a frame in which no
box has two partners above 0.5 is matched by those partners, and only
the other frames run the carry and the Hungarian step.

The weight sweep (``learn_weights``) builds the association instance
as arrays once, keys each point by the flagged rows whose score can
change (``_sweep_scoring``), and for each new key patches those rows'
costs into a graph and solves it: one solve per distinct setting of
the flagged rows and one evaluation per distinct chain set, as points
whose solves give the same chains share one set of trajectories and
one report.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from operator import itemgetter

import numpy as np
from scipy.optimize import linear_sum_assignment

from tracklink import affinity as aff
from tracklink.association import association_arrays, build_trajectories, graph_from_arrays, link
from tracklink.model import Box, RunConfig, Tracklet
from tracklink.mot_io import result_view

IOU_THRESHOLD = 0.5
MOSTLY_TRACKED = 0.8
MOSTLY_LOST = 0.2

Track = dict[int, list[tuple[int, Box]]]


@dataclass(frozen=True)
class MetricReport:
    mota: float
    motp: float
    recall: float
    precision: float
    faf: float
    gt: int
    mt: int
    pt: int
    ml: int
    frag: int
    ids: int
    matched_count: int
    ids_per_match: float
    fp: int
    fn: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _rows(tracks: Track, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (frame, box) entry of ``tracks`` as arrays of frames, ids and
    box geometry, sorted by frame and then id.  The geometry holds rows
    x, y, x + w, y + h and w * h, computed as ``model.iou`` computes them.
    A track that lists a frame twice would be counted once, so it raises
    ValueError."""
    idents = sorted(tracks)
    entries = [entry for ident in idents for entry in tracks[ident]]
    n = len(entries)
    frames = np.fromiter(map(itemgetter(0), entries), np.int64, n)
    ids = np.repeat(np.array(idents, dtype=np.int64), [len(tracks[i]) for i in idents])
    order = np.lexsort((ids, frames))
    frames, ids = frames[order], ids[order]
    if np.any((frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])):
        for ident in idents:  # name the first repeat in track order
            seen: set[int] = set()
            for frame, _ in tracks[ident]:
                if frame in seen:
                    raise ValueError(f"{name} id {ident} lists frame {frame} twice")
                seen.add(frame)
    boxes = np.fromiter(itertools.chain.from_iterable(map(itemgetter(1), entries)), float, 4 * n)
    x, y, w, h = boxes.reshape(n, 4).T
    geometry = np.empty((5, n))
    np.take(x, order, out=geometry[0])
    np.take(y, order, out=geometry[1])
    w, h = w[order], h[order]
    np.add(geometry[0], w, out=geometry[2])
    np.add(geometry[1], h, out=geometry[3])
    np.multiply(w, h, out=geometry[4])
    return frames, ids, geometry


_PAIR_CHUNK = 1 << 11  # same-frame box pairs scored at once


def _overlaps(gt_at, h_lo, h_n, gt_geom, hyp_geom):
    """(gt row, result row, IoU) of every same-frame pair whose IoU is
    above the threshold, by gt row and then result row.  ``gt_at`` is
    each gt row's frame index; frame k holds result rows h_lo[k] :
    h_lo[k] + h_n[k].  Pairs are scored about ``_PAIR_CHUNK`` at a time,
    so memory stays bounded however long the sequence is."""
    reps = h_n[gt_at]  # pairs of each gt row
    first = np.cumsum(reps) - reps
    cuts = np.flatnonzero(np.diff(first // _PAIR_CHUNK)) + 1
    found = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(reps)]):
        g = np.repeat(np.arange(lo, hi), reps[lo:hi])
        offset = h_lo[gt_at[lo:hi]] - (first[lo:hi] - first[lo])
        h = np.arange(len(g)) + np.repeat(offset, reps[lo:hi])
        found.append(_above_threshold(g, h, gt_geom, hyp_geom))
    return [np.concatenate(part) for part in zip(*found)]


def _above_threshold(g, h, gt_geom, hyp_geom):
    """The pairs (g[i], h[i]) whose IoU is above the threshold, with their
    IoU: ``model.iou``'s, bit for bit."""
    gx, gy, gx2, gy2, g_area = gt_geom
    hx, hy, hx2, hy2, h_area = hyp_geom
    iw = np.minimum(gx2[g], hx2[h]) - np.maximum(gx[g], hx[h])
    cross = iw > 0.0  # x-extents overlap; every other pair has IoU 0
    g, h, iw = g[cross], h[cross], iw[cross]
    ih = np.maximum(0.0, np.minimum(gy2[g], hy2[h]) - np.maximum(gy[g], hy[h]))
    inter = iw * ih
    union = g_area[g] + h_area[h] - inter
    overlap = np.divide(inter, union, out=np.zeros_like(inter), where=inter != 0.0)
    keep = overlap > IOU_THRESHOLD
    return g[keep], h[keep], overlap[keep]


def evaluate(result: Track, ground_truth: Track) -> MetricReport:
    """CLEAR MOT metrics of a tracking result against ground truth; both
    are maps id -> frame-ordered (frame, box) lists.  No track may list a
    frame twice, and no ground-truth track may be empty.

    Each frame keeps the previous frame's matches that still overlap and
    assigns the rest by Hungarian matching.  In a frame where every box
    has at most one partner above the threshold, those partners are
    disjoint pairs cheaper than any other assignment, so the two steps
    return exactly them: only the other frames run the steps."""
    if not ground_truth:
        raise ValueError("ground truth is empty")
    for ident, track in ground_truth.items():
        if not track:
            raise ValueError(f"ground-truth id {ident} has an empty track")
    gt_frames, gt_ids, gt_geom = _rows(ground_truth, "ground-truth")
    hyp_frames, hyp_ids, hyp_geom = _rows(result, "result")
    frames = np.union1d(gt_frames, hyp_frames)
    g_lo = np.searchsorted(gt_frames, frames)
    g_n = np.searchsorted(gt_frames, frames, "right") - g_lo
    h_lo = np.searchsorted(hyp_frames, frames)
    h_n = np.searchsorted(hyp_frames, frames, "right") - h_lo
    gt_at = np.searchsorted(frames, gt_frames)  # frame index of each gt row
    pairs = _overlaps(gt_at, h_lo, h_n, gt_geom, hyp_geom)
    del gt_frames, hyp_frames, gt_geom, hyp_geom  # free them before matching
    match = _match(pairs, gt_at, gt_ids, hyp_ids, (g_lo, g_n, h_lo, h_n))
    ids, iou_sum, matched_count = _switches(match, pairs, gt_at, gt_ids, hyp_ids)
    frag, mt, pt, ml = _coverage(match, gt_at, gt_ids)

    total_gt = len(gt_ids)
    total_hyp = len(hyp_ids)
    fp = total_hyp - matched_count
    fn = total_gt - matched_count
    return MetricReport(
        mota=1.0 - (fn + fp + ids) / total_gt,
        motp=iou_sum / matched_count if matched_count else 0.0,
        recall=matched_count / total_gt,
        precision=matched_count / total_hyp if total_hyp else 0.0,
        faf=fp / len(frames),
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


def _match(pairs, gt_at, gt_ids, hyp_ids, layout) -> np.ndarray:
    """Each gt row's matched pair (an index into ``pairs``), or -1.
    Frame k holds gt rows g_lo[k] : g_lo[k] + g_n[k] and result rows
    h_lo[k] : h_lo[k] + h_n[k] of ``layout``."""
    pair_g, pair_h, pair_iou = pairs
    g_lo, g_n, h_lo, h_n = layout
    pair_at = gt_at[pair_g]
    shared = (np.bincount(pair_g, minlength=len(gt_ids))[pair_g] > 1) | (
        np.bincount(pair_h, minlength=len(hyp_ids))[pair_h] > 1
    )
    contested = np.unique(pair_at[shared])
    match = np.full(len(gt_ids), -1)
    plain = np.flatnonzero(~np.isin(pair_at, contested))
    match[pair_g[plain]] = plain
    # each pair's pair of the same gt and result ids in the frame before, or -1
    pair_gt, pair_hyp = gt_ids[pair_g], hyp_ids[pair_h]
    order = np.lexsort((pair_at, pair_hyp, pair_gt))
    a, b = order[:-1], order[1:]
    same = (pair_gt[a] == pair_gt[b]) & (pair_hyp[a] == pair_hyp[b])
    follows = same & (pair_at[b] == pair_at[a] + 1)
    earlier = np.full(len(pair_g), -1)
    earlier[b[follows]] = a[follows]
    bounds = np.searchsorted(pair_at, [contested, contested + 1]).T.tolist()
    for k, (lo, hi) in zip(contested.tolist(), bounds):
        pg, ph = pair_g[lo:hi].tolist(), pair_h[lo:hi].tolist()
        before = earlier[lo:hi]
        # keep previous matches while they still overlap
        kept = np.flatnonzero((before >= 0) & (match[pair_g[before]] == before)).tolist()
        taken_g = {pg[i] for i in kept}
        taken_h = {ph[i] for i in kept}
        rest = [i for i in range(hi - lo) if pg[i] not in taken_g and ph[i] not in taken_h]
        # Hungarian on the rest, maximizing IoU; when no two of the rest
        # share a box, they are its answer
        if len({pg[i] for i in rest}) == len(rest) == len({ph[i] for i in rest}):
            kept += rest
        else:
            gl, hl = int(g_lo[k]), int(h_lo[k])
            free_g = [g for g in range(gl, gl + int(g_n[k])) if g not in taken_g]
            free_h = [h for h in range(hl, hl + int(h_n[k])) if h not in taken_h]
            row_of = {g: r for r, g in enumerate(free_g)}
            col_of = {h: c for c, h in enumerate(free_h)}
            cost = np.ones((len(free_g), len(free_h)))
            for i in rest:
                cost[row_of[pg[i]], col_of[ph[i]]] = 1.0 - pair_iou[lo + i]
            pair_of = {(pg[i], ph[i]): i for i in rest}
            rows, cols = linear_sum_assignment(cost)
            kept += [
                pair_of[free_g[r], free_h[c]]
                for r, c in zip(rows.tolist(), cols.tolist())
                if cost[r, c] < 1.0  # IoU above the threshold
            ]
        for i in kept:
            match[pg[i]] = lo + i
    return match


def _switches(match, pairs, gt_at, gt_ids, hyp_ids) -> tuple[int, float, int]:
    """IDS, the sum of the matches' IoUs and the number of matches."""
    _, pair_h, pair_iou = pairs
    # each gt id's matches in frame order
    matched = np.flatnonzero(match >= 0)
    matched = matched[np.lexsort((gt_at[matched], gt_ids[matched]))]
    m_gt, m_hyp, m_at = gt_ids[matched], hyp_ids[pair_h[match[matched]]], gt_at[matched]
    same_gt = m_gt[1:] == m_gt[:-1]
    ids = int(np.count_nonzero(same_gt & (m_hyp[1:] != m_hyp[:-1])))
    # The IoUs are summed in the order the per-frame steps list matches:
    # matches carried from earlier frames first, by the frame and then the
    # gt id at which their run of consecutive frames began.
    carries = np.r_[False, same_gt & (m_hyp[1:] == m_hyp[:-1]) & (m_at[1:] == m_at[:-1] + 1)]
    begun = m_at[np.maximum.accumulate(np.where(carries, 0, np.arange(len(matched))))]
    summed = np.cumsum(pair_iou[match[matched]][np.lexsort((m_gt, begun, m_at))])
    return ids, float(summed[-1]) if len(summed) else 0.0, len(matched)


def _coverage(match, gt_at, gt_ids) -> tuple[int, int, int, int]:
    """Frag, and the number of mostly tracked, partly tracked and mostly
    lost gt ids."""
    by_gt = np.lexsort((gt_at, gt_ids))
    tracked, ident = match[by_gt] >= 0, gt_ids[by_gt]
    frag = int(np.count_nonzero((ident[1:] == ident[:-1]) & tracked[1:] & ~tracked[:-1]))
    _, slot = np.unique(gt_ids, return_inverse=True)
    coverage = np.bincount(slot[match >= 0], minlength=slot.max() + 1) / np.bincount(slot)
    mt = int(np.count_nonzero(coverage >= MOSTLY_TRACKED))
    ml = int(np.count_nonzero(coverage <= MOSTLY_LOST))
    return frag, mt, len(coverage) - mt - ml, ml


def format_report(report: MetricReport) -> str:
    rows = [
        ("MOTA", f"{report.mota:.4f}"),
        ("MOTP", f"{report.motp:.4f}"),
        ("Recall", f"{report.recall:.4f}"),
        ("Precision", f"{report.precision:.4f}"),
        ("FAF", f"{report.faf:.4f}"),
        ("GT", str(report.gt)),
        ("MT", str(report.mt)),
        ("PT", str(report.pt)),
        ("ML", str(report.ml)),
        ("Frag", str(report.frag)),
        ("IDS", str(report.ids)),
        ("Matches", str(report.matched_count)),
        ("IDS/match", f"{report.ids_per_match:.6f}"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


_SWEEP = [round(0.1 * k, 1) for k in range(11)]


def learn_weights(
    reliable_tracklets: list[Tracklet],
    ground_truth: Track,
    cfg: RunConfig,
    tables: list[aff.AffinityTable],
    trace: list | None = None,
) -> tuple[float, float]:
    """Greedy two-level sweep of the motion weight (step 0.1, 11 points
    per level).  A candidate replaces the incumbent only when it strictly
    improves MOTA, or matches MOTA with strictly fewer id switches; ties
    keep the smaller weight.  Returns (lambda1, lambda2).

    Only flagged rows change from point to point: an unflagged row has
    lambda = 1 at every point.  The association instance is built as
    arrays once (``association.association_arrays``, over the rows that
    are or can become links), and each point is keyed by how its weights
    score the flagged rows (``_sweep_scoring``).  A point whose key
    repeats an earlier point's reuses that point's chains (with no
    flagged row, every point does); only a new key patches the flagged
    rows' costs into a graph and solves it.  The chains fix the
    trajectories and so the report, so a point whose chains repeat an
    earlier point's reuses that point's report: one solve per distinct
    flagged-row setting, and one evaluation per distinct chain set."""
    if not ground_truth:
        raise ValueError("weight learning needs labeled ground truth")
    rows = [r for t in tables for r in t.rows if r.flagged or math.isfinite(r.cost)]
    ids, src, dst, cost = association_arrays(reliable_tracklets, rows)
    key_of, costs_of = _sweep_scoring(rows, cost, cfg)
    chains_of: dict[tuple, tuple] = {}  # flagged rows' key -> chains
    reports: dict[tuple, MetricReport] = {}  # chains -> report

    def run(lambda1: float, lambda2: float) -> MetricReport:
        point = replace(cfg, lambda1=lambda1, lambda2=lambda2)
        key = key_of(point)
        chains = chains_of.get(key)
        if chains is None:
            graph = graph_from_arrays(ids, src, dst, costs_of(key), point)
            chains = chains_of[key] = link(reliable_tracklets, graph)
        report = reports.get(chains)
        if report is None:
            trajectories = build_trajectories(reliable_tracklets, chains)
            report = reports[chains] = evaluate(result_view(trajectories), ground_truth)
        if trace is not None:
            trace.append((lambda1, lambda2, report.mota, report.ids))
        return report

    learned = [0.0, 0.0]
    for level in (0, 1):
        incumbent: MetricReport | None = None
        best = 0.0
        for value in _SWEEP:
            trial = learned.copy()
            trial[level] = value
            report = run(trial[0], trial[1])
            if incumbent is None or _better(report, incumbent):
                incumbent = report
                best = value
        learned[level] = best
    return learned[0], learned[1]


def _sweep_scoring(rows: list[aff.AffinityRow], cost: np.ndarray, cfg: RunConfig):
    """How the rows' costs (``cost``, one per row) move over the weight
    sweep: returns ``key(point)`` and ``costs(key)``.  Two points share
    a key exactly when ``affinity.link_score`` gives every flagged row
    the same (score, cost) at both, and ``costs`` gives the rows' costs
    at the points of a key.

    Most flagged rows score one way at every weight above 0
    (``affinity.fixed_above_zero``), so they move only when their level's
    weight (lambda1 up to ``gap_bound`` empty frames, lambda2 beyond)
    reaches 0.  The key holds, for each level, whether its weight is 0
    when that moves some row, and the (score, cost) of every other
    flagged row at the point."""
    above, zero = (replace(cfg, lambda1=lam, lambda2=lam) for lam in (1.0, 0.0))
    flagged = [(k, r) for k, r in enumerate(rows) if r.flagged]
    varying = [(k, r) for k, r in flagged if not aff.fixed_above_zero(r.p_m, r.gap)]
    fixed = [(k, r) for k, r in flagged if aff.fixed_above_zero(r.p_m, r.gap)]
    # each fixed row's (score, cost) above weight 0 and at 0, and its level
    scored = [[aff.link_score(r.p_m, r.p_a, True, r.gap, c)[1:] for c in (above, zero)] for _, r in fixed]
    level = np.array([r.gap > cfg.gap_bound for _, r in fixed], dtype=int)
    moves = [any(s[0] != s[1] for s, at in zip(scored, level) if at == lv) for lv in (0, 1)]
    fixed_cost = np.array([[a[1], z[1]] for a, z in scored]).reshape(-1, 2)
    fixed_at, varying_at = [k for k, _ in fixed], [k for k, _ in varying]

    def key(point: RunConfig) -> tuple:
        at_zero = (point.lambda1 == 0.0, point.lambda2 == 0.0)
        return tuple(z and m for z, m in zip(at_zero, moves)) + tuple(
            aff.link_score(r.p_m, r.p_a, True, r.gap, point)[1:] for _, r in varying
        )

    def costs(key: tuple) -> np.ndarray:
        out = cost.copy()
        out[fixed_at] = fixed_cost[np.arange(len(fixed_at)), np.array(key[:2], dtype=int)[level]]
        out[varying_at] = [c for _, c in key[2:]]
        return out

    return key, costs


def _better(candidate: MetricReport, incumbent: MetricReport) -> bool:
    if candidate.mota > incumbent.mota:
        return True
    return candidate.mota == incumbent.mota and candidate.ids < incumbent.ids
