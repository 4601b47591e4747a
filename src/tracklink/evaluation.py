"""CLEAR MOT evaluation and supervised learning of the motion-weight
levels.

Matching follows the classic protocol: matches from the previous frame
are kept while their overlap stays above 0.5, remaining candidates are
assigned by Hungarian matching maximizing IoU (pairs at or below 0.5
excluded).  MOTA = 1 - (FN + FP + IDS) / total ground-truth detections.

The weight sweep (``learn_weights``) does one solve per distinct setting
of the flagged rows and one evaluation per distinct chain set: points
whose solves give the same chains share one set of trajectories and one
report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from tracklink import affinity as aff
from tracklink.association import build_trajectories, link
from tracklink.model import Box, RunConfig, Tracklet, iou
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


def _frame_view(tracks: Track, name: str) -> dict[int, list[tuple[int, Box]]]:
    """Map frame -> (id, box) pairs; a track that lists a frame twice
    would be counted once, so it raises ValueError."""
    view: dict[int, list[tuple[int, Box]]] = {}
    for ident in sorted(tracks):
        seen: set[int] = set()
        for frame, box in tracks[ident]:
            if frame in seen:
                raise ValueError(f"{name} id {ident} lists frame {frame} twice")
            seen.add(frame)
            view.setdefault(frame, []).append((ident, box))
    return view


def evaluate(result: Track, ground_truth: Track) -> MetricReport:
    """CLEAR MOT metrics of a tracking result against ground truth; both
    are maps id -> frame-ordered (frame, box) lists.  No track may list a
    frame twice, and no ground-truth track may be empty."""
    if not ground_truth:
        raise ValueError("ground truth is empty")
    for ident, track in ground_truth.items():
        if not track:
            raise ValueError(f"ground-truth id {ident} has an empty track")
    gt_frames = _frame_view(ground_truth, "ground-truth")
    hyp_frames = _frame_view(result, "result")
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

    Each point rescores the tables with ``refit_lambdas``, which touches
    only flagged rows: an unflagged row has lambda = 1 at every point.
    The association graph therefore changes from point to point only
    through the flagged rows' ``(i, j, score, cost)``, and a point whose
    flagged rows repeat an earlier point's reuses that point's chains
    (with no flagged row, every point does).  The chains fix the
    trajectories and so the report, so a point whose chains repeat an
    earlier point's reuses that point's report: one solve per distinct
    flagged-row setting, and one evaluation per distinct chain set."""
    if not ground_truth:
        raise ValueError("weight learning needs labeled ground truth")
    chains_of: dict[tuple, tuple] = {}  # flagged rows -> chains
    reports: dict[tuple, MetricReport] = {}  # chains -> report

    def run(lambda1: float, lambda2: float) -> MetricReport:
        candidate_cfg = replace(cfg, lambda1=lambda1, lambda2=lambda2)
        refit = [aff.refit_lambdas(tbl, candidate_cfg) for tbl in tables]
        key = tuple((r.i, r.j, r.score, r.cost) for t in refit for r in t.rows if r.flagged)
        chains = chains_of.get(key)
        if chains is None:
            chains = chains_of[key] = link(reliable_tracklets, refit, candidate_cfg)
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


def _better(candidate: MetricReport, incumbent: MetricReport) -> bool:
    if candidate.mota > incumbent.mota:
        return True
    return candidate.mota == incumbent.mota and candidate.ids < incumbent.ids
