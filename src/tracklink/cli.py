"""Command-line entry points: track, evaluate, learn-weights, synth,
dump-affinity."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from tracklink.association import track_sequence, prepare_reliable_tracklets
from tracklink.evaluation import evaluate, format_report, learn_weights
from tracklink.model import RunConfig
from tracklink.mot_io import (
    ParseError,
    load_config,
    load_detections,
    load_ground_truth,
    write_trajectories,
)
from tracklink.synth import load_scenario, write_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracklink",
        description="Tracklet association tracking with online-learned affinity models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command that runs the tracker
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--det", required=True, help="detection CSV")
    run.add_argument("--features", help="feature sidecar CSV")
    run.add_argument("--config", help="key=value run configuration")
    run.add_argument("--seed", type=int, help="override the configured rng seed")

    p_track = sub.add_parser("track", parents=[run], help="link detections into trajectories")
    p_track.add_argument("--out", required=True, help="result CSV path")
    p_track.add_argument(
        "--no-appearance",
        action="store_true",
        help="force the appearance affinity to a constant (motion-only run)",
    )
    p_track.add_argument("--summary", help="optional per-trajectory JSON summary path")
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("evaluate", help="CLEAR MOT metrics of a result file")
    p_eval.add_argument("--result", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--json", help="also write the report as JSON")
    p_eval.set_defaults(func=cmd_evaluate)

    p_learn = sub.add_parser(
        "learn-weights", parents=[run], help="supervised motion-weight learning"
    )
    p_learn.add_argument("--gt", required=True)
    p_learn.add_argument("--out", help="write the learned pair as JSON")
    p_learn.set_defaults(func=cmd_learn_weights)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--scenario", required=True, help="scenario JSON")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--seed", type=int, help="override the scenario seed")
    p_synth.set_defaults(func=cmd_synth)

    p_dump = sub.add_parser(
        "dump-affinity", parents=[run], help="write per-segment affinity tables"
    )
    p_dump.add_argument("--out-dir", required=True)
    p_dump.set_defaults(func=cmd_dump_affinity)
    return parser


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, rng_seed=args.seed)
    return cfg


def cmd_track(args) -> int:
    cfg = _load_cfg(args)
    detections = load_detections(args.det, sidecar_path=args.features)
    state = track_sequence(detections, cfg, use_appearance=not args.no_appearance)
    write_trajectories(state.trajectories, args.out)
    if args.summary:
        summary = [
            {
                "id": t.id,
                "tracklets": list(t.tracklet_ids),
                "start": t.start,
                "end": t.end,
            }
            for t in state.trajectories
        ]
        Path(args.summary).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(state.trajectories)} trajectories to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    result = load_ground_truth(args.result)
    gt = load_ground_truth(args.gt)
    report = evaluate(result, gt)
    print(format_report(report))
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def cmd_learn_weights(args) -> int:
    cfg = _load_cfg(args)
    detections = load_detections(args.det, sidecar_path=args.features)
    gt = load_ground_truth(args.gt)
    state = prepare_reliable_tracklets(detections, cfg)
    lambda1, lambda2 = learn_weights(state.reliable_tracklets, gt, cfg, state.tables)
    print(f"lambda1={lambda1:.1f} lambda2={lambda2:.1f}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"lambda1": lambda1, "lambda2": lambda2}) + "\n", encoding="utf-8"
        )
    return 0


def cmd_synth(args) -> int:
    spec = load_scenario(args.scenario)
    paths = write_scenario(spec, args.out_dir, seed=args.seed)
    print(" ".join(str(p) for p in paths.values()))
    return 0


def cmd_dump_affinity(args) -> int:
    cfg = _load_cfg(args)
    detections = load_detections(args.det, sidecar_path=args.features)
    state = prepare_reliable_tracklets(detections, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "i,j,p_m,p_a,flagged,gap,lambda,score,cost"
    for table in state.tables:
        lines = [header]
        for r in table.rows:
            lines.append(
                f"{r.i},{r.j},{r.p_m:.6g},{r.p_a:.6g},{int(r.flagged)},"
                f"{r.gap},{r.lam:.6g},{r.score:.6g},{r.cost:.6g}"
            )
        path = out_dir / f"affinity_segment_{table.segment_index:03d}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(state.tables)} affinity tables to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
