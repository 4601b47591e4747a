"""Tracking benchmark: offline batch tracking of generated scenes.

    python3 bench/run.py --workload appearance --seed 1 --seconds 40 --trace 0

One process, one client, closed loop.  Each workload has three fixed
scenes; the seed sets the order in which a run tracks them.  A set-up
generates one scene, writes it in the documented CSV formats and reads
it back through ``mot_io``; the run sets up every scene, then repeats
whole rounds -- a set-up of the round's scene, ``track_sequence``
on its detections, then ``learn_weights`` on the same prepared state,
``LEARN_REPEATS`` times in an untraced round -- while a further round is expected to end within ``--seconds``.
``track_s`` and ``learn_weights_s`` are means over the three scenes of
each scene's median, ``setup_s`` is the median set-up, and ``mota`` and
``idf1`` are the means over the three scenes, which every untraced run
tracks.
Every round's output is checked against the ground truth and the
independent checks in ``checks.py``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``; per-layer metrics with ``--trace 1``).  The
full record of a run is written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: at its default OpenBLAS takes the second core
# and gives no speed-up on these problem sizes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from scenes import HEIGHT, WIDTH, SceneSpec, describe, make_scene, write_scene  # noqa: E402
from spans import COUNTS, LAYER_TIMES, Tracer, layer_times, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SCENES = 3  # scenes per workload: one layout, three noise draws
DEADLINE_S = 150.0  # wall clock from process start; the run must end by 180 s
SETUPS_PER_ROUND = 3  # a set-up takes 50-250 ms, so one sample mostly measures the host
QUALITY_FLOOR = 0.5  # mota or idf1 below this means the output is broken

# The scenes are fixed (scene_seed), not drawn from the run's seed: any
# change to a scene, even a rotation of its feature space, changes the
# program's refinement splits and links, and with them its work (track_s
# up to 2x between noise draws) and its MOTA (by up to 0.1 on crowd).
# Seed-drawn scenes spread the run-to-run figures past the bounds.  The
# program's own RunConfig.rng_seed stays at its default for the same reason.
WORKLOADS = {
    # metric learning on full Cartesian pairings (segments below _PAIR_CAP)
    "appearance": SceneSpec(
        n_frames=320,
        groups={"crossing": 4, "merge": 3, "bounce": 3},
        life=100,
        grid=(3, 2),
        scene_seed=1,
    ),
    # one 50-frame segment holding 30+ tracklets: capped, sampled pairings
    # and flagged pairs
    "crowd": SceneSpec(
        n_frames=50,
        groups={"crossing": 3, "merge": 2, "bounce": 2},
        life=50,
        grid=(4, 2),
        scene_seed=1,
    ),
    # no feature sidecar: tracklets, Hankel ranks, flow and evaluation only
    "motion": SceneSpec(
        n_frames=400,
        groups={"solo": 40},
        feature_dim=0,
        misses=0,
        scene_seed=1,
    ),
}

# learn_weights calls per untraced round, on the same prepared state.  On
# the feature workloads one call takes well under a second, so a single
# call per round leaves its median at the mercy of the host; the repeats
# give the run's median more samples.  Traced rounds call it once.
LEARN_REPEATS = {"appearance": 2, "crowd": 5, "motion": 1}

END_TO_END = {
    "track_s": "s",
    "learn_weights_s": "s",
    "mota": "ratio",
    "idf1": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunDeadline(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    can swallow it."""


def _on_alarm(signum, frame):
    raise RunDeadline()


def load_program():
    """Import tracklink from the checkout's own source tree."""
    src = ROOT / "src"
    if not (src / "tracklink" / "__init__.py").is_file():
        sys.exit(f"no program source at {src}/tracklink")
    sys.path.insert(0, str(src))
    names = ("affinity", "association", "dynamics", "evaluation", "flow", "metric", "model",
             "mot_io", "tracklets")
    modules = {name: importlib.import_module(f"tracklink.{name}") for name in names}
    if not Path(modules["flow"].__file__).resolve().is_relative_to(src):
        sys.exit(f"tracklink was imported from {modules['flow'].__file__}, not {src}")
    return modules


def setup(spec: SceneSpec, seed: int, index: int, work_dir: Path, mot_io):
    scene = make_scene(spec, seed, index)
    paths = write_scene(scene, work_dir)
    detections = mot_io.load_detections(paths["detections"], sidecar_path=paths.get("features"))
    ground_truth = mot_io.load_ground_truth(paths["ground_truth"])
    return scene, detections, ground_truth


def check_round(state, sweep, learned, detections, ground_truth, cfg, tp) -> dict:
    """Independent checks of one round's outputs; returns its quality."""
    trajectories = state.trajectories
    checks.check_trajectories(trajectories, state.reliable_tracklets, detections, state.tables)
    entry_cost = -math.log(cfg.entry_exit_prob)
    cover = checks.check_cover(trajectories, state.reliable_tracklets, state.tables, entry_cost)
    checks.check_sweep(sweep, learned)
    view = tp["mot_io"].result_view(trajectories)
    report = tp["evaluation"].evaluate(view, ground_truth)
    quality = {
        "mota": report.mota,
        "idf1": checks.idf1(view, ground_truth),
        "ids": report.ids,
        "trajectories": len(trajectories),
        "reliable_tracklets": len(state.reliable_tracklets),
        "cover_cost": cover,
        "learned": list(learned),
    }
    for key in ("mota", "idf1"):
        if not quality[key] > QUALITY_FLOOR:
            raise checks.CheckFailed(f"{key} {quality[key]:.4f} is below {QUALITY_FLOOR}")
    return quality


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tp = load_program()
    spec = WORKLOADS[args.workload]
    tracer = Tracer(tp) if args.trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S - (time.perf_counter() - started))

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "rounds": [],
        "errors": [],
    }
    attempted = failed = 0
    correct = True
    try:
        setup_times, setup_spans, loaded = [], [], {}

        def set_up(index: int):
            """Set-ups happen before the rounds and again, SETUPS_PER_ROUND
            times, before each round, so their median samples the whole run."""
            if tracer:
                tracer.install()
            lo = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            scene, *loaded[index] = setup(spec, args.seed, index, work_dir, tp["mot_io"])
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
                setup_spans.append(self_times(tracer.spans, lo))
            record["scene"] = describe(scene)

        for index in range(SCENES):
            set_up(index)
        cfg = tp["model"].RunConfig(frame_width=WIDTH, frame_height=HEIGHT)

        round_times: list[float] = []
        while True:
            elapsed = time.perf_counter() - started
            must = 2 if tracer else SCENES  # every scene once; untraced and traced
            if len(round_times) >= must and elapsed + statistics.median(round_times) > args.seconds:
                break
            n = len(round_times)
            traced = tracer is not None and n % 2 == 1
            index = ((n // 2 if tracer else n) + args.seed) % SCENES
            for _ in range(SETUPS_PER_ROUND):
                set_up(index)
            detections, ground_truth = loaded[index]
            entry = {"traced": traced, "scene": index}
            if traced:
                tracer.install()
                lo, counts_before, solves_before = len(tracer.spans), tracer.counts.copy(), len(tracer.solves)
            ops = 1 + (1 if traced else LEARN_REPEATS[args.workload])
            attempted += ops
            finished = 0
            learn_times, sweeps = [], []
            t0 = time.perf_counter()
            try:
                state = tp["association"].track_sequence(detections, cfg)
                t1 = time.perf_counter()
                finished = 1
                while finished < ops:
                    sweep: list = []
                    t_learn = time.perf_counter()
                    learned = tp["evaluation"].learn_weights(
                        state.reliable_tracklets, ground_truth, cfg, state.tables, trace=sweep
                    )
                    learn_times.append(time.perf_counter() - t_learn)
                    sweeps.append((sweep, learned))
                    finished += 1
                t2 = time.perf_counter()
            except RunDeadline:
                failed += ops - finished
                correct = False
                record["errors"].append("deadline passed during a round")
                break
            except Exception:
                failed += ops - finished
                correct = False
                record["errors"].append(traceback.format_exc())
                round_times.append(time.perf_counter() - t0)
                continue
            finally:
                if traced:
                    tracer.uninstall()
            round_times.append(t2 - t0)
            entry.update(track_s=t1 - t0, learn_weights_s=learn_times)
            try:
                if any(other != sweeps[0] for other in sweeps[1:]):
                    raise checks.CheckFailed("repeated learn_weights calls disagree")
                entry.update(check_round(state, sweep, learned, detections, ground_truth, cfg, tp))
                if traced:
                    for graph, result in tracer.solves[solves_before:]:
                        checks.check_solve(graph, result)
                    entry["solves_checked"] = len(tracer.solves) - solves_before
            except checks.CheckFailed as exc:
                correct = False
                record["errors"].append(f"check failed: {exc}")
            if traced:
                entry["layers"] = layer_times(self_times(tracer.spans, lo))
                entry["counts"] = dict(tracer.counts - counts_before)
                entry["unaccounted_s"] = t2 - t0 - sum(entry["layers"].values())
                tracer.solves.clear()
            record["rounds"].append(entry)
    except RunDeadline:
        record["errors"].append("deadline passed outside a round")
        correct = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work_dir, ignore_errors=True)

    done = [r for r in record["rounds"] if "track_s" in r]
    quality = {}
    for r in done:
        if quality.setdefault(r["scene"], (r.get("mota"), r.get("idf1"))) != (r.get("mota"), r.get("idf1")):
            correct = False
            record["errors"].append(f"rounds on scene {r['scene']} disagree on (mota, idf1)")
    if not args.trace and len(quality) < SCENES:
        correct = False
        record["errors"].append(f"only {len(quality)} of {SCENES} scenes were tracked")
    metrics = {}
    if done and not args.trace:
        values = {
            "track_s": scene_mean(done, lambda r: [r["track_s"]]),
            "learn_weights_s": scene_mean(done, lambda r: r["learn_weights_s"]),
            "mota": statistics.fmean(q[0] or 0.0 for q in quality.values()),
            "idf1": statistics.fmean(q[1] or 0.0 for q in quality.values()),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    elif {r["traced"] for r in done} == {False, True}:
        metrics = trace_metrics(done, setup_spans, tracer)
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    if tracer:
        record["spans"] = tracer.spans
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for r in done:
        print(json.dumps({k: v for k, v in r.items() if k not in ("layers", "counts")}))
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def scene_mean(rounds: list, samples) -> float:
    """Mean over the scenes of the median of each scene's samples, so that
    a scene tracked once more than another does not tilt the figure."""
    by_scene: dict[int, list] = {}
    for r in rounds:
        by_scene.setdefault(r["scene"], []).extend(samples(r))
    return statistics.fmean(statistics.median(v) for v in by_scene.values())


def trace_metrics(done: list, setup_spans: list, tracer: Tracer) -> dict:
    """Per-layer medians over the traced rounds, set-up layers over the
    set-ups, and the tracing overhead against the untraced rounds."""
    traced = [r for r in done if r["traced"]]
    plain = [r for r in done if not r["traced"]]
    values = {}
    setup_layers = [layer_times(s) for s in setup_spans]
    for name in LAYER_TIMES:
        source = setup_layers if name.startswith("mot_io.") else [r["layers"] for r in traced]
        values[name] = (statistics.median(layer[name] for layer in source), "s")
    for name in COUNTS:
        if name == "mot_io.rows":
            continue
        values[name] = (statistics.median(r["counts"].get(name, 0) for r in traced), "count")
    values["mot_io.rows"] = (tracer.counts["mot_io.rows"] / len(setup_spans), "count")
    track = statistics.median(r["track_s"] for r in traced)
    values["trace.track_s"] = (track, "s")
    values["trace.learn_weights_s"] = (statistics.median(r["learn_weights_s"][0] for r in traced), "s")
    values["trace.overhead_s"] = (track - statistics.median(r["track_s"] for r in plain), "s")
    values["trace.unaccounted_s"] = (statistics.median(r["unaccounted_s"] for r in traced), "s")
    return {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
