"""Tests of the benchmark's own checks.

    python3 -m pytest bench/test_checks.py -q

The path-cover oracle must agree with the brute-force oracle of the test
suite, and every check must reject a deliberately corrupted output.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import checks  # noqa: E402
import oracles  # noqa: E402
from scenes import HEIGHT, WIDTH, SceneSpec, make_scene, write_scene  # noqa: E402
from tracklink import association, evaluation, mot_io  # noqa: E402
from tracklink.flow import SINK, SOURCE, FlowGraph, FlowResult, solve_paths  # noqa: E402
from tracklink.model import RunConfig  # noqa: E402


def all_must_cover(g: FlowGraph) -> FlowGraph:
    """The same DAG with every node must-cover, as association builds it."""
    out = FlowGraph()
    for n in g.node_ids:
        out.add_node(n, cost=g.node_cost(n), must_cover=True)
    for u, v, cost in g.edges:
        out.add_edge(u, v, cost)
    return out


@pytest.mark.parametrize("dyadic", [True, False])
def test_oracle_matches_brute_force(dyadic):
    rng = np.random.default_rng(11)
    for _ in range(150):
        g = all_must_cover(oracles.random_cover_dag(rng, max_nodes=8, dyadic=dyadic))
        want = oracles.min_cover_cost(g, "cover_all")
        assert checks.graph_cover_cost(g) == pytest.approx(want, rel=1e-12, abs=1e-12)
        checks.check_solve(g, solve_paths(g, mode="cover_all"))


def test_solve_check_rejects_corrupted_results():
    rng = np.random.default_rng(5)
    g = None
    while g is None or checks.graph_cover_cost(g) >= _singletons_cost(g) - 1e-9:
        g = all_must_cover(oracles.random_cover_dag(rng, max_nodes=6))
    good = solve_paths(g, mode="cover_all")
    checks.check_solve(g, good)
    singletons = FlowResult(paths=[[n] for n in g.node_ids], total_cost=_singletons_cost(g))
    dropped = FlowResult(paths=good.paths[1:], total_cost=good.total_cost)
    mislabeled = FlowResult(paths=good.paths, total_cost=good.total_cost - 1.0)
    for bad in (singletons, dropped, mislabeled):
        with pytest.raises(checks.CheckFailed):
            checks.check_solve(g, bad)


def _singletons_cost(g: FlowGraph) -> float:
    costs = {(u, v): c for u, v, c in g.edges}
    return sum(costs[(SOURCE, n)] + g.node_cost(n) + costs[(n, SINK)] for n in g.node_ids)


@pytest.fixture(scope="module")
def tracked():
    spec = SceneSpec(n_frames=70, groups={"crossing": 1, "bounce": 1, "solo": 2}, life=70)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_scene(make_scene(spec, 3), Path(tmp))
        detections = mot_io.load_detections(paths["detections"], sidecar_path=paths["features"])
        ground_truth = mot_io.load_ground_truth(paths["ground_truth"])
    cfg = RunConfig(rng_seed=3, frame_width=WIDTH, frame_height=HEIGHT)
    state = association.track_sequence(detections, cfg)
    sweep = []
    learned = evaluation.learn_weights(
        state.reliable_tracklets, ground_truth, cfg, state.tables, trace=sweep
    )
    return SimpleNamespace(
        detections=detections, gt=ground_truth, cfg=cfg, state=state, sweep=sweep, learned=learned
    )


def _linked(state):
    return next(t for t in state.trajectories if len(t.tracklet_ids) > 1)


def test_checks_accept_the_program_output(tracked):
    s = tracked.state
    checks.check_trajectories(s.trajectories, s.reliable_tracklets, tracked.detections, s.tables)
    checks.check_cover(s.trajectories, s.reliable_tracklets, s.tables, -math.log(0.1))
    checks.check_sweep(tracked.sweep, tracked.learned)


def test_trajectory_check_rejects_corruptions(tracked):
    s = tracked.state
    traj = _linked(s)
    k = s.trajectories.index(traj)
    gap = next(
        i for i, (frame, _) in enumerate(traj.interpolated)
        if frame not in {d.frame for t in s.reliable_tracklets if t.id in traj.tracklet_ids
                         for d in t.detections}
    )
    shifted = list(traj.interpolated)
    frame, box = shifted[gap]
    shifted[gap] = (frame, (box[0] + 0.5, *box[1:]))
    holed = SimpleNamespace(id=traj.id, tracklet_ids=traj.tracklet_ids,
                            interpolated=traj.interpolated[:gap] + traj.interpolated[gap + 1:])
    first = traj.tracklet_ids[0]
    corrupted = {
        "dropped tracklet": [dataclasses.replace(traj, tracklet_ids=traj.tracklet_ids[1:])],
        "shifted gap box": [dataclasses.replace(traj, interpolated=tuple(shifted))],
        "frame gap": [holed],
        "tracklet twice": [traj, SimpleNamespace(id=0, tracklet_ids=(first,), interpolated=())],
    }
    for name, replacement in corrupted.items():
        trajectories = s.trajectories[:k] + replacement + s.trajectories[k + 1:]
        with pytest.raises(checks.CheckFailed):
            checks.check_trajectories(trajectories, s.reliable_tracklets, tracked.detections, s.tables)
    used = (traj.tracklet_ids[0], traj.tracklet_ids[1])
    tables = [
        dataclasses.replace(t, rows=tuple(r for r in t.rows if (r.i, r.j) != used))
        for t in s.tables
    ]
    with pytest.raises(checks.CheckFailed):
        checks.check_trajectories(s.trajectories, s.reliable_tracklets, tracked.detections, tables)


def test_cover_check_rejects_a_costlier_cover(tracked):
    s = tracked.state
    traj = _linked(s)
    k = s.trajectories.index(traj)
    split = [
        SimpleNamespace(tracklet_ids=traj.tracklet_ids[:1]),
        SimpleNamespace(tracklet_ids=traj.tracklet_ids[1:]),
    ]
    with pytest.raises(checks.CheckFailed):
        checks.check_cover(
            s.trajectories[:k] + split + s.trajectories[k + 1:],
            s.reliable_tracklets, s.tables, -math.log(0.1),
        )


def test_sweep_check_rejects_corruptions(tracked):
    sweep, learned = tracked.sweep, tracked.learned
    other = (0.5 if learned[0] != 0.5 else 0.6, learned[1])
    worse = list(sweep)
    at = 11 + checks.SWEEP.index(learned[1])
    worse[at] = (*worse[at][:2], sweep[0][2] - 0.5, worse[at][3])
    for trace, pick in ((sweep[:21], learned), (sweep, other), (worse, learned)):
        with pytest.raises(checks.CheckFailed):
            checks.check_sweep(trace, pick)


def test_idf1_counts_identity_matches():
    a, b = (0.0, 0.0, 10.0, 10.0), (100.0, 0.0, 10.0, 10.0)
    gt = {1: [(f, a) for f in range(1, 11)], 2: [(f, b) for f in range(1, 11)]}
    assert checks.idf1(gt, gt) == 1.0
    swapped = {7: gt[1][:5] + gt[2][5:], 8: gt[2][:5] + gt[1][5:]}
    assert checks.idf1(swapped, gt) == 0.5
    nudged = {7: [(f, (x + 6.0, y, w, h)) for f, (x, y, w, h) in gt[1]]}  # IoU 0.25
    assert checks.idf1(nudged, gt) == 0.0
