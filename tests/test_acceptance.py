"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities before asserting."""

import math
import time

import numpy as np
import pytest

from tracklink.association import prepare_reliable_tracklets, track_sequence
from tracklink.dynamics import build_hankel, estimate_rank, motion_similarity
from tracklink.evaluation import evaluate, learn_weights
from tracklink.flow import solve_paths
from tracklink.metric import collect_pairs, learn_metric, refine_tracklets
from tracklink.model import RunConfig
from tracklink.mot_io import load_detections, result_view, write_detections, write_trajectories
from tracklink.synth import OcclusionSpec, ScenarioSpec, TargetSpec, generate_scenario

from conftest import cluster_features, make_tracklet, two_cluster_centers
from oracles import min_cover_cost, random_cover_dag

TAU = 0.01


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------- scenarios


def crossing_spec(seed):
    """Two targets crossing lanes with a 10-frame mutual occlusion."""
    return ScenarioSpec(
        n_frames=90,
        targets=(
            TargetSpec(id=1, start=1, end=90, box=(60.0, 200.0, 16.0, 32.0),
                       velocity=(5.0, 0.5)),
            TargetSpec(id=2, start=1, end=90, box=(510.0, 240.0, 16.0, 32.0),
                       velocity=(-5.0, -0.5)),
        ),
        occlusions=(OcclusionSpec(targets=(1, 2), frames=(41, 50)),),
        pos_noise=0.5,
        feature_noise=1.0,
        cluster_sep=4.0,
        seed=seed,
    )


def bounce_spec(seed):
    """Equal-speed head-on pair that bounces exactly where it meets (frame
    42), hidden for the 9 frames after the exchange: the wrong-identity
    join continues each incoming line perfectly (motion favors it) while
    the true join reverses direction.  Appearance clusters stay separable,
    so only the appearance cue can recover the identities."""
    return ScenarioSpec(
        n_frames=90,
        targets=(
            TargetSpec(id=1, start=1, end=90, box=(60.0, 200.0, 16.0, 32.0),
                       velocity=(5.0, 0.0)),
            TargetSpec(id=2, start=1, end=90, box=(470.0, 200.0, 16.0, 32.0),
                       velocity=(-5.0, 0.0)),
        ),
        occlusions=(
            OcclusionSpec(targets=(1, 2), frames=(43, 51), swap_velocities=True,
                          swap_frame=42),
        ),
        pos_noise=0.3,
        feature_noise=1.0,
        cluster_sep=4.0,
        seed=seed,
    )


def run_tracking(spec_obj, seed, use_appearance=True, refine_iters=2):
    detections, gt = generate_scenario(spec_obj)
    cfg = RunConfig(rng_seed=seed, refine_iters=refine_iters)
    state = track_sequence(detections, cfg, use_appearance=use_appearance)
    return evaluate(result_view(state.trajectories), gt)


# ---------------------------------------------------------------- criteria


def test_criterion_1_flow_solver_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    exact = 0
    n_graphs = 200
    for _ in range(n_graphs):
        g = random_cover_dag(rng, max_nodes=8)
        res = solve_paths(g, mode="cover_all")
        exact += res.total_cost == min_cover_cost(g, "cover_all")
    elapsed = time.monotonic() - start
    ok = exact == n_graphs and elapsed < 10.0
    report(1, ok, f"{exact}/{n_graphs} exact vs enumeration, {elapsed:.1f}s")
    assert exact == n_graphs
    assert elapsed < 10.0


def test_criterion_2_hankel_ranks():
    def rank_of(points):
        return estimate_rank(build_hankel(points), TAU)

    const = [(200.0, 150.0)] * 12
    cv = [(10.0 * t + 50.0, 20.0 * t + 30.0) for t in range(1, 13)]
    quad = [
        (3.0 * t * t - 72.0 * t + 500.0, -2.5 * t * t + 60.0 * t + 40.0)
        for t in range(1, 25)
    ]
    exact_ok = rank_of(const) == 1 and rank_of(cv) == 2 and rank_of(quad) == 3

    long_cv = [(10.0 * t + 50.0, 20.0 * t + 30.0) for t in range(1, 25)]
    a = make_tracklet(1, 1, centers=long_cv[:12])
    b = make_tracklet(2, 13, centers=long_cv[12:])
    p_split = motion_similarity(a, b, TAU)
    ind_a = make_tracklet(1, 1, centers=[(10.0 * t + 50, 20.0 * t + 30) for t in range(1, 13)])
    ind_b = make_tracklet(2, 16, centers=[(300.0 - 8.0 * t, 15.0 * t + 200) for t in range(1, 13)])
    p_indep = motion_similarity(ind_a, ind_b, TAU)

    noisy_hits = {"const": 0, "cv": 0, "quad": 0}
    for sd in range(100):
        r = np.random.default_rng(sd)
        noise = lambda pts: [(x + r.normal(0, 0.5), y + r.normal(0, 0.5)) for x, y in pts]
        noisy_hits["const"] += rank_of(noise(const)) == 1
        noisy_hits["cv"] += rank_of(noise(cv)) == 2
        noisy_hits["quad"] += rank_of(noise(quad)) == 3
    noisy_ok = all(v >= 90 for v in noisy_hits.values())

    ok = exact_ok and abs(p_split - 1.0) <= 0.02 and p_indep <= 0.1 and noisy_ok
    report(
        2,
        ok,
        f"ranks exact={exact_ok}, split P_m={p_split:.3f}, indep P_m={p_indep:.3f}, "
        f"noisy hits={noisy_hits}",
    )
    assert exact_ok
    assert abs(p_split - 1.0) <= 0.02
    assert p_indep <= 0.1
    assert noisy_ok


def test_criterion_3_metric_learning():
    cfg = RunConfig()
    ordered = 0
    total = 0
    ortho_worst = 0.0
    monotone = True
    for sd in range(50):
        rng = np.random.default_rng(1000 + sd)
        cA, cB = two_cluster_centers(rng, dim=32, sep_radius=4.0)
        t1 = make_tracklet(
            1, 1, centers=[(50.0 + 2 * i, 60.0) for i in range(12)],
            features=cluster_features(rng, cA, 12),
        )
        t2 = make_tracklet(
            2, 1, centers=[(50.0 + 2 * i, 200.0) for i in range(12)],
            features=cluster_features(rng, cB, 12),
        )
        for target, own, other in ((t1, cA, cB), (t2, cB, cA)):
            pairs = collect_pairs(target, [t1, t2], "initial", cfg)
            metric = learn_metric(pairs, cfg)
            for curve in metric.column_curves:
                if np.any(np.diff(curve) > 1e-9):
                    monotone = False
            gram = metric.W.T @ metric.W
            off = np.abs(gram - np.diag(np.diag(gram)))
            ortho_worst = max(ortho_worst, float(off.max()) if off.size else 0.0)
            held_own = own + rng.normal(0, 1.0, (40, 32))
            held_own2 = own + rng.normal(0, 1.0, (40, 32))
            held_other = other + rng.normal(0, 1.0, (40, 32))
            dp = np.sum((np.abs(held_own - held_own2) @ metric.W) ** 2, axis=1)
            dn = np.sum((np.abs(held_own - held_other) @ metric.W) ** 2, axis=1)
            ordered += int((dp[:, None] < dn[None, :]).sum())
            total += dp.size * dn.size
    frac = ordered / total
    ok = frac >= 0.95 and monotone and ortho_worst <= 1e-8
    report(
        3,
        ok,
        f"held-out ordering {frac:.4f}, monotone={monotone}, max |w_i.w_j|={ortho_worst:.2e}",
    )
    assert frac >= 0.95
    assert monotone
    assert ortho_worst <= 1e-8


def _swap_tracklets(rng, swap_at, length=30):
    cA, cB = two_cluster_centers(rng)
    fa = cluster_features(rng, cA, length)
    fb = cluster_features(rng, cB, length)
    f1 = fa[: swap_at - 1] + fb[swap_at - 1 :]
    f2 = fb[: swap_at - 1] + fa[swap_at - 1 :]
    t1 = make_tracklet(1, 1, centers=[(50.0 + 2 * i, 60.0) for i in range(length)], features=f1)
    t2 = make_tracklet(2, 1, centers=[(50.0 + 2 * i, 120.0) for i in range(length)], features=f2)
    return t1, t2


def test_criterion_4_refinement():
    cfg = RunConfig()
    swap_at = 18
    detected = 0
    for sd in range(50):
        rng = np.random.default_rng(2000 + sd)
        t1, t2 = _swap_tracklets(rng, swap_at)
        out = refine_tracklets([t1, t2], cfg)
        starts = {t.start for t in out} - {1}
        if any(abs(s - swap_at) <= cfg.split_run for s in starts):
            detected += 1
    clean = 0
    for sd in range(50):
        rng = np.random.default_rng(3000 + sd)
        cA, cB = two_cluster_centers(rng)
        t1 = make_tracklet(
            1, 1, centers=[(50.0 + 2 * i, 60.0) for i in range(30)],
            features=cluster_features(rng, cA, 30),
        )
        t2 = make_tracklet(
            2, 1, centers=[(50.0 + 2 * i, 120.0) for i in range(30)],
            features=cluster_features(rng, cB, 30),
        )
        out = refine_tracklets([t1, t2], cfg)
        clean += len(out) == 2 and all(t.length == 30 for t in out)
    ok = detected >= 45 and clean >= 49
    report(4, ok, f"swap detected {detected}/50 (need 45), clean intact {clean}/50 (need 49)")
    assert detected >= 45
    assert clean >= 49


def _fused_vs_motion_only_ids(seed):
    """IDS of the full fused model (appearance + motion + learned weights)
    against the unweighted motion-only baseline (appearance forced
    constant, weight fixed at 1), on the motion-ambiguous bounce
    scenario."""
    import dataclasses

    from tracklink.affinity import refit_lambdas
    from tracklink.association import associate

    detections, gt = generate_scenario(bounce_spec(seed))
    cfg = RunConfig(rng_seed=seed)

    fused_state = prepare_reliable_tracklets(detections, cfg, use_appearance=True)
    l1, l2 = learn_weights(fused_state.reliable_tracklets, gt, cfg, fused_state.tables)
    tuned = dataclasses.replace(cfg, lambda1=l1, lambda2=l2)
    tables = [refit_lambdas(t, tuned) for t in fused_state.tables]
    fused_trajs = associate(fused_state.reliable_tracklets, tables, tuned)
    fused_ids = evaluate(result_view(fused_trajs), gt).ids

    baseline_cfg = dataclasses.replace(cfg, lambda1=1.0, lambda2=1.0)
    motion_state = prepare_reliable_tracklets(detections, baseline_cfg, use_appearance=False)
    motion_trajs = associate(motion_state.reliable_tracklets, motion_state.tables, baseline_cfg)
    motion_ids = evaluate(result_view(motion_trajs), gt).ids
    return fused_ids, motion_ids


def test_criterion_5_end_to_end_identity():
    n_seeds = 20
    good = 0
    slowest = 0.0
    for sd in range(n_seeds):
        start = time.monotonic()
        rep = run_tracking(crossing_spec(4000 + sd), 4000 + sd)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        if rep.ids == 0 and rep.mota >= 0.95:
            good += 1
    ids_on = []
    ids_off = []
    for sd in range(n_seeds):
        fused, motion_only = _fused_vs_motion_only_ids(5000 + sd)
        ids_on.append(fused)
        ids_off.append(motion_only)
    mean_on = float(np.mean(ids_on))
    mean_off = float(np.mean(ids_off))
    ok = good >= 18 and slowest < 30.0 and mean_off > mean_on
    report(
        5,
        ok,
        f"crossing good {good}/20 (need 18), slowest {slowest:.1f}s, "
        f"bounce IDS fused {mean_on:.2f} vs appearance-disabled {mean_off:.2f}",
    )
    assert good >= 18
    assert slowest < 30.0
    assert mean_off > mean_on


def test_criterion_6_refinement_repetition_curve():
    diffs = []
    for sd in range(5):
        m1 = run_tracking(crossing_spec(6000 + sd), 6000 + sd, refine_iters=1).mota
        m2 = run_tracking(crossing_spec(6000 + sd), 6000 + sd, refine_iters=2).mota
        diffs.append(abs(m1 - m2))
    for sd in range(5):
        m1 = run_tracking(bounce_spec(6100 + sd), 6100 + sd, refine_iters=1).mota
        m2 = run_tracking(bounce_spec(6100 + sd), 6100 + sd, refine_iters=2).mota
        diffs.append(abs(m1 - m2))
    worst = max(diffs)
    ok = worst <= 0.02
    report(6, ok, f"max |MOTA(1 pass) - MOTA(2 passes)| = {worst:.4f}")
    assert worst <= 0.02


def test_criterion_7_weight_learning():
    budgets_ok = True
    lambdas = []
    mota_gains_ok = True
    for sd in range(20):
        detections, gt = generate_scenario(bounce_spec(7000 + sd))
        cfg = RunConfig(rng_seed=7000 + sd)
        state = prepare_reliable_tracklets(detections, cfg)
        trace = []
        l1, l2 = learn_weights(state.reliable_tracklets, gt, cfg, state.tables, trace=trace)
        if len(trace) != 22 or len([t for t in trace[:11]]) != 11:
            budgets_ok = False
        if not (0.0 <= l1 <= 1.0 and 0.0 <= l2 <= 1.0):
            budgets_ok = False
        zero_mota = trace[0][2]
        final_entries = [t for t in trace if (t[0], t[1]) == (l1, l2)]
        if final_entries and final_entries[-1][2] < zero_mota:
            mota_gains_ok = False
        lambdas.append((l1, l2))
    median_l1 = float(np.median([l for l, _ in lambdas]))
    ok = budgets_ok and mota_gains_ok and median_l1 <= 0.3
    report(
        7,
        ok,
        f"11 solves/level x2={budgets_ok}, MOTA >= MOTA(0,0)={mota_gains_ok}, "
        f"median lambda1={median_l1:.2f} (need <= 0.3)",
    )
    assert budgets_ok
    assert mota_gains_ok
    assert median_l1 <= 0.3


def test_criterion_8_evaluation_correctness():
    box_a = (0.0, 0.0, 10.0, 10.0)
    box_b = (100.0, 0.0, 10.0, 10.0)
    gt = {
        1: [(f, box_a) for f in range(1, 21)],
        2: [(f, box_b) for f in range(1, 21)],
    }
    swap = {
        7: [(f, box_a) for f in range(1, 11)] + [(f, box_b) for f in range(11, 21)],
        8: [(f, box_b) for f in range(1, 11)] + [(f, box_a) for f in range(11, 21)],
    }
    rep = evaluate(swap, gt)
    swap_ok = (
        rep.ids == 2
        and rep.frag == 0
        and rep.mota == pytest.approx(0.95)
        and rep.motp == pytest.approx(1.0)
    )
    hole = {5: [(f, box_a) for f in range(1, 21) if not 8 <= f <= 12]}
    rep2 = evaluate(hole, {1: gt[1]})
    hole_ok = (
        rep2.fn == 5
        and rep2.frag == 1
        and rep2.ids == 0
        and rep2.mota == pytest.approx(0.75)
    )
    spurious = {
        1: [(f, box_a) for f in range(1, 21)],
        2: [(f, (400.0, 400.0, 10.0, 10.0)) for f in range(1, 6)],
    }
    rep3 = evaluate(spurious, {1: gt[1]})
    fp_ok = rep3.fp == 5 and rep3.mota == pytest.approx(0.75) and rep3.ids == 0
    ok = swap_ok and hole_ok and fp_ok
    report(8, ok, f"swap case={swap_ok}, hole case={hole_ok}, false-positive case={fp_ok}")
    assert swap_ok and hole_ok and fp_ok


def test_criterion_9_determinism(tmp_path):
    spec_obj = crossing_spec(9000)
    detections, _ = generate_scenario(spec_obj)
    det_a = tmp_path / "det_a.csv"
    det_b = tmp_path / "det_b.csv"
    write_detections(detections, det_a, tmp_path / "feat_a.csv")
    write_detections(detections, det_b, tmp_path / "feat_b.csv")
    outputs = []
    for det, feat, out in (
        (det_a, "feat_a.csv", "res_a.csv"),
        (det_b, "feat_b.csv", "res_b.csv"),
    ):
        loaded = load_detections(det, sidecar_path=tmp_path / feat)
        state = track_sequence(loaded, RunConfig(rng_seed=1))
        write_trajectories(state.trajectories, tmp_path / out)
        outputs.append((tmp_path / out).read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(9, ok, f"result files identical={outputs[0] == outputs[1]}, {len(outputs[0])} bytes")
    assert ok
