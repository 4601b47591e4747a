import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tracklink.metric as metric_module
from tracklink.metric import (
    _PAIR_CAP,
    PairSet,
    TargetMetric,
    collect_pairs,
    identity_metric,
    learn_metric,
    learn_segment_metrics,
    metric_distance,
    probe,
    refine_tracklets,
    split_threshold,
)
from tracklink.association import track_sequence
from tracklink.model import ExitMap, RunConfig

from conftest import bench_scene, cluster_features, make_tracklet, two_cluster_centers
from oracles import (
    penalised_metric_loss,
    penalised_metric_loss_grad,
    reference_collect_pairs,
    reference_probe,
    reference_sigmoid,
)


def feature_tracklet(tid, start, length, center, rng, noise=1.0, scores=None, x0=50.0):
    feats = cluster_features(rng, center, length, noise)
    centers = [(x0 + 2.0 * i, 60.0) for i in range(length)]
    return make_tracklet(tid, start, centers=centers, scores=scores, features=feats)


class TestCollectPairs:
    def test_positive_combinatorics(self, rng):
        cA, cB = two_cluster_centers(rng)
        target = feature_tracklet(1, 1, 10, cA, rng)
        other = feature_tracklet(2, 1, 10, cB, rng, x0=300.0)
        pairs = collect_pairs(target, [target, other], "initial", RunConfig())
        assert len(pairs.positives) == math.comb(4, 2)
        assert len(pairs.negatives) == 16

    def test_initial_phase_restricts_to_probe_window(self, rng):
        cA, _ = two_cluster_centers(rng)
        scores = [0.7] * 8 + [0.99] * 12  # strongest sit outside the first M frames
        target = feature_tracklet(1, 1, 20, cA, rng, scores=scores)
        cfg = RunConfig()
        samples_initial = collect_pairs(target, [], "initial", cfg)
        assert len(samples_initial.positives) == math.comb(4, 2)
        # reliable phase may use the full length; the strongest are now the 0.99s
        from tracklink.metric import _strongest_samples

        init_frames = [d.frame for d in _strongest_samples(target, "initial", cfg)]
        rel_frames = [d.frame for d in _strongest_samples(target, "reliable", cfg)]
        assert all(f <= 8 for f in init_frames)
        assert all(f >= 9 for f in rel_frames)

    def test_exit_constraint_excludes_exited_predecessor(self, rng):
        cA, cB = two_cluster_centers(rng)
        exit_map = ExitMap(width=640, height=480, band=24.0)
        target = feature_tracklet(1, 30, 10, cA, rng, x0=300.0)
        # ends before the target starts, last center deep inside the border band
        exited = feature_tracklet(2, 1, 10, cB, rng, x0=2.0)
        assert exit_map.exited(exited)
        pairs = collect_pairs(target, [exited], "initial", RunConfig(), exit_map=exit_map)
        assert len(pairs.negatives) == 0

    def test_interior_predecessor_contributes(self, rng):
        cA, cB = two_cluster_centers(rng)
        exit_map = ExitMap(width=640, height=480, band=24.0)
        target = feature_tracklet(1, 30, 10, cA, rng, x0=300.0)
        interior = feature_tracklet(2, 1, 10, cB, rng, x0=200.0)
        pairs = collect_pairs(target, [interior], "initial", RunConfig(), exit_map=exit_map)
        assert len(pairs.negatives) == 16

    def test_missing_features_error(self):
        bare = make_tracklet(1, 1, length=6)
        with pytest.raises(ValueError, match="without features"):
            collect_pairs(bare, [], "initial", RunConfig())

    def test_segment_selects_each_tracklets_samples_once_per_phase(self, rng, monkeypatch):
        cA, cB = two_cluster_centers(rng)
        tracklets = [
            feature_tracklet(tid, 1 + 3 * tid, 10, cA if tid % 2 else cB, rng, x0=60.0 * tid)
            for tid in range(1, 7)
        ]
        calls = []
        select = metric_module._strongest_samples
        monkeypatch.setattr(
            metric_module,
            "_strongest_samples",
            lambda t, phase, cfg: calls.append((t.id, phase)) or select(t, phase, cfg),
        )
        for phase in ("initial", "reliable", "initial"):
            learn_segment_metrics(tracklets, phase, RunConfig())
        assert sorted(calls) == sorted((t.id, p) for t in tracklets for p in ("initial", "reliable"))

    @pytest.mark.parametrize("phase", ["initial", "reliable"])
    def test_collect_pairs_matches_loop(self, rng, phase):
        cA, cB = two_cluster_centers(rng)
        exit_map = ExitMap(width=640, height=480, band=24.0)
        target = feature_tracklet(3, 30, 12, cA, rng, x0=300.0)
        others = [
            feature_tracklet(1, 1, 10, cB, rng, x0=2.0),  # exited before the target
            feature_tracklet(2, 1, 10, cB, rng, x0=200.0),
            feature_tracklet(5, 32, 3, cA, rng, x0=400.0),
            feature_tracklet(4, 35, 20, cB, rng, x0=100.0),
            target,
        ]
        cfg = RunConfig()
        for em in (None, exit_map):
            pairs = collect_pairs(target, others, phase, cfg, exit_map=em)
            positives, negatives = reference_collect_pairs(target, others, phase, cfg, em)
            assert pairs.positives.dtype == positives.dtype
            assert pairs.negatives.dtype == negatives.dtype
            assert np.array_equal(pairs.positives, positives)
            assert np.array_equal(pairs.negatives, negatives)
        lone = collect_pairs(feature_tracklet(6, 1, 1, cA, rng), [], phase, cfg)
        assert lone.positives.shape == (0, 32) and lone.negatives.shape == (0, 32)


class TestLearnMetric:
    def test_identical_sides_stall_at_log2(self, rng):
        vecs = np.abs(rng.normal(0, 1.0, (6, 8)))
        pairs = PairSet(target_id=1, positives=vecs, negatives=vecs.copy())
        metric = learn_metric(pairs, RunConfig())
        assert metric.rank == 1
        n_pairs = 36
        final = metric.column_curves[-1][-1]
        assert final <= n_pairs * math.log(2.0) * 1.02
        assert final >= n_pairs * math.log(2.0) * 0.999

    def test_separable_2d_toy(self, rng):
        from oracles import grid_search_separating_direction

        pos = np.column_stack([np.abs(rng.normal(0, 1, 40)), np.full(40, 1e-3)])
        neg = np.column_stack([np.full(40, 1e-3), np.abs(rng.normal(2, 0.5, 40))])
        assert grid_search_separating_direction(pos, neg) == 1.0
        metric = learn_metric(PairSet(target_id=1, positives=pos, negatives=neg), RunConfig())
        held_pos = np.column_stack([np.abs(rng.normal(0, 1, 50)), np.full(50, 1e-3)])
        held_neg = np.column_stack([np.full(50, 1e-3), np.abs(rng.normal(2, 0.5, 50))])
        dp = np.sum((held_pos @ metric.W) ** 2, axis=1)
        dn = np.sum((held_neg @ metric.W) ** 2, axis=1)
        assert np.all(dp[:, None] < dn[None, :])

    def test_orthogonality(self, rng):
        cA, cB = two_cluster_centers(rng)
        pos = np.abs(rng.normal(0, 1.4, (6, 32)))
        neg = np.abs((cA - cB) + rng.normal(0, 1.4, (20, 32)))
        metric = learn_metric(PairSet(target_id=1, positives=pos, negatives=neg), RunConfig())
        gram = metric.W.T @ metric.W
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8

    def test_loss_monotone(self, rng):
        cA, cB = two_cluster_centers(rng)
        pos = np.abs(rng.normal(0, 1.4, (6, 32)))
        neg = np.abs((cA - cB) + rng.normal(0, 1.4, (20, 32)))
        metric = learn_metric(PairSet(target_id=1, positives=pos, negatives=neg), RunConfig())
        finals = []
        for curve in metric.column_curves:
            diffs = np.diff(curve)
            assert np.all(diffs <= 1e-9)
            finals.append(curve[-1])
        assert all(b <= a + 1e-9 for a, b in zip(finals, finals[1:]))
        assert finals[0] <= metric.initial_loss + 1e-9 or len(finals) == 1

    def test_empty_side_errors(self, rng):
        vecs = np.abs(rng.normal(0, 1, (4, 8)))
        empty = np.zeros((0, 8))
        with pytest.raises(ValueError, match="no negative"):
            learn_metric(PairSet(1, vecs, empty), RunConfig())
        with pytest.raises(ValueError, match="no positive"):
            learn_metric(PairSet(1, empty, vecs), RunConfig())

    def test_non_finite_loss_raises(self, rng):
        # finite differences whose squares overflow: every column loss is
        # non-finite, so no column may be kept
        cA, cB = two_cluster_centers(rng)
        pos = np.abs(rng.normal(0, 1.4, (6, 32)))
        neg = np.abs((cA - cB) + rng.normal(0, 1.4, (20, 32)))
        for scale in (1e155, 1e160):
            with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
                learn_metric(PairSet(1, pos * scale, neg * scale), RunConfig())


def _cluster_pairs(rng, n_p, n_n, noise, target_ids=(1,)):
    cA, cB = two_cluster_centers(rng)
    pos = np.abs(rng.normal(0, noise, (n_p, 32)))
    neg = np.abs((cA - cB) + rng.normal(0, noise, (n_n, 32)))
    return [PairSet(target_id, pos, neg) for target_id in target_ids]


def _identical_sides(rng):
    vecs = np.abs(rng.normal(0, 1.0, (6, 8)))
    return [PairSet(1, vecs, vecs.copy())]


def _separable_2d_toy(rng):
    pos = np.column_stack([np.abs(rng.normal(0, 1, 40)), np.full(40, 1e-3)])
    neg = np.column_stack([np.full(40, 1e-3), np.abs(rng.normal(2, 0.5, 40))])
    return [PairSet(1, pos, neg)]


# the pair sets TestOptimality learns on, each drawn from the given rng
_OPTIMALITY_PAIR_SETS = {
    "full_cartesian": lambda rng: _cluster_pairs(rng, 6, 20, 1.4),
    "capped_sampled": lambda rng: _cluster_pairs(rng, 6, 400, 1.4, target_ids=(1, 2, 3)),
    "identical_sides": _identical_sides,
    "later_columns": lambda rng: _cluster_pairs(rng, 10, 200, 6.0),
    "separable_2d_toy": _separable_2d_toy,
}


class TestOptimality:
    """Every kept column is a stationary point of the penalised objective
    on its own: the gradient with respect to column k, with the earlier
    columns fixed and projected off them, is within the solver's gradient
    tolerance.  The gradient is taken by central finite differences of
    ``oracles.penalised_metric_loss``, not from ``metric``'s own formula."""

    @staticmethod
    def _assert_stationary(pairs, cfg=RunConfig()):
        metric = learn_metric(pairs, cfg)
        pos, neg = pairs.positives, pairs.negatives
        ip, iN = metric_module._matched_pairs(len(pos), len(neg), cfg.rng_seed, pairs.target_id)
        gtol = metric_module._GTOL * len(ip)
        h = 1e-6
        for k in range(metric.rank):
            W = metric.W[:, : k + 1].copy()
            grad = np.empty(W.shape[0])
            for i in range(W.shape[0]):
                W[i, k] += h
                up = penalised_metric_loss(W, pos, neg, ip, iN, metric_module._RIDGE)
                W[i, k] -= 2 * h
                down = penalised_metric_loss(W, pos, neg, ip, iN, metric_module._RIDGE)
                W[i, k] += h
                grad[i] = (up - down) / (2 * h)
            if k:
                q = np.linalg.qr(W[:, :k])[0]
                grad -= q @ (q.T @ grad)
            # 1% of gtol covers the finite-difference error
            assert np.max(np.abs(grad)) <= 1.01 * gtol
        return metric

    def test_full_cartesian_pairing(self, rng):
        for pairs in _OPTIMALITY_PAIR_SETS["full_cartesian"](rng):
            self._assert_stationary(pairs)

    def test_capped_sampled_pairing(self, rng):
        for pairs in _OPTIMALITY_PAIR_SETS["capped_sampled"](rng):
            assert len(pairs.positives) * len(pairs.negatives) > _PAIR_CAP
            self._assert_stationary(pairs)

    def test_identical_sides(self, rng):
        for pairs in _OPTIMALITY_PAIR_SETS["identical_sides"](rng):
            self._assert_stationary(pairs)

    def test_later_columns(self, rng):
        # noisy pairs keep several columns, each solved off the earlier ones
        for pairs in _OPTIMALITY_PAIR_SETS["later_columns"](rng):
            assert self._assert_stationary(pairs).rank >= 2

    def test_separable_2d_toy(self, rng):
        for pairs in _OPTIMALITY_PAIR_SETS["separable_2d_toy"](rng):
            metric = self._assert_stationary(pairs)
            # the ridge term bounds W: the separable pairs no longer push its
            # scale up without end
            assert 0.0 < np.linalg.norm(metric.W) < 10.0


class TestZeroColumnTest:
    """``metric._zero_column_optimal`` certifies that w = 0 minimises the
    next column's problem, so ``learn_metric`` skips a solve that would be
    rejected.  When it fires, no ray in the complement of the kept columns
    and no solve lowers the total; skipping changes no metric."""

    @settings(max_examples=200, deadline=None)
    # negatives far shorter than the positives: the test fires
    @example(seed=0, n_d=4, n_p=5, n_n=6, rank=2, neg_scale=0.05)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_d=st.integers(1, 6),
        n_p=st.integers(1, 8),
        n_n=st.integers(1, 12),
        rank=st.integers(0, 4),
        neg_scale=st.floats(0.05, 3.0),
    )
    def test_certified_column_cannot_help(self, seed, n_d, n_p, n_n, rank, neg_scale):
        rng = np.random.default_rng(seed)
        rank = min(rank, n_d - 1)
        pos = np.abs(rng.normal(0, 1.0, (n_p, n_d)))
        neg = np.abs(rng.normal(0, neg_scale, (n_n, n_d)))
        basis = np.linalg.qr(rng.normal(size=(n_d, n_d)))[0][:, :rank]
        kept = basis * rng.uniform(0.0, 2.0, rank)  # the columns the bases come from
        base_p = ((pos @ kept) ** 2).sum(axis=1)
        base_n = ((neg @ kept) ** 2).sum(axis=1)
        ip, iN = metric_module._matched_pairs(n_p, n_n, 0, 1)
        ridge = metric_module._RIDGE * len(ip)
        if not metric_module._zero_column_optimal(pos, neg, base_p, base_n, ip, iN, basis, ridge):
            return
        at_zero = penalised_metric_loss(kept, pos, neg, ip, iN, metric_module._RIDGE)
        for _ in range(5):
            w = rng.normal(size=n_d)
            w -= basis @ (basis.T @ w)
            w /= np.linalg.norm(w)
            for t in (1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0):
                ray = penalised_metric_loss(
                    np.column_stack([kept, t * w]), pos, neg, ip, iN, metric_module._RIDGE
                )
                # rounding of the m summed terms only
                assert ray >= at_zero - 1e-12 * abs(at_zero), t
            _, col_loss, _ = metric_module._solve_column(
                w, pos, neg, base_p, base_n, ip, iN, basis if rank else None, ridge,
                ridge * float((kept**2).sum()),
            )
            assert (at_zero - col_loss) / max(abs(at_zero), 1e-12) < metric_module._COLUMN_TOL

    @pytest.mark.parametrize("workload, index", [("crowd", 1), ("appearance", 0)])
    def test_skipping_changes_no_bench_metric(
        self, workload, index, tracked_learn_calls, monkeypatch
    ):
        calls = tracked_learn_calls(workload, index)
        _assert_skipping_changes_nothing(
            [(call.pairs, call.cfg) for call in calls], [call.metric for call in calls], monkeypatch
        )

    @pytest.mark.parametrize("case", sorted(_OPTIMALITY_PAIR_SETS))
    def test_skipping_changes_no_optimality_metric(self, case, rng, monkeypatch):
        pairsets = [(pairs, RunConfig()) for pairs in _OPTIMALITY_PAIR_SETS[case](rng)]
        _assert_skipping_changes_nothing(
            pairsets, [learn_metric(pairs, cfg) for pairs, cfg in pairsets], monkeypatch
        )

    def test_crowd_solves_kept_columns_and_uncertified_stops_only(self, tracked_learn_calls):
        calls = tracked_learn_calls("crowd", 1)
        solves = sum(call.solves for call in calls)
        kept = sum(call.metric.rank for call in calls)
        uncertified = sum(not call.certified for call in calls)
        assert solves <= kept + uncertified
        # without the test every metric ends on one rejected solve
        assert solves - kept <= len(calls) // 10


class TestNewtonSolve:
    """``metric._solve_column`` takes damped Newton steps on the column
    Hessian of ``metric._column_hessian``, the matrix the zero-column test
    factors at w = 0."""

    @settings(max_examples=100, deadline=None)
    @example(seed=0, n_d=4, n_p=5, n_n=6, rank=2, at_zero=True)
    @example(seed=1, n_d=5, n_p=3, n_n=7, rank=0, at_zero=False)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_d=st.integers(1, 6),
        n_p=st.integers(1, 8),
        n_n=st.integers(1, 12),
        rank=st.integers(0, 3),
        at_zero=st.booleans(),
    )
    def test_hessian_matches_finite_differences(self, seed, n_d, n_p, n_n, rank, at_zero):
        rng = np.random.default_rng(seed)
        rank = min(rank, n_d - 1)
        pos = np.abs(rng.normal(0, 1.0, (n_p, n_d)))
        neg = np.abs(rng.normal(0, 1.0, (n_n, n_d)))
        basis = np.linalg.qr(rng.normal(size=(n_d, n_d)))[0][:, :rank]
        kept = basis * rng.uniform(0.1, 2.0, rank)
        w = np.zeros(n_d) if at_zero else rng.normal(size=n_d)
        base_p = ((pos @ kept) ** 2).sum(axis=1)
        base_n = ((neg @ kept) ** 2).sum(axis=1)
        ip, iN = metric_module._matched_pairs(n_p, n_n, 0, 1)
        mu = metric_module._RIDGE
        up, un = pos @ w, neg @ w
        s = reference_sigmoid((base_p + up**2)[ip] - (base_n + un**2)[iN])
        hess = metric_module._column_hessian(
            pos, neg, up, un, s, ip, iN, basis if rank else None, mu * len(ip)
        )
        h = 1e-5
        expected = np.empty((n_d, n_d))
        for i in range(n_d):
            step = h * np.eye(n_d)[i]
            up_grad = penalised_metric_loss_grad(
                np.column_stack([kept, w + step]), pos, neg, ip, iN, mu
            )
            down_grad = penalised_metric_loss_grad(
                np.column_stack([kept, w - step]), pos, neg, ip, iN, mu
            )
            expected[:, i] = (up_grad[:, -1] - down_grad[:, -1]) / (2 * h)
        # on the kept columns' span the column Hessian is the ridge's alone
        off_basis = np.eye(n_d) - basis @ basis.T
        expected = off_basis @ expected @ off_basis + 2.0 * mu * len(ip) * basis @ basis.T
        assert np.max(np.abs(hess - expected)) <= 1e-6 * np.max(np.abs(expected))
        eigenvalues = np.linalg.eigvalsh(expected)
        if at_zero and rank and abs(eigenvalues[0]) > 1e-9 * np.max(np.abs(eigenvalues)):
            certified = metric_module._zero_column_optimal(
                pos, neg, base_p, base_n, ip, iN, basis, mu * len(ip)
            )
            assert certified == (eigenvalues[0] > 0)

    def test_indefinite_start_reaches_gtol(self, rng):
        # positives spread along axis 0 and negatives along axis 1, so at
        # the start, a point on axis 0, the Hessian has a negative eigenvalue
        pos = np.abs(rng.normal(0, 1, (6, 2))) * [2.0, 0.1]
        neg = np.abs(rng.normal(0, 1, (20, 2))) * [0.1, 2.0]
        ip, iN = metric_module._matched_pairs(6, 20, 0, 1)
        mu = metric_module._RIDGE
        ridge = mu * len(ip)
        base_p, base_n = np.zeros(6), np.zeros(20)
        start = np.array([1.0, 0.0])
        scaled = metric_module._scale_start(start, pos, neg, base_p, base_n, ip, iN, ridge)
        up, un = pos @ scaled, neg @ scaled
        s = reference_sigmoid(up[ip] ** 2 - un[iN] ** 2)
        hess = metric_module._column_hessian(pos, neg, up, un, s, ip, iN, None, ridge)
        lowest = np.linalg.eigvalsh(hess)[0]
        assert lowest < 0
        grad = penalised_metric_loss_grad(scaled[:, None], pos, neg, ip, iN, mu)[:, 0]
        step = metric_module._newton_step(hess, grad)
        # a Levenberg step: (H + tau I) step = -grad with H + tau I positive definite
        residual = -grad - hess @ step
        tau = (residual @ step) / (step @ step)
        assert tau > -lowest
        assert np.allclose(residual, tau * step, rtol=1e-8, atol=1e-10 * np.abs(grad).max())
        assert grad @ step < 0

        w, total, curve = metric_module._solve_column(
            start, pos, neg, base_p, base_n, ip, iN, None, ridge, 0.0
        )
        assert len(curve) >= 2 and np.all(np.diff(curve) <= 0)
        assert total == curve[-1]
        assert total == pytest.approx(
            penalised_metric_loss(w[:, None], pos, neg, ip, iN, mu), rel=1e-12, abs=0.0
        )
        grad = penalised_metric_loss_grad(w[:, None], pos, neg, ip, iN, mu)[:, 0]
        # rounding of the oracle's own sums only
        assert np.max(np.abs(grad)) <= (1 + 1e-6) * metric_module._GTOL * len(ip)

    def test_non_finite_hessian_ends_the_solve(self, rng):
        # a tiny start keeps the total finite, but the Hessian's squared
        # features overflow: the solve stops at once with a non-finite total
        pos = np.abs(rng.normal(0, 1.4, (6, 4))) * 1e160
        neg = np.abs(rng.normal(0, 1.4, (20, 4))) * 1e160
        ip, iN = metric_module._matched_pairs(6, 20, 0, 1)
        ridge = metric_module._RIDGE * len(ip)
        with np.errstate(all="ignore"):
            _, total, curve = metric_module._solve_column(
                np.full(4, 1e-170), pos, neg, np.zeros(6), np.zeros(20), ip, iN, None, ridge, 0.0
            )
        assert math.isfinite(curve[0]) and len(curve) == 1
        assert not math.isfinite(total)

    def test_crowd_takes_few_steps_per_kept_column(self, tracked_learn_calls):
        calls = tracked_learn_calls("crowd", 1)
        steps = sum(len(curve) - 1 for call in calls for curve in call.metric.column_curves)
        kept = sum(call.metric.rank for call in calls)
        # L-BFGS-B took about 21 iterations per column here
        assert steps <= 10 * kept


@dataclasses.dataclass
class _LearnCall:
    pairs: PairSet
    cfg: RunConfig
    metric: TargetMetric | None = None
    solves: int = 0
    certified: bool = False


@pytest.fixture(scope="module")
def tracked_learn_calls():
    """``_track_and_record`` of each benchmark scene, tracked once per module."""
    calls = {}

    def get(workload, index):
        if (workload, index) not in calls:
            calls[workload, index] = _track_and_record(workload, index)
        return calls[workload, index]

    return get


def _track_and_record(workload, index):
    """Every ``learn_metric`` call ``track_sequence`` makes on a benchmark
    scene: its pair set, its metric, the column solves it ran and whether
    the zero-column test fired."""
    calls = []
    learn = metric_module.learn_metric
    solve = metric_module._solve_column
    certify = metric_module._zero_column_optimal

    def recording_learn(pairs, cfg):
        calls.append(_LearnCall(pairs, cfg))
        calls[-1].metric = learn(pairs, cfg)
        return calls[-1].metric

    def counting_solve(*args):
        calls[-1].solves += 1
        return solve(*args)

    def recording_certify(*args):
        fired = certify(*args)
        calls[-1].certified |= fired
        return fired

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_module, "learn_metric", recording_learn)
        mp.setattr(metric_module, "_solve_column", counting_solve)
        mp.setattr(metric_module, "_zero_column_optimal", recording_certify)
        detections, _, cfg = bench_scene(workload, index)
        track_sequence(detections, cfg)
    assert calls
    return tuple(calls)


def _assert_skipping_changes_nothing(pairsets, metrics, monkeypatch):
    """``learn_metric`` with the zero-column test forced off (every column
    solved, the last one rejected) gives ``metrics`` bit for bit."""
    monkeypatch.setattr(metric_module, "_zero_column_optimal", lambda *args: False)
    for (pairs, cfg), metric in zip(pairsets, metrics, strict=True):
        unskipped = learn_metric(pairs, cfg)
        assert unskipped.W.shape == metric.W.shape
        assert unskipped.W.tobytes() == metric.W.tobytes()
        assert unskipped.initial_loss == metric.initial_loss
        assert unskipped.column_curves == metric.column_curves


_EDGE_VALUES = [0.0, -0.0, 1e3, -1e3, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310]
_margins = arrays(
    np.float64,
    st.integers(0, 600),
    elements=st.one_of(
        st.sampled_from(_EDGE_VALUES),
        st.floats(-1e3, 1e3),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)
# 600 terms of magnitude at most 1e305 sum to at most 6e307, below the
# largest float, so every sum and loss over these margins is finite
_summable_margins = arrays(
    np.float64,
    st.integers(0, 600),
    elements=st.one_of(
        st.sampled_from(_EDGE_VALUES), st.floats(-1e3, 1e3), st.floats(-1e305, 1e305)
    ),
)


class TestExactRewrites:
    @given(_margins)
    @example(np.array(_EDGE_VALUES))
    def test_sigmoid_equals_masked_form(self, a):
        expected = reference_sigmoid(a)
        with np.errstate(over="ignore"):  # the loss of such margins may overflow; e cannot
            _, e = metric_module._logistic_loss(a)
        got = metric_module._sigmoid(a, e)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @given(_summable_margins)
    @example(np.array(_EDGE_VALUES))
    @example(np.full(300, 1e3))
    def test_hinge_sum_bounds_logistic_loss(self, a):
        loss, _ = metric_module._logistic_loss(a)
        assert math.isfinite(loss)
        assert float(np.maximum(a, 0.0).sum()) <= loss

    @given(_summable_margins)
    @example(np.array(_EDGE_VALUES))
    @example(np.full(300, 1e3))
    # +inf gives an infinite loss, which learn_metric reports; -inf adds 0
    @example(np.array([math.inf]))
    @example(np.array([-math.inf]))
    @example(np.array([37.0]))
    @example(np.array([-37.0]))
    @example(np.array([745.2]))
    @example(np.array([-745.2]))
    @example(np.array([0.0]))
    @example(np.array([-0.0]))
    def test_logistic_loss_equals_logaddexp(self, a):
        loss, _ = metric_module._logistic_loss(a)
        assert loss == pytest.approx(float(np.logaddexp(0.0, a).sum()), rel=1e-12, abs=0.0)


class TestDistance:
    def test_identity_is_squared_euclidean(self, rng):
        m = identity_metric(1, 8)
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert metric_distance(m, a, b) == pytest.approx(float(np.sum((a - b) ** 2)))

    def test_zero_on_equal(self, rng):
        m = identity_metric(1, 8)
        a = rng.normal(size=8)
        assert metric_distance(m, a, a) == 0.0

    def test_symmetry(self, rng):
        m = identity_metric(1, 8)
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert metric_distance(m, a, b) == pytest.approx(metric_distance(m, b, a))

    def test_dimension_mismatch(self, rng):
        m = identity_metric(1, 8)
        with pytest.raises(ValueError):
            metric_distance(m, rng.normal(size=7), rng.normal(size=8))


class TestProbes:
    def test_argmax_score(self, rng):
        cA, _ = two_cluster_centers(rng)
        t = feature_tracklet(1, 1, 3, cA, rng, scores=[0.5, 0.9, 0.7])
        assert np.array_equal(probe(t, RunConfig()), t.detections[1].feature)

    def test_short_tracklet_uses_full_window(self, rng):
        cA, _ = two_cluster_centers(rng)
        t = feature_tracklet(1, 1, 3, cA, rng, scores=[0.6, 0.61, 0.62])
        cfg = RunConfig(probe_window=8, segment_len=50)
        assert np.array_equal(probe(t, cfg), t.detections[2].feature)

    def test_tie_goes_to_earliest(self, rng):
        cA, _ = two_cluster_centers(rng)
        t = feature_tracklet(1, 1, 4, cA, rng, scores=[0.8, 0.8, 0.8, 0.8])
        assert np.array_equal(probe(t, RunConfig()), t.detections[0].feature)

    @given(
        start=st.integers(1, 200),
        scores=st.lists(st.sampled_from([0.2, 0.5, 0.7, 0.9]), min_size=1, max_size=20),
        probe_window=st.integers(1, 12),
        strongest_q=st.integers(1, 6),
    )
    def test_equals_reference_probe(self, start, scores, probe_window, strongest_q):
        """The first strongest sample is the max over (score, -frame) of the
        probe window, bit for bit: ties, equal scores, tracklets shorter
        than the window and every sample count."""
        rng = np.random.default_rng(len(scores))
        feats = [rng.normal(size=3) for _ in scores]
        t = make_tracklet(1, start, length=len(scores), scores=scores, features=feats)
        cfg = RunConfig(
            probe_window=probe_window, strongest_q=strongest_q, segment_len=2 * probe_window
        )
        assert probe(t, cfg).tobytes() == reference_probe(t, cfg).tobytes()


class TestRefinement:
    def _plain(self, tid, start, feats, scores=None):
        centers = [(50.0 + 2.0 * i, 60.0) for i in range(len(feats))]
        return make_tracklet(tid, start, centers=centers, scores=scores, features=feats)

    def test_no_split_when_under_threshold(self):
        feats = [np.zeros(2) for _ in range(20)]
        t = self._plain(1, 1, feats)
        cfg = RunConfig(distance_threshold=50.0, refine_iters=1)
        _assert_identity_metric_and_zero_probe(t, cfg)
        out = refine_tracklets([t], cfg)
        assert [x.id for x in out] == [1]
        assert out[0].length == 20

    def test_split_rule_at_run_start(self):
        feats = [np.zeros(2)] * 10 + [np.array([10.0, 0.0])] * 5 + [np.zeros(2)] * 5
        t = self._plain(1, 1, feats)
        cfg = RunConfig(distance_threshold=50.0, refine_iters=1, split_run=5)
        _assert_identity_metric_and_zero_probe(t, cfg)
        out = refine_tracklets([t], cfg)
        assert [(x.start, x.end) for x in out] == [(1, 10), (11, 20)]

    def test_short_parts_dropped(self):
        feats = [np.zeros(2)] * 1 + [np.array([10.0, 0.0])] * 6
        t = self._plain(1, 1, feats)
        cfg = RunConfig(distance_threshold=50.0, refine_iters=1, split_run=5)
        _assert_identity_metric_and_zero_probe(t, cfg)
        out = refine_tracklets([t], cfg)
        # split before frame 2 leaves a 1-frame head, which is dropped
        assert [(x.start, x.end) for x in out] == [(2, 7)]

    def test_identity_swap_detected(self, rng):
        swap_at = 18
        out, starts = _run_swap_case(rng, swap_at)
        assert any(abs(s - swap_at) <= 5 for s in starts)
        total = sum(t.length for t in out)
        assert total <= 60  # never gains detections

    def test_split_threshold_pools_positive_distances_in_order(self, rng):
        cA, cB = two_cluster_centers(rng)
        tracklets = [
            feature_tracklet(tid, 1, 12, cA if tid % 2 else cB, rng, x0=60.0 * tid)
            for tid in range(1, 5)
        ]
        metrics, pairsets = learn_segment_metrics(tracklets, "initial", RunConfig())
        pooled = []
        for tid, pairs in pairsets.items():
            pooled.extend(np.sum((pairs.positives @ metrics[tid].W) ** 2, axis=1).tolist())
        q1, med, q3 = np.percentile(np.asarray(pooled), [25.0, 50.0, 75.0])
        assert split_threshold(metrics, pairsets) == float(med + 3.0 * (q3 - q1))
        assert split_threshold({}, {}) == math.inf

    def test_clean_pair_not_split(self, rng):
        cfg = RunConfig()
        cA, cB = two_cluster_centers(rng)
        t1 = feature_tracklet(1, 1, 30, cA, rng)
        t2 = feature_tracklet(2, 1, 30, cB, rng, x0=400.0)
        out = refine_tracklets([t1, t2], cfg)
        assert sorted((t.start, t.end) for t in out) == [(1, 30), (1, 30)]


def _assert_identity_metric_and_zero_probe(t, cfg):
    """A lone tracklet has no negatives, so each refinement pass learns
    the identity metric for it; its probe is the zero first feature."""
    metrics, _ = learn_segment_metrics([t], "initial", cfg)
    assert np.array_equal(metrics[t.id].W, identity_metric(t.id, 2).W)
    assert np.array_equal(probe(t, cfg), np.zeros(2))


def _run_swap_case(rng, swap_at, length=30):
    cfg = RunConfig()
    cA, cB = two_cluster_centers(rng)
    featsA = cluster_features(rng, cA, length)
    featsB = cluster_features(rng, cB, length)
    f1 = featsA[: swap_at - 1] + featsB[swap_at - 1 :]
    f2 = featsB[: swap_at - 1] + featsA[swap_at - 1 :]
    t1 = make_tracklet(1, 1, centers=[(50.0 + 2 * i, 60.0) for i in range(length)], features=f1)
    t2 = make_tracklet(2, 1, centers=[(50.0 + 2 * i, 80.0) for i in range(length)], features=f2)
    out = refine_tracklets([t1, t2], cfg)
    starts = sorted({t.start for t in out} - {1})
    return out, starts
