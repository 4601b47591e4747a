import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import tracklink.metric as metric_module
from tracklink.metric import (
    _PAIR_CAP,
    PairSet,
    collect_pairs,
    identity_metric,
    learn_metric,
    learn_segment_metrics,
    metric_distance,
    probe,
    refine_tracklets,
)
from tracklink.model import ExitMap, RunConfig

from conftest import (
    cluster_features,
    fork_pool,
    make_tracklet,
    requires_fork,
    two_cluster_centers,
)
from oracles import (
    reference_collect_pairs,
    reference_learn_metric,
    reference_logistic_loss,
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
        pos = np.abs(rng.normal(0, 1.4, (6, 32))) * 1e155
        neg = np.abs((cA - cB) + rng.normal(0, 1.4, (20, 32))) * 1e155
        with pytest.raises(ValueError, match="non-finite"), np.errstate(all="ignore"):
            learn_metric(PairSet(1, pos, neg), RunConfig())


class TestReferenceEquivalence:
    """learn_metric and collect_pairs equal the plain loops in ``oracles``
    bit for bit: same W, same losses, same rows in the same order."""

    @staticmethod
    def _assert_same_metric(pos, neg, target_id=1, cfg=RunConfig()):
        metric = learn_metric(PairSet(target_id, pos, neg), cfg)
        W, initial_loss, curves = reference_learn_metric(pos, neg, cfg.rng_seed, target_id)
        assert np.array_equal(metric.W, W)
        assert metric.initial_loss == initial_loss
        assert metric.column_curves == curves

    @staticmethod
    def _cluster_pairs(rng, n_p, n_n, noise):
        cA, cB = two_cluster_centers(rng)
        pos = np.abs(rng.normal(0, noise, (n_p, 32)))
        neg = np.abs((cA - cB) + rng.normal(0, noise, (n_n, 32)))
        return pos, neg

    def test_full_cartesian_pairing(self, rng):
        pos, neg = self._cluster_pairs(rng, 6, 20, 1.4)
        self._assert_same_metric(pos, neg)

    def test_capped_sampled_pairing(self, rng):
        pos, neg = self._cluster_pairs(rng, 6, 400, 1.4)
        assert len(pos) * len(neg) > _PAIR_CAP
        for target_id in (1, 2, 3):
            self._assert_same_metric(pos, neg, target_id=target_id)

    def test_identical_sides(self, rng):
        vecs = np.abs(rng.normal(0, 1.0, (6, 8)))
        self._assert_same_metric(vecs, vecs.copy())

    def test_separable_2d_toy(self, rng):
        pos = np.column_stack([np.abs(rng.normal(0, 1, 40)), np.full(40, 1e-3)])
        neg = np.column_stack([np.full(40, 1e-3), np.abs(rng.normal(2, 0.5, 40))])
        self._assert_same_metric(pos, neg)

    def test_armijo_halvings_decided_by_bound(self, rng, monkeypatch):
        pos, neg = self._cluster_pairs(rng, 10, 200, 3.0)
        exact = {"production": 0, "reference": 0}

        def counted(key, loss):
            def wrapper(a):
                exact[key] += 1
                return loss(a)

            return wrapper

        monkeypatch.setattr(
            metric_module, "_logistic_loss", counted("production", metric_module._logistic_loss)
        )
        monkeypatch.setattr(
            "oracles.reference_logistic_loss", counted("reference", reference_logistic_loss)
        )
        self._assert_same_metric(pos, neg)
        # the bound rejected some halved candidates without their exact loss
        assert 0 < exact["production"] < exact["reference"]

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


@requires_fork
class TestExecutor:
    """Descents mapped through a process pool return the in-process bits,
    keyed in tracklet order."""

    @staticmethod
    def _segment(rng):
        cA, cB = two_cluster_centers(rng)
        tracklets = [
            feature_tracklet(tid, tid, 12, cA if tid % 2 else cB, rng, x0=60.0 * tid)
            for tid in range(1, 5)
        ]
        # one detection: no positive pairs, so an identity fallback
        # between learned targets
        lone = feature_tracklet(9, 3, 1, cA, rng, x0=500.0)
        return tracklets[:2] + [lone] + tracklets[2:]

    @pytest.mark.parametrize("phase", ["initial", "reliable"])
    @pytest.mark.parametrize("strongest_q, capped", [(4, False), (8, True)])
    def test_pool_equals_in_process(self, rng, phase, strongest_q, capped):
        cfg = RunConfig(strongest_q=strongest_q, rng_seed=5)
        tracklets = self._segment(rng)
        local = learn_segment_metrics(tracklets, phase, cfg)
        with fork_pool() as pool:
            pooled = learn_segment_metrics(tracklets, phase, cfg, executor=pool)
        pairings = [len(p.positives) * len(p.negatives) for p in local[1].values()]
        assert all((n > _PAIR_CAP) == capped for n in pairings)
        assert list(local[0]) == list(pooled[0]) == [1, 2, 9, 3, 4]
        assert list(local[1]) == list(pooled[1]) == [1, 2, 3, 4]
        for tid, metric in local[0].items():
            other = pooled[0][tid]
            assert np.array_equal(metric.W, other.W)
            assert metric.initial_loss == other.initial_loss
            assert metric.column_curves == other.column_curves
        assert local[0][9].column_curves == ()

    def test_single_target_stays_in_process(self, rng):
        class Refusing:
            def map(self, *args):
                raise AssertionError("one target must not reach the executor")

        cA, cB = two_cluster_centers(rng)
        target = feature_tracklet(1, 1, 12, cA, rng)
        lone = feature_tracklet(2, 1, 1, cB, rng, x0=400.0)
        metrics, pairsets = learn_segment_metrics([target, lone], "initial", RunConfig(),
                                                  executor=Refusing())
        assert list(pairsets) == [1]
        assert metrics[1].column_curves

    def test_refinement_passes_the_executor_on(self):
        local, _ = _run_swap_case(np.random.default_rng(11), 18)
        mapped = []
        with fork_pool() as pool:

            class Recording:
                def map(self, fn, *iterables):
                    mapped.append(fn)
                    return pool.map(fn, *iterables)

            pooled, _ = _run_swap_case(np.random.default_rng(11), 18, executor=Recording())
        assert mapped and all(fn is learn_metric for fn in mapped)
        assert [(t.id, t.start, t.end) for t in pooled] == [(t.id, t.start, t.end) for t in local]


class TestExactRewrites:
    @given(_margins)
    @example(np.array(_EDGE_VALUES))
    def test_sigmoid_equals_masked_form(self, a):
        expected = reference_sigmoid(a)
        got = metric_module._sigmoid(a)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @given(_summable_margins)
    @example(np.array(_EDGE_VALUES))
    @example(np.full(300, 1e3))
    def test_hinge_sum_bounds_logistic_loss(self, a):
        loss = metric_module._logistic_loss(a)
        assert math.isfinite(loss)
        assert float(np.maximum(a, 0.0).sum()) <= loss


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


def _run_swap_case(rng, swap_at, length=30, executor=None):
    cfg = RunConfig()
    cA, cB = two_cluster_centers(rng)
    featsA = cluster_features(rng, cA, length)
    featsB = cluster_features(rng, cB, length)
    f1 = featsA[: swap_at - 1] + featsB[swap_at - 1 :]
    f2 = featsB[: swap_at - 1] + featsA[swap_at - 1 :]
    t1 = make_tracklet(1, 1, centers=[(50.0 + 2 * i, 60.0) for i in range(length)], features=f1)
    t2 = make_tracklet(2, 1, centers=[(50.0 + 2 * i, 80.0) for i in range(length)], features=f2)
    out = refine_tracklets([t1, t2], cfg, executor=executor)
    starts = sorted({t.start for t in out} - {1})
    return out, starts
