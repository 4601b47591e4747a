import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracklink.dynamics as dynamics
from tracklink import affinity as aff
from tracklink.metric import identity_metric, learn_segment_metrics
from tracklink.model import ExitMap, RunConfig, gap_frames

from conftest import cluster_features, line_tracklet, make_tracklet, two_cluster_centers
from oracles import reference_assess_difficult, reference_motion_similarity


def feature_tracklet(tid, start, length, center, rng, y=60.0, x0=50.0, noise=1.0):
    feats = cluster_features(rng, center, length, noise)
    centers = [(x0 + 2.0 * i, y) for i in range(length)]
    return make_tracklet(tid, start, centers=centers, features=feats)


class TestLimiting:
    def test_overlap_gate(self):
        # two tracklets that share frames 5-10 are offered in neither order,
        # whether both lie in the segment or one comes from the next
        later = make_tracklet(1, 5, length=10)
        earlier = make_tracklet(2, 1, length=10)
        exit_map = ExitMap(width=640, height=480, band=24.0)
        assert not exit_map.exited(earlier) and not exit_map.exited(later)
        for inside, after in (([later, earlier], []), ([earlier], [later])):
            assert aff.candidate_pairs(inside, after, RunConfig(), exit_map) == []


def _p_a(a, b, metrics, cfg=RunConfig()):
    """P_a of a -> b at gamma = 1."""
    return aff.appearance_score(aff.appearance_distance_product(a, b, metrics, cfg), 1.0)


class TestAppearance:
    def test_same_cluster_beats_cross_cluster(self, rng):
        wins = 0
        for sd in range(40):
            r = np.random.default_rng(sd)
            cA, cB = two_cluster_centers(r)
            a = feature_tracklet(1, 1, 12, cA, r)
            b = feature_tracklet(2, 20, 12, cA, r, x0=90.0)
            third = feature_tracklet(3, 20, 12, cB, r, y=200.0)
            tracklets = [a, b, third]
            metrics, _ = learn_segment_metrics(tracklets, "reliable", RunConfig())
            same = _p_a(a, b, metrics)
            cross = _p_a(a, third, metrics)
            wins += same > cross
        assert wins >= 38  # >= 95% of seeds

    def test_identical_features_cap(self, rng):
        cA, _ = two_cluster_centers(rng)
        feats = [cA.copy() for _ in range(6)]
        a = make_tracklet(1, 1, centers=[(50 + i, 60) for i in range(6)], features=feats)
        b = make_tracklet(2, 10, centers=[(80 + i, 60) for i in range(6)], features=feats)
        metrics = {1: identity_metric(1, cA.size), 2: identity_metric(2, cA.size)}
        assert aff.appearance_distance_product(a, b, metrics, RunConfig()) == 0.0
        assert _p_a(a, b, metrics) == 1.0

    def test_missing_product_and_cap(self):
        assert aff.appearance_score(None, 0.5) == 1.0
        assert aff.appearance_score(2.0, 0.5) == 0.25
        assert aff.appearance_score(0.25, 0.5) == 1.0

    def test_missing_metric_error(self, rng):
        cA, _ = two_cluster_centers(rng)
        a = feature_tracklet(1, 1, 4, cA, rng)
        b = feature_tracklet(2, 10, 4, cA, rng)
        with pytest.raises(ValueError, match="missing metric"):
            aff.appearance_distance_product(a, b, {}, RunConfig())


class TestAssessDifficult:
    def _pair(self, overlap_frac, eta=0.3, shared="end"):
        # two 10x10 boxes whose intersection is overlap_frac of the area
        shift = 10.0 * (1.0 - overlap_frac)
        if shared == "end":
            t1 = make_tracklet(1, 1, boxes=[(0, 0, 10, 10)] * 5)
            t2 = make_tracklet(2, 3, boxes=[(shift, 0, 10, 10)] * 3)
        else:
            t1 = make_tracklet(1, 5, boxes=[(0, 0, 10, 10)] * 5)
            t2 = make_tracklet(2, 5, boxes=[(shift, 0, 10, 10)] * 3)
        return [t1, t2], RunConfig(overlap_eta=eta)

    def test_shared_end_flagged(self):
        tracklets, cfg = self._pair(0.4)
        assert aff.assess_difficult(tracklets, cfg) == {1, 2}

    def test_below_eta_not_flagged(self):
        tracklets, cfg = self._pair(0.2)
        assert aff.assess_difficult(tracklets, cfg) == set()

    def test_shared_start_flagged(self):
        tracklets, cfg = self._pair(0.5, shared="start")
        assert aff.assess_difficult(tracklets, cfg) == {1, 2}

    def test_occlusion_scenario_flags_all_four(self):
        # two targets converge, disappear together, then emerge together
        before_1 = make_tracklet(1, 1, boxes=[(10.0 + 4 * i, 50, 12, 24) for i in range(10)])
        before_2 = make_tracklet(2, 1, boxes=[(90.0 - 4 * i, 50, 12, 24) for i in range(10)])
        after_1 = make_tracklet(3, 20, boxes=[(52.0 + 4 * i, 50, 12, 24) for i in range(10)])
        after_2 = make_tracklet(4, 20, boxes=[(48.0 - 4 * i, 50, 12, 24) for i in range(10)])
        flagged = aff.assess_difficult([before_1, before_2, after_1, after_2], RunConfig())
        assert flagged == {1, 2, 3, 4}

    @settings(max_examples=200, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=0, max_size=14
        ),
        eta=st.sampled_from([0.05, 0.3, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_all_pairs_oracle(self, spans, eta, seed):
        # (start, length) drawn from few values, so many tracklets share a
        # start or an end frame; boxes on a small canvas often overlap
        rng = np.random.default_rng(seed)
        tracklets = []
        for tid, (start, length) in enumerate(spans, start=1):
            boxes = [
                (*rng.integers(0, 30, 2).astype(float), *rng.uniform(4.0, 20.0, 2))
                for _ in range(length)
            ]
            tracklets.append(make_tracklet(tid, start, boxes=boxes))
        cfg = RunConfig(overlap_eta=eta)
        assert aff.assess_difficult(tracklets, cfg) == reference_assess_difficult(tracklets, eta)


class TestFusedScore:
    """The fused score S, the second item of ``link_score``."""

    def test_unflagged_identity_weight(self):
        assert aff.link_score(1.0, 0.8, False, 5, RunConfig())[1] == pytest.approx(0.8)

    def test_flagged_long_gap_uses_level_two(self):
        cfg = RunConfig(lambda1=0.5, lambda2=0.2)
        s = aff.link_score(0.5, 0.8, True, 25, cfg)[1]
        assert s == pytest.approx(0.5**0.2 * 0.8)
        assert s == pytest.approx(0.696440, abs=1e-5)

    def test_zero_weight_ignores_motion(self):
        cfg = RunConfig(lambda1=0.0)
        assert aff.link_score(0.0, 0.7, True, 5, cfg)[1] == pytest.approx(0.7)

    def test_monotone_in_motion(self):
        cfg = RunConfig()
        values = [aff.link_score(p, 0.8, True, 5, cfg)[1] for p in (0.1, 0.4, 0.7, 1.0)]
        assert values == sorted(values)

    def test_lower_weight_raises_score_for_weak_motion(self):
        base = RunConfig(lambda1=0.9)
        softer = RunConfig(lambda1=0.2)
        strong = aff.link_score(0.3, 0.8, True, 5, base)[1]
        soft = aff.link_score(0.3, 0.8, True, 5, softer)[1]
        assert soft > strong

    def test_adjacent_flagged_pair_keeps_full_weight(self):
        cfg = RunConfig(lambda1=0.5)
        assert aff.link_score(0.25, 1.0, True, 0, cfg)[1] == pytest.approx(0.25)


class TestTransitionCost:
    def test_values(self):
        assert aff.transition_cost(1.0) == 0.0
        assert aff.transition_cost(math.exp(-2.0)) == pytest.approx(2.0)
        assert aff.transition_cost(0.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            aff.transition_cost(-0.1)


@pytest.fixture
def exit_scene():
    """An exit map, a tracklet that ends inside its 24 px band and two
    interior ones after it."""
    exit_map = ExitMap(width=640, height=480, band=24.0)
    exited = make_tracklet(1, 1, centers=[(5.0, 60.0), (6.0, 60.0)])
    interior = make_tracklet(2, 10, centers=[(300.0, 200.0), (302.0, 200.0)])
    later = make_tracklet(3, 20, centers=[(310.0, 200.0), (312.0, 200.0)])
    assert exit_map.exited(exited) and not exit_map.exited(interior)
    return exit_map, exited, interior, later


class TestCandidatePairs:
    def test_successor_measured_from_the_end_of_a_long_tracklet(self):
        # a starts in segment 1 (frames 51-100) and runs into segment 2; b
        # starts 6 empty frames after a ends, c 21 (past gap_bound = 20)
        cfg = RunConfig()
        a = make_tracklet(1, 74, length=47)
        b = make_tracklet(2, 127, length=10)
        c = make_tracklet(3, 142, length=10)
        assert (a.end, gap_frames(a, b), gap_frames(a, c)) == (120, 6, 21)
        pairs = aff.candidate_pairs([a], [c, b], cfg, None)
        assert [(x.id, y.id) for x, y in pairs] == [(1, 2)]

    def test_in_segment_pairs_need_no_gap_bound(self):
        a = make_tracklet(1, 1, length=5)
        b = make_tracklet(2, 40, length=5)
        overlapping = make_tracklet(3, 3, length=10)
        pairs = aff.candidate_pairs([b, overlapping, a], [], RunConfig(), None)
        assert [(x.id, y.id) for x, y in pairs] == [(1, 2), (3, 2)]

    def test_later_tracklet_must_start_after_the_end(self):
        a = make_tracklet(1, 40, length=20)
        overlapping = make_tracklet(2, 55, length=10)
        adjacent = make_tracklet(3, 60, length=10)
        pairs = aff.candidate_pairs([a], [overlapping, adjacent], RunConfig(gap_bound=0), None)
        assert [(x.id, y.id) for x, y in pairs] == [(1, 3)]

    def test_exited_tracklet_starts_no_pair(self, exit_scene):
        exit_map, exited, interior, later = exit_scene
        pairs = aff.candidate_pairs([exited, interior], [later], RunConfig(), exit_map)
        assert [(x.id, y.id) for x, y in pairs] == [(2, 3)]

    def test_exited_tracklet_can_end_a_pair(self, exit_scene):
        exit_map = exit_scene[0]
        entering = make_tracklet(4, 1, centers=[(300.0, 60.0), (302.0, 60.0)])
        leaving = make_tracklet(5, 8, centers=[(620.0, 60.0), (630.0, 60.0)])
        assert exit_map.exited(leaving)
        for inside, later in (([entering, leaving], []), ([entering], [leaving])):
            pairs = aff.candidate_pairs(inside, later, RunConfig(), exit_map)
            assert [(x.id, y.id) for x, y in pairs] == [(4, 5)]

    def test_without_exit_map_exited_tracklet_starts_pairs(self, exit_scene):
        _, exited, interior, later = exit_scene
        pairs = aff.candidate_pairs([exited, interior], [later], RunConfig(), None)
        assert [(x.id, y.id) for x, y in pairs] == [(1, 2), (1, 3), (2, 3)]


class TestTableAssembly:
    def _segment(self, rng):
        cA, cB = two_cluster_centers(rng)
        t1 = feature_tracklet(1, 1, 10, cA, rng)
        t2 = feature_tracklet(2, 14, 10, cA, rng, x0=80.0)
        t3 = feature_tracklet(3, 14, 10, cB, rng, y=220.0)
        tracklets = [t1, t2, t3]
        cfg = RunConfig()
        metrics, _ = learn_segment_metrics(tracklets, "reliable", cfg)
        pairs = aff.candidate_pairs(tracklets, [], cfg, None)
        return aff.build_affinity_table(0, pairs, metrics, set(), cfg, use_appearance=True)

    def test_best_pair_p_a_is_exactly_one(self, rng):
        table = self._segment(rng)
        assert max(row.p_a for row in table.rows) == 1.0

    def test_gamma_is_min_product(self, rng):
        table = self._segment(rng)
        assert table.gamma > 0.0
        assert all(0.0 < row.p_a <= 1.0 for row in table.rows)

    def test_refit_lambdas_reuses_ingredients(self, rng):
        import dataclasses

        table = self._segment(rng)
        flagged_table = aff.AffinityTable(
            segment_index=table.segment_index,
            rows=tuple(dataclasses.replace(row, flagged=True) for row in table.rows),
            gamma=table.gamma,
        )
        cfg2 = RunConfig(lambda1=0.1, lambda2=0.9)
        refit = aff.refit_lambdas(flagged_table, cfg2)
        for old, new in zip(flagged_table.rows, refit.rows):
            assert new.p_m == old.p_m
            assert new.p_a == old.p_a
            if old.gap >= 1:
                expected_lam = 0.1 if old.gap <= cfg2.gap_bound else 0.9
                assert new.lam == expected_lam

    def _flagged_segment(self, rng):
        """A segment builder whose rows cover a flagged short gap, a flagged
        gap beyond gap_bound and an unflagged row."""
        cA, cB = two_cluster_centers(rng)
        tracklets = [
            feature_tracklet(1, 1, 10, cA, rng),
            feature_tracklet(2, 14, 10, cA, rng, x0=80.0),
            feature_tracklet(3, 14, 10, cB, rng, y=220.0),
            feature_tracklet(4, 40, 8, cB, rng, y=300.0),
        ]
        metrics, _ = learn_segment_metrics(tracklets, "reliable", RunConfig())
        pairs = aff.candidate_pairs(tracklets, [], RunConfig(), None)

        def build(cfg):
            return aff.build_affinity_table(0, pairs, metrics, {2, 4}, cfg)

        return build

    @pytest.mark.parametrize(
        "lambdas", [(0.0, 0.0), (0.1, 0.9), (0.5, 0.2), (0.7, 1.0), (1.0, 1.0)]
    )
    def test_refit_equals_fresh_build(self, rng, lambdas):
        build = self._flagged_segment(rng)
        cfg_a = RunConfig(lambda1=0.3, lambda2=0.6)
        cfg_b = RunConfig(lambda1=lambdas[0], lambda2=lambdas[1])
        table_a = build(cfg_a)
        flagged = [r for r in table_a.rows if r.flagged and r.gap >= 1]
        assert {r.gap <= cfg_a.gap_bound for r in flagged} == {True, False}
        assert any(not r.flagged for r in table_a.rows)
        assert aff.refit_lambdas(table_a, cfg_b).rows == build(cfg_b).rows

    def test_unflagged_row_same_under_every_cfg(self, rng):
        build = self._flagged_segment(rng)
        table = build(RunConfig())
        unflagged = [r for r in table.rows if not r.flagged]
        assert unflagged and all(r.lam == 1.0 for r in unflagged)
        for l1, l2 in [(0.0, 0.0), (0.2, 0.8), (1.0, 0.5)]:
            cfg = RunConfig(lambda1=l1, lambda2=l2)
            for rows in (aff.refit_lambdas(table, cfg).rows, build(cfg).rows):
                assert [r for r in rows if not r.flagged] == unflagged

    def test_refit_passes_unflagged_rows_through(self, rng):
        table = self._flagged_segment(rng)(RunConfig())
        refit = aff.refit_lambdas(table, RunConfig(lambda1=0.2, lambda2=0.8))
        assert len(refit.rows) == len(table.rows)
        for old, new in zip(table.rows, refit.rows):
            assert (new is old) == (not old.flagged)
            assert (new.i, new.j) == (old.i, old.j)

    def test_one_rank_per_row_plus_one_per_tracklet(self, monkeypatch):
        calls = []
        counted = dynamics.estimate_rank
        monkeypatch.setattr(
            dynamics, "estimate_rank", lambda h, tau: calls.append(1) or counted(h, tau)
        )
        tracklets = [
            line_tracklet(tid, start, length, origin=(40.0 * tid, 300.0), velocity=(v, -2.0))
            for tid, start, length, v in [
                (1, 1, 8, 3.0), (2, 1, 12, -4.0), (3, 12, 9, 5.0), (4, 15, 2, 2.0),
                (5, 22, 10, -3.0), (6, 26, 7, 6.0), (7, 35, 11, 1.5),
            ]
        ]
        cfg = RunConfig()
        pairs = aff.candidate_pairs(tracklets, [], cfg, None)
        table = aff.build_affinity_table(0, pairs, {}, set(), cfg, use_appearance=False)
        assert len(table.rows) == len(pairs) > len(tracklets)
        assert len(calls) <= len(table.rows) + len({t.id for t in tracklets})
        by_id = {t.id: t for t in tracklets}
        for row in table.rows:
            expected = reference_motion_similarity(by_id[row.i], by_id[row.j], cfg.rank_tol)
            assert row.p_m == expected
