import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracklink import affinity as aff
from tracklink import association
from tracklink.association import (
    associate,
    build_association_graph,
    infer_frame_size,
    interpolate_members,
    segment_index_of,
    track_sequence,
)
from tracklink.flow import SINK, SOURCE, FlowGraphError, solve_paths
from tracklink.model import Detection, RunConfig, gap_frames
from tracklink.synth import OcclusionSpec, ScenarioSpec, TargetSpec, generate_scenario

from conftest import make_tracklet
from oracles import reference_association_graph


def row(i, j, score, gap=1):
    return aff.AffinityRow(
        i=i, j=j, p_m=1.0, p_a=score, flagged=False, gap=gap,
        lam=1.0, score=score, cost=(-math.log(score) if score > 0 else math.inf),
    )


def table(rows):
    return aff.AffinityTable(segment_index=0, rows=tuple(rows), gamma=1.0)


class TestPartition:
    def test_membership_by_start_frame(self):
        t = make_tracklet(1, 49, length=20)
        assert segment_index_of(t, 1, RunConfig()) == 0
        # segments count from the first frame that holds a detection
        assert segment_index_of(t, 1 - 17, RunConfig()) == 1
        assert segment_index_of(make_tracklet(2, 49 + 17, length=20), 1 + 17, RunConfig()) == 0


def test_infer_frame_size_keeps_a_set_dimension():
    # the largest right edge is 310, the largest bottom edge 110
    detections = {
        1: [Detection(1, (100.0, 50.0, 20.0, 60.0), 0.9)],
        2: [Detection(2, (300.0, 80.0, 10.0, 20.0), 0.9)],
    }
    assert infer_frame_size(detections, RunConfig(frame_width=1280)) == (1280, 110.0)
    assert infer_frame_size(detections, RunConfig(frame_height=720)) == (310.0, 720)
    assert infer_frame_size(detections, RunConfig()) == (310.0, 110.0)


class TestAssociate:
    def test_link_beats_two_singletons(self):
        t1 = make_tracklet(1, 1, length=10)
        t2 = make_tracklet(2, 12, length=10)
        cfg = RunConfig()
        trajs = associate([t1, t2], [table([row(1, 2, 1.0)])], cfg)
        assert len(trajs) == 1
        assert trajs[0].tracklet_ids == (1, 2)
        # brute force over {link, no-link}: entry/exit cost per trajectory
        unit = -math.log(cfg.entry_exit_prob)
        assert 2 * unit + 0.0 < 4 * unit

    def test_no_edge_gives_singletons(self):
        t1 = make_tracklet(1, 1, length=10)
        t2 = make_tracklet(2, 12, length=10)
        trajs = associate([t1, t2], [table([])], RunConfig())
        assert sorted(t.tracklet_ids for t in trajs) == [(1,), (2,)]

    def test_every_tracklet_in_exactly_one_trajectory(self):
        tracklets = [
            make_tracklet(1, 1, length=8),
            make_tracklet(2, 12, length=8),
            make_tracklet(3, 25, length=8),
            make_tracklet(4, 1, length=8),
        ]
        rows = [row(1, 2, 0.9), row(2, 3, 0.8), row(4, 2, 0.5)]
        trajs = associate(tracklets, [table(rows)], RunConfig())
        seen = [tid for t in trajs for tid in t.tracklet_ids]
        assert sorted(seen) == [1, 2, 3, 4]

    def test_trajectory_members_ordered_and_disjoint(self):
        tracklets = [
            make_tracklet(1, 1, length=8),
            make_tracklet(2, 12, length=8),
            make_tracklet(3, 25, length=8),
        ]
        trajs = associate(tracklets, [table([row(1, 2, 0.9), row(2, 3, 0.9)])], RunConfig())
        assert len(trajs) == 1
        ids = trajs[0].tracklet_ids
        assert ids == (1, 2, 3)
        by_id = {t.id: t for t in tracklets}
        for a, b in zip(ids, ids[1:]):
            assert gap_frames(by_id[a], by_id[b]) >= 0  # raises on an overlap

    def test_interpolation_fills_gaps(self):
        t1 = make_tracklet(1, 1, centers=[(0.0, 0.0), (2.0, 0.0)])
        t2 = make_tracklet(2, 5, centers=[(8.0, 0.0), (10.0, 0.0)])
        frames = interpolate_members([t1, t2])
        assert [f for f, _ in frames] == [1, 2, 3, 4, 5, 6]
        boxes = dict(frames)
        # centers advance linearly through the gap
        assert boxes[3][0] + boxes[3][2] / 2 == pytest.approx(4.0)
        assert boxes[4][0] + boxes[4][2] / 2 == pytest.approx(6.0)

    def test_gamma_rescaling_keeps_argmin(self):
        t1 = make_tracklet(1, 1, length=10)
        t2 = make_tracklet(2, 12, length=10)
        t3 = make_tracklet(3, 12, length=10)
        cfg = RunConfig()
        for scale in (0.5, 1.0, 2.0):
            rows = [row(1, 2, min(1.0, 0.9 * scale)), row(1, 3, min(1.0, 0.3 * scale))]
            trajs = associate([t1, t2, t3], [table(rows)], cfg)
            linked = next(t.tracklet_ids for t in trajs if len(t.tracklet_ids) > 1)
            assert linked == (1, 2)


class TestAssociationGraph:
    """``build_association_graph`` builds the graph from arrays and
    rejects what ``FlowGraph.add_node``/``add_edge`` reject."""

    def test_row_naming_an_unknown_id(self):
        # 2 lies between the ids 1 and 3, so an unchecked searchsorted
        # would map it onto 3
        tracklets = [make_tracklet(1, 1, length=5), make_tracklet(3, 20, length=5)]
        with pytest.raises(FlowGraphError, match="endpoint 2"):
            build_association_graph(tracklets, [table([row(1, 2, 0.5)])], RunConfig())

    def test_repeated_tracklet_id(self):
        tracklets = [make_tracklet(1, 1, length=5), make_tracklet(1, 20, length=5)]
        with pytest.raises(FlowGraphError, match="duplicate node id 1"):
            build_association_graph(tracklets, [table([])], RunConfig())

    def test_self_loop(self):
        tracklets = [make_tracklet(1, 1, length=5), make_tracklet(2, 20, length=5)]
        with pytest.raises(FlowGraphError, match="self loops"):
            build_association_graph(tracklets, [table([row(1, 2, 0.5), row(2, 2, 0.5)])], RunConfig())

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True),
        links=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.one_of(st.just(math.inf), st.floats(-3.0, 3.0)),
                st.integers(0, 2),
            ),
            max_size=30,
        ),
    )
    def test_matches_an_edge_by_edge_build(self, ids, links):
        # inf-cost rows are no edge; a pair repeated within or across
        # tables keeps its cheapest copy
        order = sorted(ids)
        tracklets = [make_tracklet(n, 1, length=2) for n in ids]
        rows = [[], [], []]
        for a, b, cost, k in links:
            a, b = a % len(order), b % len(order)
            if a < b:  # forward in id order: acyclic
                rows[k].append(dataclasses.replace(row(order[a], order[b], 0.5), cost=cost))
        tables = [table(r) for r in rows]
        cfg = RunConfig()
        got = build_association_graph(tracklets, tables, cfg)
        want = reference_association_graph(tracklets, tables, cfg)
        assert sorted(got.node_ids) == sorted(want.node_ids)
        assert sorted(got.edges) == sorted(want.edges)
        entry = -math.log(cfg.entry_exit_prob)
        cheapest = {(SOURCE, n): entry for n in order} | {(n, SINK): entry for n in order}
        for r in (r for t in tables for r in t.rows if math.isfinite(r.cost)):
            cheapest[r.i, r.j] = min(r.cost, cheapest.get((r.i, r.j), math.inf))
        assert sorted(got.edges) == sorted((u, v, c) for (u, v), c in cheapest.items())
        assert [got.node_cost(n) for n in order] == [want.node_cost(n) for n in order]
        assert sorted(got.must_cover_ids) == sorted(want.must_cover_ids) == order
        assert solve_paths(got, "cover_all") == solve_paths(want, "cover_all")


class TestEndToEnd:
    def _crossing_spec(self, seed):
        return ScenarioSpec(
            n_frames=90,
            width=640.0,
            height=480.0,
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

    def test_crossing_targets_no_switch(self):
        detections, gt = generate_scenario(self._crossing_spec(3))
        state = track_sequence(detections, RunConfig(rng_seed=3))
        from tracklink.evaluation import evaluate
        from tracklink.mot_io import result_view

        report = evaluate(result_view(state.trajectories), gt)
        assert report.ids == 0
        assert report.mota >= 0.9

    def test_outputs_are_gapless(self):
        detections, _ = generate_scenario(self._crossing_spec(4))
        state = track_sequence(detections, RunConfig(rng_seed=4))
        for traj in state.trajectories:
            frames = [f for f, _ in traj.interpolated]
            assert frames == list(range(frames[0], frames[-1] + 1))

    def test_empty_input(self):
        state = track_sequence({}, RunConfig())
        assert state.trajectories == []
        assert state.reliable_tracklets == []


def _four_targets(seed):
    """Two crossing pairs over two segments: every segment learns several
    targets."""
    return ScenarioSpec(
        n_frames=100,
        targets=(
            TargetSpec(id=1, start=1, end=100, box=(60.0, 120.0, 16.0, 32.0),
                       velocity=(5.0, 0.5)),
            TargetSpec(id=2, start=1, end=100, box=(560.0, 160.0, 16.0, 32.0),
                       velocity=(-5.0, -0.5)),
            TargetSpec(id=3, start=5, end=95, box=(80.0, 330.0, 16.0, 32.0),
                       velocity=(5.0, -0.3)),
            TargetSpec(id=4, start=5, end=95, box=(540.0, 300.0, 16.0, 32.0),
                       velocity=(-5.0, 0.3)),
        ),
        occlusions=(OcclusionSpec(targets=(1, 2), frames=(48, 55)),),
        pos_noise=0.5,
        seed=seed,
    )


def _shifted(detections, k):
    """The scene with every frame number raised by k."""
    return {
        f + k: [dataclasses.replace(d, frame=d.frame + k) for d in dets]
        for f, dets in detections.items()
    }


@pytest.mark.parametrize("k", [17, 33])
def test_frame_offset_shifts_the_output(k):
    # segments count from the first frame that holds a detection, so a
    # frame offset moves every segment with the data
    detections, _ = generate_scenario(_four_targets(6))
    cfg = RunConfig(rng_seed=6)
    expected = track_sequence(detections, cfg).trajectories
    moved = track_sequence(_shifted(detections, k), cfg).trajectories
    assert [t.tracklet_ids for t in moved] == [t.tracklet_ids for t in expected]
    assert [[(f - k, box) for f, box in t.interpolated] for t in moved] == [
        list(t.interpolated) for t in expected
    ]


class TestValidation:
    """Input the pipeline cannot use is rejected at its entry."""

    @pytest.fixture
    def detections(self):
        return generate_scenario(_four_targets(6))[0]

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_non_finite_features(self, detections, width):
        nan = {
            f: [dataclasses.replace(d, feature=np.full(width, np.nan)) for d in dets]
            for f, dets in detections.items()
        }
        with pytest.raises(ValueError, match="non-finite"):
            track_sequence(nan, RunConfig())

    def test_one_infinite_entry(self, detections):
        feature = detections[30][0].feature.copy()
        feature[3] = np.inf
        detections[30][0] = dataclasses.replace(detections[30][0], feature=feature)
        with pytest.raises(ValueError, match="non-finite"):
            track_sequence(detections, RunConfig())

    def test_features_of_two_widths(self, detections):
        detections[40] = [dataclasses.replace(d, feature=d.feature[:16]) for d in detections[40]]
        with pytest.raises(ValueError, match="width"):
            track_sequence(detections, RunConfig())

    def test_features_on_only_some_detections(self, detections):
        # a featureless detection would otherwise turn the whole run motion-only
        detections[30][0] = dataclasses.replace(detections[30][0], feature=None)
        with pytest.raises(ValueError, match="width"):
            track_sequence(detections, RunConfig())

    def test_fractional_frame_key(self, detections):
        detections[12.5] = detections.pop(12)
        with pytest.raises(ValueError, match="integers"):
            track_sequence(detections, RunConfig())

    def test_detection_under_another_frame(self, detections):
        detections[13] = detections[13] + [detections[12][0]]
        with pytest.raises(ValueError, match="filed under frame 13"):
            track_sequence(detections, RunConfig())

    @pytest.mark.parametrize(
        "shape_of", [lambda f: f.reshape(1, -1), lambda f: f[0], lambda f: f[:0]],
        ids=["row matrix", "scalar", "empty"],
    )
    def test_feature_that_is_not_a_non_empty_vector(self, detections, shape_of):
        # every detection gets the same shape, so no width check fires
        reshaped = {
            f: [dataclasses.replace(d, feature=shape_of(d.feature)) for d in dets]
            for f, dets in detections.items()
        }
        with pytest.raises(ValueError, match=r"frame \d+: a feature must be a non-empty 1-D"):
            track_sequence(reshaped, RunConfig())

    def test_bool_frame_key(self, detections):
        detections[True] = detections.pop(1)  # its detections' frame 1 equals True
        with pytest.raises(ValueError, match="integers"):
            track_sequence(detections, RunConfig())


def test_numpy_integer_frame_keys_track_like_int_keys():
    detections = generate_scenario(_four_targets(6))[0]
    numpy_keys = {np.int64(f): dets for f, dets in detections.items()}
    expected = track_sequence(detections, RunConfig()).trajectories
    assert track_sequence(numpy_keys, RunConfig()).trajectories == expected


def test_no_reliable_metrics_learned_without_appearance(monkeypatch):
    """Only the appearance cue reads the reliable-phase metrics, so a
    motion-only run learns none and scores its tables as a run that
    learns them and leaves them unread."""
    detections = generate_scenario(_four_targets(6))[0]
    phases = []
    learn = association.learn_segment_metrics

    def spy(tracklets, phase, *args, **kwargs):
        phases.append(phase)
        return learn(tracklets, phase, *args, **kwargs)

    monkeypatch.setattr(association, "learn_segment_metrics", spy)
    motion_only = track_sequence(detections, RunConfig(), use_appearance=False)
    assert phases == []

    build = aff.build_affinity_table
    monkeypatch.setattr(aff, "build_affinity_table", lambda *args: build(*args[:5], False))
    unread = track_sequence(detections, RunConfig())
    assert phases and set(phases) == {"reliable"}
    assert repr(unread.tables) == repr(motion_only.tables)
    assert unread.trajectories == motion_only.trajectories
