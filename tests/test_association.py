import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from tracklink import affinity as aff
from tracklink import association
from tracklink.association import (
    associate,
    interpolate_members,
    segment_index_of,
    track_sequence,
)
from tracklink.model import RunConfig, temporal_overlap, gap_frames
from tracklink.synth import OcclusionSpec, ScenarioSpec, TargetSpec, generate_scenario

from conftest import make_tracklet, requires_fork


def row(i, j, score, gap=1):
    return aff.AffinityRow(
        i=i, j=j, p_m=1.0, p_a=score, c_t=1, c_e=1, flagged=False, gap=gap,
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
            assert not temporal_overlap(by_id[a], by_id[b])
            assert gap_frames(by_id[a], by_id[b]) >= 0

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
    """Input the pipeline cannot use is rejected at its entry, before a
    worker starts."""

    @pytest.fixture
    def detections(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started before validation")

        monkeypatch.setattr(association, "ProcessPoolExecutor", refuse)
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


def _fingerprint(state):
    return (
        [(t.id, t.start, t.end) for t in state.reliable_tracklets],
        repr(state.tables),
        repr(state.trajectories),
    )


def _track_in_worker(detections, cfg):
    return _fingerprint(track_sequence(detections, cfg))


class TestMetricPool:
    """A run learns each segment's metrics in worker processes, one per
    usable CPU; none outlives the run and the output never depends on
    them."""

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @requires_fork
    def test_output_does_not_depend_on_worker_count(self, monkeypatch):
        detections, _ = generate_scenario(_four_targets(6))
        cfg = RunConfig(rng_seed=6)
        default = track_sequence(detections, cfg)
        opened = []
        real = association.ProcessPoolExecutor
        monkeypatch.setattr(
            association,
            "ProcessPoolExecutor",
            lambda *args, **kwargs: opened.append(args) or real(*args, **kwargs),
        )
        self._cpus(monkeypatch, 3)
        three = track_sequence(detections, cfg)
        self._cpus(monkeypatch, 1)
        one = track_sequence(detections, cfg)
        assert opened == [(3,)]  # one pool of three workers; none on one CPU
        assert _fingerprint(default) == _fingerprint(three) == _fingerprint(one)

    @requires_fork
    def test_no_worker_outlives_the_run(self, monkeypatch):
        detections, _ = generate_scenario(_four_targets(7))
        alive = []
        learn = association.learn_segment_metrics

        def counting(*args, **kwargs):
            result = learn(*args, **kwargs)
            alive.append(len(multiprocessing.active_children()))
            return result

        monkeypatch.setattr(association, "learn_segment_metrics", counting)
        self._cpus(monkeypatch, 2)
        track_sequence(detections, RunConfig())
        assert alive and all(n == 2 for n in alive)
        assert multiprocessing.active_children() == []

    @requires_fork
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # finite features whose squared distances overflow make every
        # descent's loss non-finite, which learn_metric rejects
        detections, _ = generate_scenario(_four_targets(6))
        huge = {
            f: [dataclasses.replace(d, feature=d.feature * 1e155) for d in dets]
            for f, dets in detections.items()
        }
        raised = {}
        for cpus in (1, 2):
            self._cpus(monkeypatch, cpus)
            with pytest.raises(Exception) as info, np.errstate(over="ignore", invalid="ignore"):
                track_sequence(huge, RunConfig())
            raised[cpus] = info.value
            assert multiprocessing.active_children() == []
        assert isinstance(raised[1], ValueError)
        assert "non-finite" in str(raised[1])
        assert type(raised[2]) is type(raised[1])
        assert str(raised[2]) == str(raised[1])
        assert type(raised[2].__cause__).__name__ == "_RemoteTraceback"

    def test_featureless_scene_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scene without features built a process pool")

        detections, _ = generate_scenario(_four_targets(6))
        bare = {
            f: [dataclasses.replace(d, feature=None) for d in dets]
            for f, dets in detections.items()
        }
        monkeypatch.setattr(association, "ProcessPoolExecutor", refuse)
        self._cpus(monkeypatch, 4)
        assert track_sequence(bare, RunConfig()).trajectories

    def test_threaded_caller_learns_in_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process with other threads built a fork pool")

        detections, _ = generate_scenario(_four_targets(6))
        cfg = RunConfig(rng_seed=6)
        expected = _fingerprint(track_sequence(detections, cfg))
        monkeypatch.setattr(association, "ProcessPoolExecutor", refuse)
        self._cpus(monkeypatch, 2)
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, args=(60,))
        waiting.start()
        try:
            assert _fingerprint(track_sequence(detections, cfg)) == expected
        finally:
            release.set()
            waiting.join(timeout=60)
        assert not waiting.is_alive()

    @requires_fork
    def test_daemonic_caller_learns_in_process(self, monkeypatch):
        # a multiprocessing.Pool worker may not start processes of its own
        detections, _ = generate_scenario(_four_targets(8))
        cfg = RunConfig(rng_seed=8)
        self._cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as outer:
            in_worker = outer.apply(_track_in_worker, (detections, cfg))
        assert in_worker == _fingerprint(track_sequence(detections, cfg))

    @requires_fork
    def test_script_without_main_guard_runs(self, tmp_path):
        # spawned or forkserver workers would re-run such a script on import
        # and fail while it bootstraps; forked workers never import it
        script = tmp_path / "track_once.py"
        script.write_text(textwrap.dedent("""
            import os
            import sys

            from tracklink.association import track_sequence
            from tracklink.model import RunConfig
            from tracklink.synth import OcclusionSpec, ScenarioSpec, TargetSpec, generate_scenario

            os.sched_getaffinity = lambda pid: {0, 1}
            spec = ScenarioSpec(
                n_frames=60,
                targets=(
                    TargetSpec(id=1, start=1, end=60, box=(60.0, 200.0, 16.0, 32.0),
                               velocity=(6.0, 0.5)),
                    TargetSpec(id=2, start=1, end=60, box=(480.0, 230.0, 16.0, 32.0),
                               velocity=(-6.0, -0.5)),
                ),
                occlusions=(OcclusionSpec(targets=(1, 2), frames=(31, 36)),),
                seed=3,
            )
            detections, _ = generate_scenario(spec)
            print(len(track_sequence(detections, RunConfig()).trajectories))
        """), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "2"
