"""Metamorphic properties of the whole pipeline on small random scenes.

Each transform below has a known effect on the output: shuffling each
frame's detection list or flipping the sign of feature dimensions leaves
the trajectories unchanged (metrics learn on coordinate-wise |z - z'|),
as do permuting the feature dimensions, 1e-12 relative noise on every
feature value and one common translation of all features, and a frame
offset shifts them by the offset (segments count from the first frame
that holds a detection).  Trajectories are compared by their per-frame
boxes, not by ids, except that the last three feature transforms must
give identical trajectories, ids included.  Every output must also keep
the pipeline invariants: each reliable tracklet lies in exactly one
trajectory, no detection is used twice, no trajectory has a frame gap,
and every affinity row links a tracklet that did not end in the exit
band to one that starts after it ends.  On the benchmark's feature scenes,
1e-9 relative noise on every feature value leaves the reliable tracklets
and the trajectories unchanged: each learned metric is the converged
solution of a well-posed problem, so rounding-level input changes move
it by rounding-level amounts.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracklink.association import infer_frame_size, track_sequence
from tracklink.model import ExitMap, RunConfig
from tracklink.synth import OcclusionSpec, ScenarioSpec, TargetSpec, generate_scenario

from conftest import bench_scene

N_FRAMES = 120  # three segments of the default 50 frames


@st.composite
def scenes(draw):
    """Detections of 3-5 crossing or parallel targets over 120 frames,
    with one occlusion between the first two."""
    n_targets = draw(st.integers(3, 5))
    targets = []
    for ident in range(1, n_targets + 1):
        start = draw(st.integers(1, 40))
        end = draw(st.integers(start + 40, N_FRAMES))
        x = draw(st.floats(60.0, 560.0))
        y = draw(st.floats(60.0, 400.0))
        velocity = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-1.0, 1.0)))
        targets.append(TargetSpec(ident, start, end, (x, y, 16.0, 32.0), velocity=velocity))
    hidden_from = draw(st.integers(45, 90))
    spec = ScenarioSpec(
        n_frames=N_FRAMES,
        targets=tuple(targets),
        feature_dim=draw(st.sampled_from([8, 16])),
        pos_noise=0.5,
        miss_prob=draw(st.sampled_from([0.0, 0.03])),
        occlusions=(OcclusionSpec(targets=(1, 2), frames=(hidden_from, hidden_from + 7)),),
        seed=draw(st.integers(0, 2**16)),
    )
    return generate_scenario(spec)[0]


def _boxes(trajectories, offset=0):
    return sorted(tuple((f - offset, box) for f, box in t.interpolated) for t in trajectories)


def _assert_invariants(state, detections, cfg):
    by_id = {t.id: t for t in state.reliable_tracklets}
    members = [tid for traj in state.trajectories for tid in traj.tracklet_ids]
    assert sorted(members) == sorted(by_id)  # each reliable tracklet exactly once
    used = [id(d) for t in state.reliable_tracklets for d in t.detections]
    assert len(used) == len(set(used))
    assert set(used) <= {id(d) for dets in detections.values() for d in dets}
    for traj in state.trajectories:
        frames = [f for f, _ in traj.interpolated]
        assert frames == list(range(frames[0], frames[-1] + 1))
    exit_map = ExitMap.from_config(cfg, *infer_frame_size(detections, cfg))
    for table in state.tables:
        for row in table.rows:
            assert not exit_map.exited(by_id[row.i])
            assert by_id[row.j].start > by_id[row.i].end


def _mapped(detections, transform):
    """The scene with ``transform`` applied to every feature."""
    return {
        f: [dataclasses.replace(d, feature=transform(d.feature)) for d in dets]
        for f, dets in detections.items()
    }


@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    detections=scenes(),
    order=st.randoms(use_true_random=False),
    flip_seed=st.integers(0, 2**16),
    offset=st.integers(1, 60),
)
def test_transforms_with_known_effect(detections, order, flip_seed, offset):
    cfg = RunConfig()
    state = track_sequence(detections, cfg)
    _assert_invariants(state, detections, cfg)
    expected = _boxes(state.trajectories)

    shuffled = {f: order.sample(dets, len(dets)) for f, dets in detections.items()}
    assert _boxes(track_sequence(shuffled, cfg).trajectories) == expected

    width = next(iter(detections.values()))[0].feature.size
    rng = np.random.default_rng(flip_seed)
    signs = rng.choice([-1.0, 1.0], width)
    flipped = track_sequence(_mapped(detections, lambda z: z * signs), cfg)
    assert _boxes(flipped.trajectories) == expected

    permutation = rng.permutation(width)
    shift = rng.normal(0.0, 5.0, width)
    for transform in (
        lambda z: z[permutation],
        lambda z: z * (1.0 + 1e-12 * rng.standard_normal(width)),
        lambda z: z + shift,
    ):
        transformed = track_sequence(_mapped(detections, transform), cfg)
        assert transformed.trajectories == state.trajectories

    moved = {
        f + offset: [dataclasses.replace(d, frame=d.frame + offset) for d in dets]
        for f, dets in detections.items()
    }
    moved_state = track_sequence(moved, cfg)
    _assert_invariants(moved_state, moved, cfg)
    assert _boxes(moved_state.trajectories, offset) == expected


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("workload", ["appearance", "crowd"])
def test_feature_noise_on_bench_scenes_changes_nothing(workload, index):
    detections, _, cfg = bench_scene(workload, index)
    state = track_sequence(detections, cfg)
    spans = [(t.id, t.start, t.end) for t in state.reliable_tracklets]
    for draw in range(3):
        rng = np.random.default_rng(100 * index + draw)
        noisy = track_sequence(
            _mapped(detections, lambda z: z * (1.0 + 1e-9 * rng.standard_normal(z.size))), cfg
        )
        assert [(t.id, t.start, t.end) for t in noisy.reliable_tracklets] == spans, draw
        assert noisy.trajectories == state.trajectories, draw
