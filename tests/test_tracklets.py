import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracklink import flow, tracklets
from tracklink.model import Detection, RunConfig
from tracklink.tracklets import (
    build_generation_graph,
    detection_cost,
    gate_mask,
    generate_initial_tracklets,
)

from oracles import reference_generate_initial_tracklets


def det(frame, cx, cy=60.0, score=0.9, hint=None, size=(10.0, 20.0)):
    w, h = size
    return Detection(
        frame=frame, box=(cx - w / 2, cy - h / 2, w, h), score=score, id_hint=hint
    )


def single_target(n_frames=10, score=0.9, step=3.0):
    return {
        f: [det(f, 50.0 + step * (f - 1), score=score, hint=1)]
        for f in range(1, n_frames + 1)
    }


class TestDetectionCost:
    def test_even_odds(self):
        assert detection_cost(0.5) == pytest.approx(0.0)

    def test_confident(self):
        assert detection_cost(0.9) == pytest.approx(-math.log(9.0))

    def test_unconfident_symmetry(self):
        assert detection_cost(0.1) == pytest.approx(math.log(9.0))
        assert detection_cost(0.1) == pytest.approx(-detection_cost(0.9))


class TestGeneration:
    def test_single_clean_target(self):
        tracklets = generate_initial_tracklets(single_target(), RunConfig())
        assert len(tracklets) == 1
        assert tracklets[0].length == 10

    def test_unprofitable_scores_yield_nothing(self):
        dets = single_target(score=0.4)
        assert generate_initial_tracklets(dets, RunConfig()) == []

    def test_two_separated_targets_identity_pure(self):
        dets: dict[int, list[Detection]] = {}
        for f in range(1, 11):
            dets[f] = [
                det(f, 50.0 + 3.0 * f, 60.0, hint=1),
                det(f, 400.0 - 3.0 * f, 300.0, hint=2),
            ]
        tracklets = generate_initial_tracklets(dets, RunConfig())
        assert len(tracklets) == 2
        for t in tracklets:
            hints = {d.id_hint for d in t.detections}
            assert len(hints) == 1
            assert t.length == 10

    def test_no_shared_detections(self):
        rng = np.random.default_rng(3)
        dets: dict[int, list[Detection]] = {}
        for f in range(1, 16):
            dets[f] = [
                det(f, 100 + 4 * f + rng.normal(0, 1), 60, score=0.85, hint=1),
                det(f, 110 + 4 * f + rng.normal(0, 1), 60, score=0.85, hint=2),
            ]
        tracklets = generate_initial_tracklets(dets, RunConfig())
        seen = set()
        for t in tracklets:
            for d in t.detections:
                key = (d.frame, d.box)
                assert key not in seen
                seen.add(key)

    def test_links_are_consecutive_and_gated(self):
        dets = single_target(12)
        for t in generate_initial_tracklets(dets, RunConfig()):
            for a, b in zip(t.detections, t.detections[1:]):
                assert b.frame == a.frame + 1
                (ax, ay), (bx, by) = a.center, b.center
                assert math.hypot(bx - ax, by - ay) < 0.5 * (a.box[2] + b.box[2])

    def test_endpoints_above_threshold(self):
        dets = single_target(8, score=0.9)
        # middle frames dip below the endpoint threshold but stay confident
        dets[4] = [det(4, 50.0 + 3.0 * 3, score=0.55, hint=1)]
        tracklets = generate_initial_tracklets(dets, RunConfig())
        assert len(tracklets) == 1
        t = tracklets[0]
        assert t.detections[0].score > 0.6
        assert t.detections[-1].score > 0.6
        assert t.length == 8  # low-score detection still linkable inside

    def test_low_score_gap_splits_chain(self):
        dets = single_target(9)
        dets[5] = []  # missed detection: consecutive-frame rule forbids bridging
        tracklets = generate_initial_tracklets(dets, RunConfig())
        assert sorted(t.length for t in tracklets) == [4, 4]

    def test_dp_matches_flow_free_mode_without_contention(self):
        dets: dict[int, list[Detection]] = {}
        for f in range(1, 9):
            dets[f] = [
                det(f, 60.0 + 5 * f, 60.0, score=0.9, hint=1),
                det(f, 500.0 - 5 * f, 300.0, score=0.8, hint=2),
            ]
        cfg = RunConfig()
        tracklets = generate_initial_tracklets(dets, cfg)
        dp_total = 0.0
        for t in tracklets:
            dp_total += 2 * (-math.log(cfg.entry_exit_prob))
            dp_total += sum(detection_cost(d.score) for d in t.detections)
        # links cost 0 and no node must be covered: the exact free-mode optimum
        node_cost, must_cover, entry, exit_, src, dst, link_cost = build_generation_graph(dets, cfg)
        assert not must_cover.any() and not link_cost.any()
        paths = flow.min_cost_paths(node_cost, must_cover, entry, exit_, src, dst, link_cost)
        flow_total = sum(entry[p[0]] + exit_[p[-1]] + node_cost[p].sum() for p in paths)
        assert dp_total == pytest.approx(flow_total)

    def test_empty_input(self):
        assert generate_initial_tracklets({}, RunConfig()) == []


def _chains(tracklets):
    return [(t.id, t.detections) for t in tracklets]


def _random_scene(rng, n_targets, n_frames, scores, grid):
    """Targets on a small canvas, so that they cross and merge and their
    gating components join, plus clutter, dropped detections, empty
    frames (present, no detections) and missing frames (absent keys)."""
    def coord(value):
        return float(round(value)) if grid else float(value)

    score_set = {"equal": [0.9], "few": [0.55, 0.7, 0.9], "spread": None}[scores]

    def score():
        if rng.random() < 0.15:
            return 0.3  # a low score: unprofitable, linkable only inside a chain
        if score_set is None:
            return float(rng.uniform(0.51, 0.99))
        return float(rng.choice(score_set))

    starts = rng.integers(1, n_frames + 1, n_targets)
    ends = np.minimum(n_frames, starts + rng.integers(1, n_frames + 1, n_targets))
    pos = rng.uniform(0.0, 60.0, (n_targets, 2))
    vel = rng.uniform(-4.0, 4.0, (n_targets, 2))
    width = rng.choice([6.0, 8.0, 10.0, 12.5], n_targets)
    dets: dict[int, list[Detection]] = {}
    for f in range(1, n_frames + 1):
        frame = []
        for k in range(n_targets):
            if starts[k] <= f <= ends[k] and rng.random() > 0.1:
                x, y = pos[k] + vel[k] * (f - starts[k])
                frame.append(det(f, coord(x), coord(y), score=score(), hint=k,
                                 size=(width[k], 2 * width[k])))
        for _ in range(rng.integers(0, 3)):
            x, y = rng.uniform(0.0, 60.0, 2)
            frame.append(det(f, coord(x), coord(y), score=score(), size=(8.0, 16.0)))
        rng.shuffle(frame)
        roll = rng.random()
        if roll < 0.1:
            continue  # missing frame
        dets[f] = [] if roll < 0.2 else frame
    return dets


class TestComponentExtraction:
    """The per-component pass gives the whole-scene pass's chains and ids."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_targets=st.integers(1, 7),
        n_frames=st.integers(1, 18),
        scores=st.sampled_from(["equal", "few", "spread"]),
        grid=st.booleans(),
        start_id=st.integers(1, 50),
    )
    def test_matches_whole_scene_reference(self, seed, n_targets, n_frames, scores, grid,
                                           start_id):
        dets = _random_scene(np.random.default_rng(seed), n_targets, n_frames, scores, grid)
        cfg = RunConfig()
        got = generate_initial_tracklets(dets, cfg, start_id=start_id)
        assert _chains(got) == _chains(reference_generate_initial_tracklets(dets, cfg, start_id))

    def test_ids_interleave_components_by_cost(self):
        # two separate targets; the cheaper chain comes first whatever
        # the scan order of its component
        dets = {
            f: [det(f, 50.0 + 3.0 * f, 60.0, score=0.7, hint=1),
                det(f, 400.0 - 3.0 * f, 300.0, score=0.95, hint=2)]
            for f in range(1, 9)
        }
        got = generate_initial_tracklets(dets, RunConfig(), start_id=5)
        assert [(t.id, t.detections[0].id_hint) for t in got] == [(5, 2), (6, 1)]
        assert _chains(got) == _chains(reference_generate_initial_tracklets(dets, RunConfig(), 5))

    def test_does_not_call_the_flow_solver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("generation must not solve a flow")

        monkeypatch.setattr(flow, "solve_paths", forbidden)
        monkeypatch.setattr(flow, "min_cost_paths", forbidden)
        monkeypatch.setattr(tracklets, "solve_paths", forbidden, raising=False)
        assert len(generate_initial_tracklets(single_target(), RunConfig())) == 1


def _scalar_gate(a, b):
    (ax, ay), (bx, by) = a.center, b.center
    return math.hypot(bx - ax, by - ay) < 0.5 * (a.box[2] + b.box[2])


class TestGate:
    def _pair(self, width):
        # a 3-4-5 step, confident enough that a linked pair makes a chain
        a = det(1, 100.0, 60.0, score=0.99, size=(width, 10.0))
        b = det(2, 103.0, 64.0, score=0.99, size=(width, 10.0))
        return a, b

    def test_limit_equal_to_step_does_not_link(self):
        a, b = self._pair(5.0)
        assert not gate_mask([a.box], [b.box])[0, 0]
        assert generate_initial_tracklets({1: [a], 2: [b]}, RunConfig()) == []

    def test_limit_just_above_step_links(self):
        a, b = self._pair(math.nextafter(5.0, math.inf))
        assert 0.5 * (a.box[2] + b.box[2]) > 5.0
        assert gate_mask([a.box], [b.box])[0, 0]
        assert [t.length for t in generate_initial_tracklets({1: [a], 2: [b]}, RunConfig())] == [2]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n_prev=st.integers(0, 6),
        n_next=st.integers(0, 6),
        grid=st.booleans(),
    )
    def test_matches_scalar_rule(self, data, n_prev, n_next, grid):
        if grid:  # integer boxes: distances tie with limits (3-4-5, 5-12-13, ...)
            value, size = st.integers(-8, 8).map(float), st.integers(1, 8).map(float)
        else:
            value = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
            size = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
        box = st.tuples(value, value, size, size)
        prev = [Detection(1, b, 0.9) for b in data.draw(st.lists(box, min_size=n_prev, max_size=n_prev))]
        nxt = [Detection(2, b, 0.9) for b in data.draw(st.lists(box, min_size=n_next, max_size=n_next))]
        mask = gate_mask([d.box for d in prev], [d.box for d in nxt])
        assert mask.shape == (n_prev, n_next)
        assert mask.tolist() == [[_scalar_gate(a, b) for b in nxt] for a in prev]

    def test_decides_near_ties_by_the_scalar_rule(self):
        # the limit lies between numpy's and math's hypot of this offset:
        # a gate on np.hypot alone would link the pair
        a = Detection(1, (-1.0, -1.0, 2.0, 2.0), 0.99)
        b = Detection(2, (-25.324064152853005, 45.52906427090852, 106.56644927071856, 2.0), 0.99)
        (ax, ay), (bx, by) = a.center, b.center
        assert np.hypot(bx - ax, by - ay) < 0.5 * (a.box[2] + b.box[2])
        assert not _scalar_gate(a, b)
        assert not gate_mask([a.box], [b.box])[0, 0]
        assert generate_initial_tracklets({1: [a], 2: [b]}, RunConfig()) == []
