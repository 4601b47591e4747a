import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracklink import flow
from tracklink.flow import FlowGraph
from tracklink.model import Detection, RunConfig
from tracklink.tracklets import (
    _LINK_BETA,
    build_generation_graph,
    detection_cost,
    gate_mask,
    generate_initial_tracklets,
)

from oracles import min_cover_cost


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

    def test_empty_input(self):
        assert generate_initial_tracklets({}, RunConfig()) == []


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


class TestExactCover:
    """The chains are a minimum-cost set of node-disjoint paths over the
    costed gating graph, numbered by ``(cost, end node)``."""

    def test_link_cost(self):
        # a 3-4-5 centre step between boxes 10 and 20 wide
        a = det(1, 100.0, 60.0, size=(10.0, 20.0))
        b = det(2, 103.0, 64.0, size=(20.0, 20.0))
        *_, link_cost = build_generation_graph({1: [a], 2: [b]}, RunConfig())[1]
        assert link_cost.tolist() == [_LINK_BETA * 25.0 / 15.0**2]

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_targets=st.integers(1, 4),
        n_frames=st.integers(1, 8),
        scores=st.sampled_from(["equal", "few", "spread"]),
        grid=st.booleans(),
    )
    def test_cost_matches_min_cover_oracle(self, seed, n_targets, n_frames, scores, grid):
        # scores stay <= 0.99, so a lone detection costs at least
        # 2 ln 10 - ln 99 > 0 and dropping one-detection paths loses nothing
        scene = _random_scene(np.random.default_rng(seed), n_targets, n_frames, scores, grid)
        dets, kept = {}, 0
        for f in sorted(scene):  # at most 10 detections for the oracle
            if kept + len(scene[f]) > 10:
                break
            dets[f], kept = scene[f], kept + len(scene[f])
        cfg = RunConfig()
        nodes, instance = build_generation_graph(dets, cfg)
        node_cost, _, entry, exit_, src, dst, link_cost = instance
        index = {id(d): k for k, d in enumerate(nodes)}
        link = dict(zip(zip(src.tolist(), dst.tolist()), link_cost.tolist()))
        total = 0.0
        for t in generate_initial_tracklets(dets, cfg):
            path = [index[id(d)] for d in t.detections]
            total += entry[path[0]] + exit_[path[-1]] + node_cost[path].sum()
            total += sum(link[hop] for hop in zip(path, path[1:]))
        graph = FlowGraph.from_arrays(np.arange(len(nodes)), *instance)
        assert total == pytest.approx(min_cover_cost(graph, "free"), rel=1e-9, abs=1e-9)

    def test_lone_detection_makes_no_chain(self):
        # above 0.99 a lone detection is a profitable path of the flow
        # solve, but a chain needs two detections
        dets = single_target(4)
        dets[2].append(det(2, 400.0, 300.0, score=0.999))
        _, instance = build_generation_graph(dets, RunConfig())
        assert [2] in flow.min_cost_paths(*instance)
        got = generate_initial_tracklets(dets, RunConfig())
        assert [t.length for t in got] == [4]

    def test_ids_follow_chain_cost(self):
        # two separate targets; the cheaper chain comes first whatever
        # the scan order of its detections
        dets = {
            f: [det(f, 50.0 + 3.0 * f, 60.0, score=0.7, hint=1),
                det(f, 400.0 - 3.0 * f, 300.0, score=0.95, hint=2)]
            for f in range(1, 9)
        }
        got = generate_initial_tracklets(dets, RunConfig(), start_id=5)
        assert [(t.id, t.detections[0].id_hint) for t in got] == [(5, 2), (6, 1)]

    @pytest.mark.parametrize("gap", [4.0, 6.0, 8.0])
    def test_parallel_lanes_keep_identities(self, gap):
        # two targets side by side in gated lanes (boxes 10 wide, centres
        # gap px apart), with jitter and in shuffled scan order: with
        # zero-cost links every path through the lanes ties, with costed
        # links the straight lanes win
        rng = np.random.default_rng(int(gap))
        dets = {
            f: [det(f, 50.0 + 3.0 * f + rng.normal(0, 0.5), 60.0 + lane * gap + rng.normal(0, 0.5),
                    hint=int(lane), size=(10.0, 20.0))
                for lane in rng.permutation(2)]
            for f in range(1, 21)
        }
        got = generate_initial_tracklets(dets, RunConfig())
        assert sorted(t.length for t in got) == [20, 20]
        for t in got:
            assert len({d.id_hint for d in t.detections}) == 1


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
