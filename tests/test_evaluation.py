import functools
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bench_scene
from oracles import reference_association_graph, reference_evaluate
from tracklink import affinity as aff
from tracklink import association, evaluation
from tracklink.association import associate, prepare_reliable_tracklets
from tracklink.evaluation import evaluate, format_report, learn_weights
from tracklink.model import RunConfig, iou
from tracklink.mot_io import result_view


BOX_A = (0.0, 0.0, 10.0, 10.0)
BOX_B = (100.0, 0.0, 10.0, 10.0)


def track(box, frames):
    return [(f, box) for f in frames]


class TestEvaluate:
    def test_perfect_hypothesis(self):
        gt = {1: track(BOX_A, range(1, 21)), 2: track(BOX_B, range(1, 21))}
        report = evaluate(gt, gt)
        assert report.mota == 1.0
        assert report.motp == 1.0
        assert report.ids == 0
        assert report.frag == 0
        assert report.mt == report.gt == 2
        assert report.fp == report.fn == 0
        assert report.recall == 1.0 and report.precision == 1.0

    def test_everything_missed(self):
        gt = {1: track(BOX_A, range(1, 21))}
        report = evaluate({}, gt)
        assert report.mota == 0.0
        assert report.recall == 0.0
        assert report.ml == report.gt == 1
        assert report.fn == 20

    def test_swap_counts_two_switches(self):
        # hypothesis ids exchange targets at frame 11
        gt = {1: track(BOX_A, range(1, 21)), 2: track(BOX_B, range(1, 21))}
        hyp = {
            7: track(BOX_A, range(1, 11)) + track(BOX_B, range(11, 21)),
            8: track(BOX_B, range(1, 11)) + track(BOX_A, range(11, 21)),
        }
        report = evaluate(hyp, gt)
        assert report.ids == 2
        assert report.fp == 0 and report.fn == 0
        assert report.mota == pytest.approx(1.0 - 2.0 / 40.0)
        assert report.motp == 1.0
        assert report.frag == 0
        assert report.matched_count == 40
        assert report.ids_per_match == pytest.approx(2.0 / 40.0)

    def test_hole_produces_fn_and_frag(self):
        gt = {1: track(BOX_A, range(1, 21))}
        hyp = {5: track(BOX_A, [f for f in range(1, 21) if not 8 <= f <= 12])}
        report = evaluate(hyp, gt)
        assert report.fn == 5
        assert report.fp == 0
        assert report.ids == 0
        assert report.frag == 1
        assert report.mota == pytest.approx(1.0 - 5.0 / 20.0)
        assert report.pt == 1  # 15/20 coverage

    def test_spurious_track_counts_fp(self):
        gt = {1: track(BOX_A, range(1, 21))}
        far = (400.0, 400.0, 10.0, 10.0)
        hyp = {1: track(BOX_A, range(1, 21)), 2: track(far, range(1, 6))}
        report = evaluate(hyp, gt)
        assert report.fp == 5
        assert report.faf == pytest.approx(5.0 / 20.0)
        assert report.mota == pytest.approx(1.0 - 5.0 / 20.0)

    def test_id_permutation_invariance(self):
        gt = {1: track(BOX_A, range(1, 21)), 2: track(BOX_B, range(1, 21))}
        hyp = {
            3: track(BOX_A, range(1, 16)),
            4: track(BOX_B, range(1, 21)),
        }
        renamed = {99: hyp[3], 1: hyp[4]}
        a, b = evaluate(hyp, gt), evaluate(renamed, gt)
        assert a == b

    def test_carry_over_prefers_previous_match(self):
        # two hypotheses both above threshold; the carried one must win
        gt = {1: track(BOX_A, range(1, 11))}
        near = (1.0, 0.0, 10.0, 10.0)
        hyp = {
            1: track(BOX_A, range(1, 11)),
            2: track(near, range(5, 11)),
        }
        report = evaluate(hyp, gt)
        assert report.ids == 0
        assert report.fp == 6  # the shadowing track is never matched

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate({}, {})

    def test_result_track_repeating_a_frame_rejected(self):
        gt = {1: track(BOX_A, range(1, 11))}
        hyp = {4: track(BOX_A, [1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10])}
        with pytest.raises(ValueError, match="id 4 lists frame 3 twice"):
            evaluate(hyp, gt)

    def test_ground_truth_track_repeating_a_frame_rejected(self):
        gt = {1: track(BOX_A, [1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10])}
        hyp = {4: track(BOX_A, range(1, 11))}
        with pytest.raises(ValueError, match="id 1 lists frame 3 twice"):
            evaluate(hyp, gt)

    def test_empty_ground_truth_track_rejected(self):
        gt = {1: track(BOX_A, range(1, 11)), 2: []}
        with pytest.raises(ValueError, match="id 2 has an empty track"):
            evaluate(gt, gt)

    def test_report_formatting(self):
        gt = {1: track(BOX_A, range(1, 6))}
        text = format_report(evaluate(gt, gt))
        assert "MOTA" in text and "IDS" in text


@st.composite
def scored_scenes(draw):
    """A ground truth and a result on a coarse grid of 10 x 10 boxes, so
    IoUs tie and boxes cross.  Ground-truth targets move 0 or 3 px a frame
    toward or away from each other, with gaps; result tracks copy a
    target's box (exactly, shifted 1, 2.5 or 5 px, or twice as tall: an
    IoU of exactly 0.5 when unshifted) or put a box
    anywhere, may switch from one target to another between frames,
    may repeat another result track under a new id (two identical
    boxes on one target), may run past the last ground-truth frame,
    and may be missing altogether."""
    n_frames = draw(st.integers(1, 8))
    gt = {}
    for ident in draw(st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True)):
        first = draw(st.integers(1, n_frames))
        last = draw(st.integers(first, n_frames))
        gaps = draw(st.sets(st.integers(first + 1, last), max_size=2)) if last > first else set()
        x0 = draw(st.sampled_from([0.0, 4.0, 8.0, 30.0]))
        step = draw(st.sampled_from([-3.0, 0.0, 3.0]))
        y = draw(st.sampled_from([0.0, 1.0]))
        gt[ident] = [
            (f, (x0 + step * (f - first), y, 10.0, 10.0))
            for f in range(first, last + 1)
            if f not in gaps
        ]
    result = {}
    if draw(st.integers(0, 9)) == 0:
        return result, gt
    for ident in draw(st.lists(st.integers(-2, 12), min_size=1, max_size=5, unique=True)):
        track = []
        for f in sorted(draw(st.sets(st.integers(1, n_frames + 2), max_size=n_frames + 2))):
            here = [box for entries in gt.values() for g, box in entries if g == f]
            if here and draw(st.integers(0, 3)):
                x, y, w, h = draw(st.sampled_from(here))
                dx = draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 5.0]))
                stretch = draw(st.sampled_from([1.0, 1.0, 1.0, 2.0]))  # 2: IoU 0.5 at dx 0
                track.append((f, (x + dx, y, w, h * stretch)))
            else:
                track.append((f, (draw(st.sampled_from([0.0, 3.0, 40.0])), 0.0, 10.0, 10.0)))
        result[ident] = track
    if result and draw(st.booleans()):
        result[100] = list(result[draw(st.sampled_from(sorted(result)))])
    return result, gt


class TestMatchesReference:
    """``evaluate`` against the per-frame CLEAR MOT loop it replaced
    (``oracles.reference_evaluate``): every field, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(scored_scenes())
    def test_every_field_equal(self, scene):
        result, gt = scene
        report, expected = evaluate(result, gt), reference_evaluate(result, gt)
        assert asdict(report) == asdict(expected)
        assert report.motp == expected.motp

    @pytest.mark.parametrize("result", [
        # two identical result boxes on one target: an IoU tie
        {1: track(BOX_A, range(1, 11)), 2: track(BOX_A, range(1, 11))},
        # a second box appears on the carried target halfway through
        {1: track(BOX_A, range(1, 11)), 2: track((1.0, 0.0, 10.0, 10.0), range(5, 11))},
        # both result ids hop between the two targets every frame
        {
            1: [(f, BOX_A if f % 2 else (1.0, 0.0, 10.0, 10.0)) for f in range(1, 11)],
            2: [(f, (1.0, 0.0, 10.0, 10.0) if f % 2 else BOX_A) for f in range(1, 11)],
        },
        {},
    ])
    def test_contested_frames(self, result):
        gt = {1: track(BOX_A, range(1, 11)), 2: track((1.5, 0.0, 10.0, 10.0), range(3, 13))}
        assert evaluate(result, gt) == reference_evaluate(result, gt)

    def test_sums_overlaps_in_the_order_matches_are_made(self):
        # Runs begin in frames 3, 1 and 2 on gt ids 1, 2 and 3, so from
        # frame 3 on each frame adds gt 2's overlap, then gt 3's, then gt
        # 1's.  Summed by frame and then gt id, MOTP differs in its last bit.
        gt = {
            1: track((0.0, 0.0, 10.0, 10.0), range(1, 7)),
            2: track((100.0, 0.0, 10.0, 10.0), range(1, 7)),
            3: track((200.0, 0.0, 10.0, 10.0), range(1, 7)),
        }
        result = {
            7: [(f, (0.1 * f, 0.0, 10.0, 10.0)) for f in range(3, 7)],
            5: [(f, (100.0 + 0.07 * f, 0.3, 10.0, 10.0)) for f in range(1, 7)],
            6: [(f, (200.3, 0.01 * f, 10.0, 10.0)) for f in range(2, 7)],
        }
        by_frame_then_id = 0.0
        for f in range(1, 7):
            for g, h in ((1, 7), (2, 5), (3, 6)):
                hyp = dict(result[h])
                if f in hyp:
                    by_frame_then_id += iou(dict(gt[g])[f], hyp[f])
        report = evaluate(result, gt)
        assert report.motp == reference_evaluate(result, gt).motp
        assert report.motp != by_frame_then_id / report.matched_count

    @pytest.mark.parametrize("result, gt", [
        ({}, {}),
        ({}, {1: track(BOX_A, [1, 2]), 2: [], 3: track(BOX_A, [1, 1])}),
        ({}, {2: track(BOX_A, [5, 3, 5, 3]), 1: track(BOX_A, [1, 2, 2])}),
        ({4: track(BOX_A, [1, 1])}, {1: track(BOX_A, [2, 3, 2])}),
        ({9: track(BOX_A, [4, 2, 3, 2, 4]), 8: []}, {1: track(BOX_A, [1, 2])}),
    ])
    def test_errors_keep_their_messages(self, result, gt):
        with pytest.raises(ValueError) as raised:
            evaluate(result, gt)
        with pytest.raises(ValueError) as expected:
            reference_evaluate(result, gt)
        assert str(raised.value) == str(expected.value)


@functools.lru_cache(maxsize=None)
def _bench_state(workload, index):
    """A benchmark scene (run seed 1) prepared for the weight sweep, as
    (state, ground truth, cfg)."""
    detections, gt, cfg = bench_scene(workload, index)
    return prepare_reliable_tracklets(detections, cfg), gt, cfg


def _counting_solves(monkeypatch):
    """The graphs of every ``flow.solve_paths`` call ``link`` makes."""
    real, graphs = association.solve_paths, []

    def counting(graph, mode="free"):
        graphs.append(graph)
        return real(graph, mode)

    monkeypatch.setattr(association, "solve_paths", counting)
    return graphs


def _reduced_keys(tables, cfg, points):
    """``learn_weights``' key of each point."""
    rows = [r for t in tables for r in t.rows if r.flagged or math.isfinite(r.cost)]
    key_of, _ = evaluation._sweep_scoring(rows, np.array([r.cost for r in rows]), cfg)
    return [key_of(point) for point in points]


def _split(keys):
    """How keys split their points: each point's first point with its key."""
    return [keys.index(k) for k in keys]


def _flagged_key(tables, cfg):
    """The (i, j, score, cost) of every flagged row under cfg."""
    return tuple(
        (r.i, r.j, r.score, r.cost)
        for t in tables
        for r in aff.refit_lambdas(t, cfg).rows
        if r.flagged
    )


class TestLearnWeights:
    def _setup(self, seed, bounce=True):
        from tracklink.association import prepare_reliable_tracklets
        from tracklink.synth import OcclusionSpec, ScenarioSpec, TargetSpec, generate_scenario

        spec = ScenarioSpec(
            n_frames=90,
            targets=(
                TargetSpec(id=1, start=1, end=90, box=(60.0, 200.0, 16.0, 32.0),
                           velocity=(5.0, 0.0)),
                TargetSpec(id=2, start=1, end=90, box=(470.0, 200.0, 16.0, 32.0),
                           velocity=(-5.0, 0.0)),
            ),
            occlusions=(
                OcclusionSpec(targets=(1, 2), frames=(43, 51),
                              swap_velocities=bounce, swap_frame=42),
            ),
            pos_noise=0.3,
            cluster_sep=4.0,
            seed=seed,
        )
        detections, gt = generate_scenario(spec)
        cfg = RunConfig(rng_seed=seed)
        state = prepare_reliable_tracklets(detections, cfg)
        return state, gt, cfg

    def test_sweep_budget_and_range(self):
        state, gt, cfg = self._setup(1)
        trace = []
        l1, l2 = learn_weights(state.reliable_tracklets, gt, cfg, state.tables, trace=trace)
        assert len(trace) == 22
        level1 = trace[:11]
        assert [t[0] for t in level1] == [round(0.1 * k, 1) for k in range(11)]
        assert 0.0 <= l1 <= 1.0 and 0.0 <= l2 <= 1.0

    def test_learned_mota_at_least_zero_point(self):
        state, gt, cfg = self._setup(2)
        trace = []
        l1, l2 = learn_weights(state.reliable_tracklets, gt, cfg, state.tables, trace=trace)
        mota_zero = trace[0][2]
        learned_entries = [t for t in trace if (t[0], t[1]) == (l1, l2)]
        assert learned_entries
        assert learned_entries[-1][2] >= mota_zero

    def test_sweep_without_flagged_rows_solves_once(self, monkeypatch):
        state, gt, cfg = self._setup(1)
        tables = [
            replace(t, rows=tuple(replace(r, flagged=False) for r in t.rows))
            for t in state.tables
        ]
        real_link = evaluation.link
        calls = []

        def counting_link(*args):
            calls.append(args)
            return real_link(*args)

        monkeypatch.setattr(evaluation, "link", counting_link)
        solves = _counting_solves(monkeypatch)
        trace = []
        learned = learn_weights(state.reliable_tracklets, gt, cfg, tables, trace=trace)
        assert len(calls) == 1
        assert len(solves) == 1  # one key: one graph is solved
        refit = [aff.refit_lambdas(t, cfg) for t in tables]
        report = evaluate(result_view(associate(state.reliable_tracklets, refit, cfg)), gt)
        sweep = [round(0.1 * k, 1) for k in range(11)]
        assert learned == (0.0, 0.0)
        assert trace == [(v, 0.0, report.mota, report.ids) for v in sweep] + [
            (0.0, v, report.mota, report.ids) for v in sweep
        ]

    def test_one_evaluation_per_distinct_chain_set(self, monkeypatch):
        # without the bounce, both solves of the sweep give the same chains
        state, gt, cfg = self._setup(1, bounce=False)
        assert any(r.flagged for t in state.tables for r in t.rows)
        real_link, real_evaluate = evaluation.link, evaluation.evaluate
        solved, evaluated = [], []

        def counting_link(*args):
            solved.append(real_link(*args))
            return solved[-1]

        def counting_evaluate(*args):
            evaluated.append(args)
            return real_evaluate(*args)

        monkeypatch.setattr(evaluation, "link", counting_link)
        monkeypatch.setattr(evaluation, "evaluate", counting_evaluate)
        learn_weights(state.reliable_tracklets, gt, cfg, state.tables)
        assert len(solved) == 2
        assert len(evaluated) == len(set(solved)) == 1

    @pytest.mark.parametrize(
        "workload, keys",
        [("appearance", [12, 12, 12]), ("crowd", [12, 12, 12])],
        ids=["appearance", "crowd"],
    )
    def test_one_solve_per_flagged_key(self, workload, keys, monkeypatch):
        # on the benchmark's scenes, one graph is solved per distinct
        # (score, cost) of the flagged rows, and it is the graph of the
        # tables refit at that key's first point
        solved = []
        for index in range(3):
            state, gt, cfg = _bench_state(workload, index)
            solves = _counting_solves(monkeypatch)
            trace = []
            learn_weights(state.reliable_tracklets, gt, cfg, state.tables, trace=trace)
            monkeypatch.undo()
            points = [replace(cfg, lambda1=l1, lambda2=l2) for l1, l2, *_ in trace]
            full = [_flagged_key(state.tables, c) for c in points]
            firsts = [points[full.index(k)] for k in dict.fromkeys(full)]
            assert len(solves) == len(firsts)
            for graph, point in zip(solves, firsts):
                refit = [aff.refit_lambdas(t, point) for t in state.tables]
                want = reference_association_graph(state.reliable_tracklets, refit, point)
                assert sorted(graph.node_ids) == sorted(want.node_ids)
                assert sorted(graph.edges) == sorted(want.edges)
            solved.append(len(solves))
        assert solved == keys

    @pytest.mark.parametrize("workload", ["appearance", "crowd"])
    def test_reduced_key_splits_bench_points_like_every_flagged_row(self, workload):
        for index in range(3):
            state, gt, cfg = _bench_state(workload, index)
            trace = []
            learn_weights(state.reliable_tracklets, gt, cfg, state.tables, trace=trace)
            points = [replace(cfg, lambda1=l1, lambda2=l2) for l1, l2, *_ in trace]
            full = [_flagged_key(state.tables, c) for c in points]
            assert _split(_reduced_keys(state.tables, cfg, points)) == _split(full)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([-0.5, -0.0, 0.0, 1.0, 1.5]), st.floats(0.0, 1.0)),
                st.one_of(st.sampled_from([0.0, 1e-13, 1.0]), st.floats(0.0, 1.0)),
                st.integers(-1, 4),
                st.booleans(),
            ),
            max_size=12,
        ),
        gap_bound=st.integers(0, 3),
    )
    def test_reduced_key_splits_points_like_every_flagged_row(self, rows, gap_bound):
        # rows with P_m <= 0, P_m >= 1, 0 < P_m < 1, gap 0, P_a 0 or 1 and
        # a floored score; every point of the 11 x 11 grid
        cfg = RunConfig(gap_bound=gap_bound)
        table = aff.AffinityTable(0, tuple(
            aff.AffinityRow(k, k + 1, p_m, p_a, flagged, gap, *aff.link_score(p_m, p_a, flagged, gap, cfg))
            for k, (p_m, p_a, gap, flagged) in enumerate(rows)
        ), 1.0)
        sweep = [round(0.1 * k, 1) for k in range(11)]
        points = [replace(cfg, lambda1=a, lambda2=b) for a in sweep for b in sweep]
        full = [_flagged_key([table], c) for c in points]
        assert _split(_reduced_keys([table], cfg, points)) == _split(full)
        key_of, costs_of = evaluation._sweep_scoring(table.rows, np.array([r.cost for r in table.rows]), cfg)
        for point in points:
            want = [r.cost for r in aff.refit_lambdas(table, point).rows]
            assert costs_of(key_of(point)).tolist() == want

    @pytest.mark.parametrize(
        "scene", [1, 2, ("crowd", 0), ("crowd", 1), ("crowd", 2)],
        ids=["1", "2", "crowd-0", "crowd-1", "crowd-2"],
    )
    def test_matches_a_sweep_that_evaluates_every_point(self, scene):
        # seeds 1 and 2 of the two-target scenario, and the benchmark's
        # crowd scenes
        state, gt, cfg = self._setup(scene) if isinstance(scene, int) else _bench_state(*scene)
        sweep = [round(0.1 * k, 1) for k in range(11)]
        expected = []
        learned = [0.0, 0.0]
        for level in (0, 1):
            best = None
            for value in sweep:
                trial = learned.copy()
                trial[level] = value
                point = replace(cfg, lambda1=trial[0], lambda2=trial[1])
                refit = [aff.refit_lambdas(t, point) for t in state.tables]
                report = evaluate(result_view(associate(state.reliable_tracklets, refit, point)), gt)
                expected.append((trial[0], trial[1], report.mota, report.ids))
                if best is None or report.mota > best[0] or (
                    report.mota == best[0] and report.ids < best[1]
                ):
                    best = (report.mota, report.ids, value)
            learned[level] = best[2]
        trace = []
        assert learn_weights(state.reliable_tracklets, gt, cfg, state.tables, trace=trace) == tuple(
            learned
        )
        assert trace == expected
