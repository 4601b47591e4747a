import math
from dataclasses import replace

import numpy as np
import pytest

from tracklink import affinity as aff
from tracklink import evaluation
from tracklink.association import associate
from tracklink.evaluation import evaluate, format_report, learn_weights
from tracklink.model import RunConfig
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
        trace = []
        learned = learn_weights(state.reliable_tracklets, gt, cfg, tables, trace=trace)
        assert len(calls) == 1
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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_a_sweep_that_evaluates_every_point(self, seed):
        state, gt, cfg = self._setup(seed)
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
