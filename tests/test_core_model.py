import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracklink.model import Detection, RunConfig, Tracklet, gap_frames, iou

from conftest import make_tracklet


def span(tid, start, end):
    return make_tracklet(tid, start, length=end - start + 1)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 5, 5)) == 0.0

    def test_half_shift(self):
        assert iou((0, 0, 10, 10), (0, 5, 10, 10)) == pytest.approx(1.0 / 3.0)

    @given(
        st.tuples(*[st.floats(-50, 50) for _ in range(2)], *[st.floats(1, 30) for _ in range(2)]),
        st.tuples(*[st.floats(-50, 50) for _ in range(2)], *[st.floats(1, 30) for _ in range(2)]),
    )
    def test_symmetric_and_self_unit(self, a, b):
        assert iou(a, b) == pytest.approx(iou(b, a))
        assert iou(a, a) == pytest.approx(1.0)


class TestGapFrames:
    def test_one_missing(self):
        assert gap_frames(span(1, 1, 10), span(2, 12, 14)) == 1

    def test_adjacent(self):
        assert gap_frames(span(1, 1, 10), span(2, 11, 14)) == 0

    def test_long_gap(self):
        assert gap_frames(span(1, 1, 10), span(2, 32, 40)) == 21

    def test_ordering_violated(self):
        with pytest.raises(ValueError):
            gap_frames(span(1, 5, 10), span(2, 8, 12))


class TestTypes:
    def test_detection_rejects_flat_box(self):
        with pytest.raises(ValueError):
            Detection(frame=1, box=(0, 0, -5, 10), score=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", range(4))
    def test_detection_rejects_non_finite_box(self, index, value):
        box = [10.0, 20.0, 4.0, 8.0]
        box[index] = value
        with pytest.raises(ValueError, match="finite"):
            Detection(frame=1, box=tuple(box), score=0.5)

    @pytest.mark.parametrize("score", [np.nan, 0.0, 1.0, 1.5, -0.2])
    def test_detection_rejects_score_outside_unit_interval(self, score):
        with pytest.raises(ValueError, match="score"):
            Detection(frame=1, box=(0, 0, 5, 5), score=score)

    @pytest.mark.parametrize("frame", [True, 1.0, 2.5, "3", 0, -1])
    def test_detection_rejects_non_integer_or_zero_frame(self, frame):
        with pytest.raises(ValueError, match="frame"):
            Detection(frame=frame, box=(0, 0, 5, 5), score=0.5)

    def test_detection_accepts_numpy_integer_frame(self):
        assert Detection(frame=np.int64(3), box=(0, 0, 5, 5), score=0.5).frame == 3

    def test_tracklet_rejects_gaps(self):
        d1 = Detection(frame=1, box=(0, 0, 5, 5), score=0.5)
        d3 = Detection(frame=3, box=(0, 0, 5, 5), score=0.5)
        with pytest.raises(ValueError):
            Tracklet(id=1, detections=(d1, d3))

    def test_center_and_area(self):
        d = Detection(frame=2, box=(10.0, 20.0, 4.0, 8.0), score=0.7)
        assert d.center == (12.0, 24.0)
        assert d.area == 32.0

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            RunConfig(lambda1=1.5)
        with pytest.raises(ValueError):
            RunConfig(segment_len=10, probe_window=8)
        with pytest.raises(ValueError):
            RunConfig(overlap_eta=1.0)
        with pytest.raises(ValueError):
            RunConfig(rank_tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(distance_threshold=-1.0)

    @pytest.mark.parametrize(
        "fields", [{"segment_len": 0, "probe_window": 0}, {"probe_window": -1}, {"strongest_q": 0}]
    )
    def test_config_rejects_empty_sample_window(self, fields):
        # a zero probe window would admit a zero segment_len, on which
        # segment partitioning never advances; zero samples leave no probe
        with pytest.raises(ValueError, match="at least 1"):
            RunConfig(**fields)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"split_run": 0}, "split_run"),  # refinement would never split
            ({"split_run": -3}, "split_run"),
            ({"refine_iters": -1}, "refine_iters"),
            ({"gap_bound": -5}, "gap_bound"),
            ({"rng_seed": -1}, "rng_seed"),  # numpy seeds only from n >= 0
        ],
    )
    def test_config_rejects_values_that_break_the_run(self, fields, name):
        with pytest.raises(ValueError, match=name):
            RunConfig(**fields)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rng_seed", 0.5),
            ("split_run", 2.5),
            ("segment_len", 50.0),
            ("probe_window", "8"),
            ("strongest_q", True),
            ("refine_iters", None),
            ("gap_bound", 20.5),
        ],
    )
    def test_config_rejects_non_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "distance_threshold", "rank_tol", "overlap_eta", "lambda1", "lambda2",
            "exit_band_frac", "entry_exit_prob", "det_threshold", "frame_width", "frame_height",
        ],
    )
    def test_config_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"exit_band_frac": -1.0}, "exit_band_frac"),  # hidden by ExitMap's 1-pixel floor
            ({"exit_band_frac": 0.5}, "exit_band_frac"),  # the band would cover the frame
            ({"frame_width": -1280.0}, "frame_width"),  # would be ignored silently
            ({"frame_height": -1.0}, "frame_height"),
        ],
    )
    def test_config_rejects_out_of_range_floats(self, fields, name):
        with pytest.raises(ValueError, match=name):
            RunConfig(**fields)

    def test_config_accepts_the_lowest_valid_values(self):
        RunConfig(split_run=1, refine_iters=0, gap_bound=0, rng_seed=0)
        RunConfig(exit_band_frac=0.0, frame_width=0.0, frame_height=0.0)

    def test_config_defaults_match_defaults_in_use(self):
        cfg = RunConfig()
        assert cfg.segment_len == 50
        assert cfg.probe_window == 8
        assert cfg.strongest_q == 4
        assert cfg.split_run == 5
        assert cfg.refine_iters == 2
        assert cfg.rank_tol == 0.01
        assert cfg.overlap_eta == 0.3
        assert cfg.gap_bound == 20
        assert (cfg.lambda1, cfg.lambda2) == (0.5, 0.2)
        assert cfg.entry_exit_prob == 0.1
