import numpy as np
import pytest

from tracklink.model import RunConfig, Trajectory
from tracklink.mot_io import (
    ParseError,
    dump_config,
    load_config,
    load_detections,
    load_ground_truth,
    result_view,
    write_detections,
    write_ground_truth,
    write_trajectories,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDetections:
    def test_grouping(self, tmp_path):
        path = write(
            tmp_path,
            "d.csv",
            "1,-1,10,10,5,5,0.9\n1,-1,30,10,5,5,0.8\n2,-1,12,10,5,5,0.7\n",
        )
        dets = load_detections(path)
        assert sorted(dets) == [1, 2]
        assert len(dets[1]) == 2
        assert len(dets[2]) == 1

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        assert load_detections(path) == {}

    def test_negative_width_names_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,-1,10,10,5,5,0.9\n2,-1,10,10,-5,5,0.9\n")
        with pytest.raises(ParseError, match=r"d\.csv:2"):
            load_detections(path)

    def test_score_out_of_range(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,-1,10,10,5,5,1.5\n")
        with pytest.raises(ParseError, match="score"):
            load_detections(path)

    @pytest.mark.parametrize(
        "row, rule",
        [
            ("1,-1,10,10,5,5,1.5", "score"),
            ("1,-1,10,10,nan,5,0.9", "non-finite"),
            ("1,-1,10,10,5,5,0", "score"),
            ("0,-1,10,10,5,5,0.9", "1-based"),
            ("1,-1,10,10,0,5,0.9", "w, h > 0"),
            ("1,-1,10,10,5,-5,0.9", "w, h > 0"),
        ],
    )
    def test_rejected_detection_names_its_line(self, tmp_path, row, rule):
        # the row sorts first but sits on line 2
        path = write(tmp_path, "d.csv", f"2,-1,30,10,5,5,0.8\n{row}\n1,-1,40,10,5,5,0.7\n")
        with pytest.raises(ParseError, match=rf"d\.csv:2: .*{rule}"):
            load_detections(path)

    def test_rows_sorted_within_frame(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,-1,30,10,5,5,0.8\n1,-1,10,10,5,5,0.9\n")
        dets = load_detections(path)
        assert [d.box[0] for d in dets[1]] == [10, 30]

    def test_id_hint_kept(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,3,10,10,5,5,0.9\n1,-1,30,10,5,5,0.8\n")
        dets = load_detections(path)
        assert dets[1][0].id_hint == 3
        assert dets[1][1].id_hint is None

    def test_sidecar_attach_and_dim_check(self, tmp_path):
        det = write(tmp_path, "d.csv", "1,-1,10,10,5,5,0.9\n1,-1,30,10,5,5,0.8\n")
        feat = write(tmp_path, "f.csv", "1,0,1,2,3\n1,1,4,5,6\n")
        dets = load_detections(det, sidecar_path=feat)
        assert np.allclose(dets[1][0].feature, [1, 2, 3])
        assert np.allclose(dets[1][1].feature, [4, 5, 6])
        ragged = write(tmp_path, "g.csv", "1,0,1,2,3\n1,1,4,5,6,7,8\n")
        with pytest.raises(ParseError, match=r"g\.csv:2: feature dimension 5 != first row's 3"):
            load_detections(det, sidecar_path=ragged)

    def test_sidecar_missing_row(self, tmp_path):
        det = write(tmp_path, "d.csv", "1,-1,10,10,5,5,0.9\n1,-1,30,10,5,5,0.8\n")
        feat = write(tmp_path, "f.csv", "1,0,1,2,3\n")
        with pytest.raises(ParseError, match="missing feature row"):
            load_detections(det, sidecar_path=feat)

    @pytest.mark.parametrize(
        "row", ["1,-1,10,10,nan,5,0.9", "1,-1,inf,10,5,5,0.9", "1,-1,10,10,5,5,nan"]
    )
    def test_non_finite_value_names_line(self, tmp_path, row):
        path = write(tmp_path, "d.csv", f"1,-1,30,10,5,5,0.8\n{row}\n")
        with pytest.raises(ParseError, match=r"d\.csv:2: non-finite"):
            load_detections(path)

    @pytest.mark.parametrize("row", ["1.7,-1,10,10,5,5,0.9", "1,2.5,10,10,5,5,0.9"])
    def test_fractional_frame_or_id_names_line(self, tmp_path, row):
        path = write(tmp_path, "d.csv", f"1,-1,30,10,5,5,0.8\n{row}\n")
        with pytest.raises(ParseError, match=r"d\.csv:2: (frame|id) must be an integer"):
            load_detections(path)

    def test_sidecar_fractional_index_names_line(self, tmp_path):
        det = write(tmp_path, "d.csv", "1,-1,10,10,5,5,0.9\n")
        feat = write(tmp_path, "f.csv", "1,0.5,1,2,3\n")
        with pytest.raises(ParseError, match=r"f\.csv:1: index must be an integer"):
            load_detections(det, sidecar_path=feat)


class TestGroundTruth:
    def test_two_ids(self, tmp_path):
        rows = "".join(
            f"{f},{i},{10*i},{20},{5},{5},1,-1,-1,-1\n" for i in (1, 2) for f in range(1, 11)
        )
        gt = load_ground_truth(write(tmp_path, "g.csv", rows))
        assert sorted(gt) == [1, 2]
        assert len(gt[1]) == len(gt[2]) == 10

    def test_gaps_preserved(self, tmp_path):
        rows = "".join(f"{f},1,10,20,5,5,1\n" for f in (1, 2, 9))
        gt = load_ground_truth(write(tmp_path, "g.csv", rows))
        assert [f for f, _ in gt[1]] == [1, 2, 9]

    def test_negative_id_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="id must be >= 1"):
            load_ground_truth(write(tmp_path, "g.csv", "1,-1,10,20,5,5,1\n"))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2.5,1,10,20,5,5,1", "frame must be an integer"),
            ("2,1,10,20,nan,5,1", "non-finite"),
            ("0,1,10,20,5,5,1", "frame must be >= 1"),
            ("2,1,10,20,5,0,1", "box must be four finite values"),
        ],
    )
    def test_bad_value_names_line(self, tmp_path, row, message):
        path = write(tmp_path, "g.csv", f"1,1,10,20,5,5,1\n{row}\n")
        with pytest.raises(ParseError, match=rf"g\.csv:2: {message}"):
            load_ground_truth(path)

    def test_duplicate_frame_id_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            load_ground_truth(write(tmp_path, "g.csv", "1,1,10,20,5,5,1\n1,1,11,20,5,5,1\n"))


class TestWriteTrajectories:
    def _traj(self, tid, start, boxes):
        return Trajectory(
            id=tid,
            tracklet_ids=(tid,),
            interpolated=tuple((start + i, box) for i, box in enumerate(boxes)),
        )

    def test_row_count_and_order(self, tmp_path):
        trajs = [self._traj(1, 1, [(0, 0, 5, 5)] * 3)]
        out = tmp_path / "r.csv"
        write_trajectories(trajs, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "1,1,0,0,5,5,1,-1,-1,-1"

    def test_empty_set_empty_file(self, tmp_path):
        out = tmp_path / "r.csv"
        write_trajectories([], out)
        assert out.read_text() == ""

    def test_round_trip(self, tmp_path):
        trajs = [
            self._traj(1, 1, [(0.125, 0.5, 5, 5), (1.25, 0.5, 5, 5)]),
            self._traj(2, 3, [(40, 40, 6, 8)]),
        ]
        out = tmp_path / "r.csv"
        write_trajectories(trajs, out)
        loaded = load_ground_truth(out)
        assert loaded == {
            1: [(1, (0.125, 0.5, 5, 5)), (2, (1.25, 0.5, 5, 5))],
            2: [(3, (40, 40, 6, 8))],
        }
        assert loaded == result_view(trajs)

    def test_byte_identical_rewrite(self, tmp_path):
        trajs = [self._traj(1, 1, [(0.333333, 7.125, 5, 5)] * 4)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectories(trajs, a)
        write_trajectories(trajs, b)
        assert a.read_bytes() == b.read_bytes()


class TestDetectionRoundTrip:
    def test_write_then_load(self, tmp_path, rng):
        from tracklink.model import Detection

        dets = {
            1: [
                Detection(frame=1, box=(10, 10, 5, 5), score=0.9,
                          feature=np.array([1.0, 2.0]), id_hint=1),
                Detection(frame=1, box=(30, 10, 5, 5), score=0.8,
                          feature=np.array([3.0, 4.0]), id_hint=2),
            ],
            2: [
                Detection(frame=2, box=(12, 10, 5, 5), score=0.7,
                          feature=np.array([5.0, 6.0]), id_hint=1),
            ],
        }
        dp, fp = tmp_path / "d.csv", tmp_path / "f.csv"
        write_detections(dets, dp, fp)
        loaded = load_detections(dp, sidecar_path=fp)
        assert sorted(loaded) == [1, 2]
        for frame in (1, 2):
            for a, b in zip(dets[frame], loaded[frame]):
                assert a.box == b.box
                assert a.score == pytest.approx(b.score)
                assert a.id_hint == b.id_hint
                assert np.allclose(a.feature, b.feature)


    def test_same_corner_features_survive_shuffled_rows(self, tmp_path):
        from tracklink.model import Detection

        # two boxes sharing their top-left corner, exactly or once written
        # with 6 significant digits; only w, h and score tell them apart
        for x_small in (10.0, 10.0000001):
            small = Detection(frame=1, box=(x_small, 10, 5, 5), score=0.9,
                              feature=np.array([1.0, 1.0]))
            large = Detection(frame=1, box=(10.0, 10, 8, 9), score=0.6,
                              feature=np.array([2.0, 2.0]))
            for order in ([small, large], [large, small]):
                dp, fp = tmp_path / "d.csv", tmp_path / "f.csv"
                write_detections({1: order}, dp, fp)
                lines = dp.read_text().splitlines()
                for shuffled in (lines, lines[::-1]):
                    dp.write_text("\n".join(shuffled) + "\n")
                    loaded = load_detections(dp, sidecar_path=fp)
                    by_size = {d.box[2:]: d.feature.tolist() for d in loaded[1]}
                    assert by_size == {(5, 5): [1.0, 1.0], (8, 9): [2.0, 2.0]}


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        cfg = load_config(
            write(
                tmp_path,
                "c.cfg",
                "# comment\nsegment_len=40\nprobe_window=6\nlambda1=0.4\n"
                "distance_threshold=auto\nrng_seed=3\n",
            )
        )
        assert cfg.segment_len == 40
        assert cfg.probe_window == 6
        assert cfg.lambda1 == 0.4
        assert cfg.distance_threshold is None
        assert cfg.rng_seed == 3
        assert cfg.strongest_q == 4  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="unknown config key"):
            load_config(write(tmp_path, "c.cfg", "segment_length=40\n"))

    def test_invalid_value_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="invalid configuration"):
            load_config(write(tmp_path, "c.cfg", "lambda1=1.4\n"))

    @pytest.mark.parametrize("text", ["segment_len=0\nprobe_window=0\n", "strongest_q=0\n"])
    def test_empty_sample_window_rejected(self, tmp_path, text):
        with pytest.raises(ParseError, match="invalid configuration: .* at least 1"):
            load_config(write(tmp_path, "c.cfg", text))

    @pytest.mark.parametrize(
        "text, name",
        [
            ("split_run=0\n", "split_run"),
            ("refine_iters=-1\n", "refine_iters"),
            ("gap_bound=-5\n", "gap_bound"),
            ("rng_seed=-1\n", "rng_seed"),
        ],
    )
    def test_values_that_break_the_run_rejected(self, tmp_path, text, name):
        with pytest.raises(ParseError, match=f"invalid configuration: .*{name}"):
            load_config(write(tmp_path, "c.cfg", text))

    def test_dump_round_trip(self, tmp_path):
        cfg = RunConfig(segment_len=30, probe_window=5, rng_seed=9)
        path = tmp_path / "c.cfg"
        dump_config(cfg, path)
        assert load_config(path) == cfg
