import json
import re

import numpy as np
import pytest

from tracklink.cli import main
from tracklink.mot_io import load_detections, load_ground_truth
from tracklink.synth import (
    OcclusionSpec,
    ScenarioSpec,
    TargetSpec,
    generate_scenario,
    scenario_from_dict,
    simplex_directions,
    write_scenario,
)


def crossing_spec(seed=5, **overrides):
    base = dict(
        n_frames=70,
        width=640.0,
        height=480.0,
        targets=(
            TargetSpec(id=1, start=1, end=70, box=(60.0, 200.0, 16.0, 32.0),
                       velocity=(6.0, 0.5)),
            TargetSpec(id=2, start=1, end=70, box=(480.0, 230.0, 16.0, 32.0),
                       velocity=(-6.0, -0.5)),
        ),
        occlusions=(OcclusionSpec(targets=(1, 2), frames=(31, 40)),),
        pos_noise=0.5,
        seed=seed,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSimplex:
    def test_antipodal_for_two(self, rng):
        dirs = simplex_directions(2, 32, rng)
        assert np.allclose(dirs[0], -dirs[1])
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_equal_pairwise_distances(self, rng):
        dirs = simplex_directions(4, 16, rng)
        dists = [
            np.linalg.norm(dirs[i] - dirs[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        assert np.allclose(dists, dists[0])


class TestGenerate:
    def test_occlusion_hole_and_full_gt(self):
        detections, gt = generate_scenario(crossing_spec())
        frames_with_1 = {f for f, dets in detections.items() for d in dets if d.id_hint == 1}
        assert not frames_with_1 & set(range(31, 41))
        assert [f for f, _ in gt[1]] == list(range(1, 71))
        assert sorted(gt) == [1, 2]

    def test_noise_free_detections_equal_gt(self):
        detections, gt = generate_scenario(crossing_spec(pos_noise=0.0, miss_prob=0.0))
        gt_map = {ident: dict(track) for ident, track in gt.items()}
        for frame, dets in detections.items():
            for d in dets:
                assert d.box == pytest.approx(gt_map[d.id_hint][frame])

    def test_merge_gives_the_visible_target_the_union_box(self):
        # target 2 is hidden over frames 31-40; target 1 stays visible
        occlusion = OcclusionSpec(targets=(1, 2), frames=(31, 40), hide=(2,), merge=True)
        spec = crossing_spec(pos_noise=0.0, occlusions=(occlusion,))
        detections, gt = generate_scenario(spec)
        truth = {ident: dict(track) for ident, track in gt.items()}
        for frame, dets in detections.items():
            (box,) = [d.box for d in dets if d.id_hint == 1]
            if 31 <= frame <= 40:
                assert 2 not in {d.id_hint for d in dets}
                (x1, y1, w1, h1), (x2, y2, w2, h2) = truth[1][frame], truth[2][frame]
                x, y = min(x1, x2), min(y1, y2)
                union = (x, y, max(x1 + w1, x2 + w2) - x, max(y1 + h1, y2 + h2) - y)
                assert box == pytest.approx(union)
                assert box != pytest.approx(truth[1][frame])
            else:
                assert box == pytest.approx(truth[1][frame])

    def test_deterministic_files(self, tmp_path):
        spec = crossing_spec()
        a = write_scenario(spec, tmp_path / "a")
        b = write_scenario(spec, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_duplicate_ids_rejected(self):
        spec = crossing_spec(targets=(
            TargetSpec(id=1, start=1, end=10, box=(10, 10, 5, 5)),
            TargetSpec(id=1, start=1, end=10, box=(50, 10, 5, 5)),
        ))
        with pytest.raises(ValueError, match="unique"):
            generate_scenario(spec)

    def test_velocity_swap_changes_paths(self):
        plain = crossing_spec(pos_noise=0.0)
        bounce = crossing_spec(
            pos_noise=0.0,
            occlusions=(OcclusionSpec(targets=(1, 2), frames=(31, 40), swap_velocities=True),),
        )
        _, gt_plain = generate_scenario(plain)
        _, gt_bounce = generate_scenario(bounce)
        # identical before the swap midpoint, different after
        assert gt_plain[1][:30] == gt_bounce[1][:30]
        assert gt_plain[1][-1] != gt_bounce[1][-1]


def scenario_dict():
    """A scenario file's content that sets every key it may hold."""
    return {
        "n_frames": 30, "width": 320.0, "height": 240.0, "feature_dim": 8,
        "cluster_sep": 3.0, "feature_noise": 0.5, "pos_noise": 0.2, "miss_prob": 0.1,
        "score_mean": 0.8, "score_spread": 0.02, "seed": 3,
        "targets": [
            {"id": 1, "start": 1, "end": 30, "box": [20, 100, 16, 32],
             "motion": "quadratic", "velocity": [4, 0], "accel": [0.1, 0]},
            {"id": 2, "start": 2, "end": 30, "box": [280, 100, 16, 32],
             "motion": "constant-velocity", "velocity": [-4, 0]},
        ],
        "occlusions": [
            {"targets": [1, 2], "frames": [12, 16], "hide": [2],
             "swap_velocities": True, "swap_frame": 14, "merge": True},
        ],
    }


def _part(data, part):
    parts = {"scenario": data, "target": data["targets"][1], "occlusion": data["occlusions"][0]}
    return parts[part]


class TestScenarioFile:
    def test_every_field_is_read(self):
        spec = scenario_from_dict(scenario_dict())
        assert (spec.n_frames, spec.feature_dim, spec.miss_prob, spec.seed) == (30, 8, 0.1, 3)
        assert spec.targets[0] == TargetSpec(
            id=1, start=1, end=30, box=(20, 100, 16, 32), motion="quadratic",
            velocity=(4, 0), accel=(0.1, 0),
        )
        assert spec.occlusions[0] == OcclusionSpec(
            targets=(1, 2), frames=(12, 16), hide=(2,), swap_velocities=True,
            swap_frame=14, merge=True,
        )

    @pytest.mark.parametrize("part, key", [
        ("scenario", "feature_dims"), ("target", "velocty"), ("occlusion", "swap"),
    ])
    def test_unknown_key_rejected(self, part, key):
        data = scenario_dict()
        _part(data, part)[key] = 1
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(data)

    @pytest.mark.parametrize("part, key", [
        ("scenario", "n_frames"), ("scenario", "targets"), ("target", "box"),
        ("occlusion", "frames"),
    ])
    def test_missing_required_key_rejected(self, part, key):
        data = scenario_dict()
        del _part(data, part)[key]
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(data)

    def test_unknown_motion_rejected(self):
        data = scenario_dict()
        data["targets"][0]["motion"] = "linear"
        with pytest.raises(ValueError, match="linear"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("part, key, value, path", [
        ("target", "box", 5, "targets[1].box"),
        ("scenario", "n_frames", "70", "n_frames"),
        ("target", "velocity", [1], "targets[1].velocity"),
        ("scenario", "seed", True, "seed"),
        ("scenario", "pos_noise", "0.5", "pos_noise"),
        ("scenario", "targets", {}, "targets"),
        ("target", "box", [20, 100, 16, "32"], "targets[1].box[3]"),
        ("occlusion", "hide", 2, "occlusions[0].hide"),
        ("occlusion", "swap_velocities", 1, "occlusions[0].swap_velocities"),
        ("occlusion", "swap_frame", 14.0, "occlusions[0].swap_frame"),
    ])
    def test_value_of_the_wrong_type_rejected(self, part, key, value, path):
        data = scenario_dict()
        _part(data, part)[key] = value
        with pytest.raises(ValueError, match=re.escape(path)):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("pos_noise", -1), ("pos_noise", float("nan")), ("pos_noise", float("inf")),
        ("feature_noise", -0.5), ("feature_noise", float("nan")),
        ("score_spread", -0.01), ("score_spread", float("-inf")),
        ("miss_prob", -0.1), ("miss_prob", 1.5), ("miss_prob", float("nan")),
    ])
    def test_noise_level_out_of_range_rejected(self, key, value):
        data = scenario_dict()
        data[key] = value
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(data)
        with pytest.raises(ValueError, match=key):
            crossing_spec(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("pos_noise", 0), ("feature_noise", 0.0), ("score_spread", 0), ("miss_prob", 0),
        ("miss_prob", 1),
    ])
    def test_noise_level_at_its_bound_accepted(self, key, value):
        data = scenario_dict()
        data[key] = value
        assert getattr(scenario_from_dict(data), key) == value

    def test_optional_field_may_be_null(self):
        data = scenario_dict()
        data["occlusions"][0].update(hide=None, swap_frame=None)
        occlusion = scenario_from_dict(data).occlusions[0]
        assert (occlusion.hide, occlusion.swap_frame) == (None, None)

    def test_cli_reports_a_typo(self, tmp_path, capsys):
        misspelled = scenario_dict()
        misspelled["targets"][0]["velocty"] = misspelled["targets"][0].pop("velocity")
        quoted = scenario_dict()
        quoted["n_frames"] = "70"
        negative = scenario_dict()
        negative["pos_noise"] = -1
        for data, key in ((misspelled, "velocty"), (quoted, "n_frames"), (negative, "pos_noise")):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            code = main(["synth", "--scenario", str(path), "--out-dir", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err
            assert not (tmp_path / "out").exists()


def scenario_json(tmp_path, spec):
    data = {
        "n_frames": spec.n_frames,
        "width": spec.width,
        "height": spec.height,
        "feature_dim": spec.feature_dim,
        "cluster_sep": spec.cluster_sep,
        "feature_noise": spec.feature_noise,
        "pos_noise": spec.pos_noise,
        "seed": spec.seed,
        "targets": [
            {
                "id": t.id, "start": t.start, "end": t.end, "box": list(t.box),
                "motion": t.motion, "velocity": list(t.velocity),
            }
            for t in spec.targets
        ],
        "occlusions": [
            {
                "targets": list(o.targets), "frames": list(o.frames),
                "swap_velocities": o.swap_velocities,
            }
            for o in spec.occlusions
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestCli:
    def test_synth_track_evaluate_pipeline(self, tmp_path, capsys):
        scn = scenario_json(tmp_path, crossing_spec())
        out = tmp_path / "data"
        assert main(["synth", "--scenario", str(scn), "--out-dir", str(out)]) == 0
        result = tmp_path / "result.csv"
        code = main([
            "track",
            "--det", str(out / "detections.csv"),
            "--features", str(out / "features.csv"),
            "--out", str(result),
            "--summary", str(tmp_path / "summary.json"),
        ])
        assert code == 0
        assert result.exists()
        assert json.loads((tmp_path / "summary.json").read_text())
        code = main(["evaluate", "--result", str(result), "--gt", str(out / "gt.csv"),
                     "--json", str(tmp_path / "report.json")])
        assert code == 0
        captured = capsys.readouterr()
        assert "MOTA" in captured.out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ids"] == 0

    def test_track_takes_feature_size_from_sidecar(self, tmp_path):
        # no config: the sidecar's first row sets the feature size
        scn = scenario_json(tmp_path, crossing_spec(feature_dim=16))
        out = tmp_path / "data"
        assert main(["synth", "--scenario", str(scn), "--out-dir", str(out)]) == 0
        first = (out / "features.csv").read_text().splitlines()[0]
        assert len(first.split(",")) == 2 + 16
        result = tmp_path / "result.csv"
        assert main([
            "track", "--det", str(out / "detections.csv"),
            "--features", str(out / "features.csv"), "--out", str(result),
        ]) == 0
        assert load_ground_truth(result)

    def test_track_determinism(self, tmp_path):
        scn = scenario_json(tmp_path, crossing_spec())
        out = tmp_path / "data"
        main(["synth", "--scenario", str(scn), "--out-dir", str(out)])
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for r in (r1, r2):
            assert main([
                "track", "--det", str(out / "detections.csv"),
                "--features", str(out / "features.csv"), "--out", str(r),
            ]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_learn_weights_command(self, tmp_path, capsys):
        scn = scenario_json(tmp_path, crossing_spec())
        out = tmp_path / "data"
        main(["synth", "--scenario", str(scn), "--out-dir", str(out)])
        code = main([
            "learn-weights",
            "--det", str(out / "detections.csv"),
            "--features", str(out / "features.csv"),
            "--gt", str(out / "gt.csv"),
            "--out", str(tmp_path / "lambdas.json"),
        ])
        assert code == 0
        assert "lambda1=" in capsys.readouterr().out
        data = json.loads((tmp_path / "lambdas.json").read_text())
        assert 0.0 <= data["lambda1"] <= 1.0
        assert 0.0 <= data["lambda2"] <= 1.0

    def test_dump_affinity_command(self, tmp_path):
        scn = scenario_json(tmp_path, crossing_spec())
        out = tmp_path / "data"
        main(["synth", "--scenario", str(scn), "--out-dir", str(out)])
        dump = tmp_path / "aff"
        code = main([
            "dump-affinity",
            "--det", str(out / "detections.csv"),
            "--features", str(out / "features.csv"),
            "--out-dir", str(dump),
        ])
        assert code == 0
        files = list(dump.glob("affinity_segment_*.csv"))
        assert files
        header = files[0].read_text().splitlines()[0]
        assert header == "i,j,p_m,p_a,flagged,gap,lambda,score,cost"

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["track", "--out", "x.csv"])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["track", "--det", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        scn = scenario_json(tmp_path, crossing_spec())
        out = tmp_path / "data"
        assert main(["synth", "--scenario", str(scn), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        code = main([
            "track", "--det", str(out / "detections.csv"),
            "--features", str(out / "features.csv"),
            "--out", str(tmp_path / "r.csv"), "--seed", "-1",
        ])
        assert code == 1
        assert "rng_seed" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,-1,10,10,-5,5,0.9\n", encoding="utf-8")
        code = main(["track", "--det", str(bad), "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "input error" in capsys.readouterr().err
