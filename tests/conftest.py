import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tracklink.model import Detection, RunConfig, Tracklet
from tracklink.mot_io import load_detections, load_ground_truth


def make_tracklet(tid, start, centers=None, length=None, box_size=(10.0, 20.0),
                  scores=None, features=None, id_hints=None, boxes=None):
    """Build a tracklet from centers (or boxes) starting at ``start``."""
    if boxes is None:
        if centers is None:
            centers = [(50.0 + 2.0 * i, 60.0) for i in range(length)]
        w, h = box_size
        boxes = [(cx - w / 2.0, cy - h / 2.0, w, h) for cx, cy in centers]
    n = len(boxes)
    if scores is None:
        scores = [0.9] * n
    dets = []
    for i, box in enumerate(boxes):
        dets.append(
            Detection(
                frame=start + i,
                box=box,
                score=scores[i],
                feature=None if features is None else np.asarray(features[i], dtype=float),
                id_hint=None if id_hints is None else id_hints[i],
            )
        )
    return Tracklet(id=tid, detections=tuple(dets))


def line_tracklet(tid, start, length, origin=(60.0, 400.0), velocity=(8.0, -5.0),
                  **kwargs):
    centers = [
        (origin[0] + velocity[0] * i, origin[1] + velocity[1] * i)
        for i in range(length)
    ]
    return make_tracklet(tid, start, centers=centers, **kwargs)


def cluster_features(rng, center, count, noise=1.0):
    return [center + rng.normal(0.0, noise, center.size) for _ in range(count)]


def two_cluster_centers(rng, dim=32, sep_radius=4.0):
    """Antipodal cluster centers on the radius-``sep_radius`` sphere."""
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    return sep_radius * u, -sep_radius * u


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# the benchmark's scenes (bench/run.py WORKLOADS)
_BENCH_SPECS = {
    "appearance": dict(
        n_frames=320, groups={"crossing": 4, "merge": 3, "bounce": 3}, life=100, grid=(3, 2),
        scene_seed=1,
    ),
    "crowd": dict(
        n_frames=50, groups={"crossing": 3, "merge": 2, "bounce": 2}, life=50, grid=(4, 2),
        scene_seed=1,
    ),
}


def _bench_scenes():
    """The benchmark's scene generator, bench/scenes.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("bench_scenes", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_scene(workload, index):
    """Benchmark scene ``index`` (run seed 1), written and reloaded through
    ``mot_io`` as bench/run.py does, as (detections, ground truth, cfg)."""
    scenes = _bench_scenes()
    cfg = RunConfig(frame_width=scenes.WIDTH, frame_height=scenes.HEIGHT)
    scene = scenes.make_scene(scenes.SceneSpec(**_BENCH_SPECS[workload]), 1, index)
    with tempfile.TemporaryDirectory() as tmp:
        paths = scenes.write_scene(scene, Path(tmp))
        detections = load_detections(paths["detections"], sidecar_path=paths["features"])
        gt = load_ground_truth(paths["ground_truth"])
    return detections, gt, cfg
