import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from tracklink.model import Detection, Tracklet


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


requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def fork_pool(workers=2):
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
