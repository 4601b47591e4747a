"""Shared domain types plus elementary geometric/temporal predicates.

Frames are 1-based integers.  Boxes are (x, y, w, h) with top-left origin
and y growing downward, matching the MOT file convention.  All types are
immutable value objects once constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

Box = tuple[float, float, float, float]


def check_box(box: Box) -> None:
    """The one box rule: four finite values (x, y, w, h) with w > 0 and
    h > 0; anything else raises ValueError."""
    _, _, w, h = box
    if not (all(map(math.isfinite, box)) and w > 0 and h > 0):
        raise ValueError(f"box must be four finite values with w, h > 0, got {tuple(box)}")


@dataclass(frozen=True)
class Detection:
    """One bounding-box observation in a single frame.

    ``feature`` is an optional appearance vector; ``id_hint`` is a
    ground-truth identity used only by synthesis and evaluation, never by
    the tracker itself.  Frames are integers >= 1 (not bools), boxes pass
    ``check_box`` and scores lie in (0, 1); ``track_sequence`` checks features.
    """

    frame: int
    box: Box
    score: float
    feature: np.ndarray | None = None
    id_hint: int | None = None

    def __post_init__(self):
        if isinstance(self.frame, bool) or not isinstance(self.frame, (int, np.integer)):
            raise ValueError(f"frame must be an integer, got {self.frame!r}")
        if self.frame < 1:
            raise ValueError(f"frame indices are 1-based, got {self.frame}")
        check_box(self.box)
        if not (0.0 < self.score < 1.0):
            raise ValueError(f"detection score must lie in (0, 1), got {self.score}")

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return (x + w / 2.0, y + h / 2.0)

    @property
    def area(self) -> float:
        return self.box[2] * self.box[3]


@dataclass(frozen=True)
class Tracklet:
    """A gapless, frame-ordered run of detections with one presumed identity."""

    id: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if not self.detections:
            raise ValueError("tracklet needs at least one detection")
        frames = [d.frame for d in self.detections]
        for a, b in zip(frames, frames[1:]):
            if b != a + 1:
                raise ValueError(
                    f"tracklet {self.id} frames must be consecutive, got {a} -> {b}"
                )

    @property
    def start(self) -> int:
        return self.detections[0].frame

    @property
    def end(self) -> int:
        return self.detections[-1].frame

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @cached_property
    def center_array(self) -> np.ndarray:
        """Box centers as one read-only (length, 2) float array, built once
        from the ``Detection.center`` floats."""
        centers = np.array([d.center for d in self.detections], dtype=float)
        centers.flags.writeable = False
        return centers

    @cached_property
    def memo(self) -> dict:
        """Values derived from this tracklet, each under a key that names
        how it was derived (the deriving function and its parameters);
        the tracklet is immutable, so they never go stale."""
        return {}

    def detection_at(self, frame: int) -> Detection:
        return self.detections[frame - self.start]


@dataclass(frozen=True)
class Trajectory:
    """Final output unit: an ordered chain of tracklets with gap frames
    filled by linear interpolation.  ``interpolated`` covers every frame
    from the first member's start to the last member's end."""

    id: int
    tracklet_ids: tuple[int, ...]
    interpolated: tuple[tuple[int, Box], ...]

    def __post_init__(self):
        frames = [f for f, _ in self.interpolated]
        for a, b in zip(frames, frames[1:]):
            if b != a + 1:
                raise ValueError(f"trajectory {self.id} has a frame gap at {a} -> {b}")

    @property
    def start(self) -> int:
        return self.interpolated[0][0]

    @property
    def end(self) -> int:
        return self.interpolated[-1][0]


@dataclass(frozen=True)
class RunConfig:
    """Run parameters shared by every pipeline stage.

    ``distance_threshold`` (the tracklet-split threshold) may be None, in
    which case it is derived per segment from the learned metrics'
    positive-pair distances.  ``frame_width``/``frame_height`` of 0 mean
    "infer the frame size from the data".
    """

    segment_len: int = 50
    probe_window: int = 8
    strongest_q: int = 4
    split_run: int = 5
    refine_iters: int = 2
    distance_threshold: float | None = None
    rank_tol: float = 0.01
    overlap_eta: float = 0.3
    gap_bound: int = 20
    lambda1: float = 0.5
    lambda2: float = 0.2
    exit_band_frac: float = 0.05
    entry_exit_prob: float = 0.1
    rng_seed: int = 0
    det_threshold: float = 0.6
    frame_width: float = 0.0
    frame_height: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise ValueError(f"{field.name} must be an integer, got {value!r}")
            elif value is not None and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not (0.0 <= self.lambda1 <= 1.0 and 0.0 <= self.lambda2 <= 1.0):
            raise ValueError("lambda1/lambda2 must lie in [0, 1]")
        if self.probe_window < 1 or self.strongest_q < 1:
            raise ValueError("probe_window and strongest_q must be at least 1")
        if self.segment_len < 2 * self.probe_window:
            raise ValueError("segment_len must be at least twice probe_window")
        if self.split_run < 1:
            raise ValueError("split_run must be at least 1")
        if self.refine_iters < 0 or self.gap_bound < 0:
            raise ValueError("refine_iters and gap_bound must be non-negative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if not (0.0 < self.overlap_eta < 1.0):
            raise ValueError("overlap_eta must lie strictly between 0 and 1")
        if self.rank_tol <= 0.0:
            raise ValueError("rank_tol must be positive")
        if self.distance_threshold is not None and self.distance_threshold <= 0.0:
            raise ValueError("distance_threshold must be positive when set")
        if not (0.0 < self.entry_exit_prob < 1.0):
            raise ValueError("entry_exit_prob must lie strictly between 0 and 1")
        if not (0.0 < self.det_threshold < 1.0):
            raise ValueError("det_threshold must lie strictly between 0 and 1")
        if not (0.0 <= self.exit_band_frac < 0.5):
            raise ValueError("exit_band_frac must lie in [0, 0.5)")
        if self.frame_width < 0.0 or self.frame_height < 0.0:
            raise ValueError("frame_width and frame_height must be non-negative")


@dataclass(frozen=True)
class ExitMap:
    """Static border band where trajectories may legitimately terminate."""

    width: float
    height: float
    band: float

    @classmethod
    def from_config(cls, cfg: RunConfig, width: float, height: float) -> "ExitMap":
        band = max(1.0, cfg.exit_band_frac * min(width, height))
        return cls(width=width, height=height, band=band)

    def exited(self, t: Tracklet) -> bool:
        """True iff t's last box center lies inside the border band, i.e.
        t left the scene and nothing later can continue it."""
        x, y = t.detections[-1].center
        return (
            x < self.band
            or y < self.band
            or x > self.width - self.band
            or y > self.height - self.band
        )


def temporal_overlap(a: Tracklet, b: Tracklet) -> bool:
    """True iff the frame spans of the two tracklets intersect."""
    return a.start <= b.end and b.start <= a.end


def iou(box_a: Box, box_b: Box) -> float:
    """Intersection-over-union of two (x, y, w, h) boxes."""
    inter = intersection_area(box_a, box_b)
    if inter == 0.0:
        return 0.0
    return inter / (box_a[2] * box_a[3] + box_b[2] * box_b[3] - inter)


def intersection_area(box_a: Box, box_b: Box) -> float:
    """Raw overlap area in pixels between two (x, y, w, h) boxes."""
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    iw = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    ih = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    return iw * ih


def gap_frames(a: Tracklet, b: Tracklet) -> int:
    """Number of empty frames strictly between tracklet a and tracklet b.

    Requires b to start after a ends; adjacent tracklets have gap 0.
    """
    if b.start <= a.end:
        raise ValueError(
            f"gap_frames needs b to start after a ends (a.end={a.end}, b.start={b.start})"
        )
    return b.start - a.end - 1
