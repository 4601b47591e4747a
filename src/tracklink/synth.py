"""Synthetic multi-target scenario generator for desk-scale verification.

Targets follow constant, constant-velocity or quadratic motion; their
appearance features are drawn from per-identity Gaussian clusters whose
centers sit at regular-simplex vertices on a sphere of radius
``cluster_sep`` (maximally spread, randomly rotated per seed).
Occlusion windows drop the occluded targets' detections and can swap the
pair's velocities at the window midpoint -- the classic bounce whose
spatially smooth continuation belongs to the *other* identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from tracklink.model import Box, Detection
from tracklink.mot_io import write_detections, write_ground_truth


MOTIONS = ("constant", "constant-velocity", "quadratic")


@dataclass(frozen=True)
class TargetSpec:
    id: int
    start: int
    end: int
    box: Box  # initial (x, y, w, h)
    motion: str = "constant-velocity"  # one of MOTIONS
    velocity: tuple[float, float] = (0.0, 0.0)
    accel: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.motion not in MOTIONS:
            raise ValueError(f"target {self.id}: motion {self.motion!r} is not one of {MOTIONS}")


@dataclass(frozen=True)
class OcclusionSpec:
    targets: tuple[int, int]
    frames: tuple[int, int]
    hide: tuple[int, ...] | None = None  # None -> both targets hidden
    swap_velocities: bool = False
    swap_frame: int | None = None  # None -> window midpoint
    merge: bool = False  # visible target's box becomes the union box


@dataclass(frozen=True)
class ScenarioSpec:
    n_frames: int
    targets: tuple[TargetSpec, ...]
    width: float = 640.0
    height: float = 480.0
    feature_dim: int = 32
    cluster_sep: float = 4.0
    feature_noise: float = 1.0
    pos_noise: float = 0.0
    miss_prob: float = 0.0
    score_mean: float = 0.85
    score_spread: float = 0.05
    occlusions: tuple[OcclusionSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("pos_noise", "feature_noise", "score_spread"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError(f"miss_prob must lie in [0, 1], got {self.miss_prob!r}")


def _json_value(value, hint, path: str):
    """``value``, read from JSON at key ``path``, checked against the type
    ``hint``: an integer (not a bool) for ``int``, a number for ``float``,
    a list of the right length for a tuple, whose items are checked in
    turn, and a JSON object for a dataclass, which is built from it.
    Lists become tuples; a mismatch raises ValueError naming ``path``."""
    if get_origin(hint) is UnionType:  # an optional field: X | None
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not NoneType]
    if is_dataclass(hint):
        return hint(**_json_fields(hint, value, path))
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        items = get_args(hint)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(value) != len(items):
            raise ValueError(f"{path} must be a list of {len(items)} items, got {value!r}")
        return tuple(
            _json_value(v, item, f"{path}[{k}]") for k, (v, item) in enumerate(zip(value, items))
        )
    if hint is int or hint is float:  # a bool is an int to Python, not to JSON
        ok = isinstance(value, (int, hint)) and not isinstance(value, bool)
    else:  # bool or str
        ok = isinstance(value, hint)
    if not ok:
        raise ValueError(f"{path} must be of type {hint.__name__}, got {value!r}")
    return value


def _json_fields(cls, data, where: str) -> dict:
    """``data``, the JSON object of one ``cls`` dataclass at key path
    ``where`` ("" for the scenario itself), as keyword arguments checked
    by ``_json_value``.  Its keys must be fields of ``cls`` and include
    every field without a default, else ValueError."""
    name = where or "scenario"
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{name}: unknown keys {unknown}")
    missing = [key for key, f in known.items() if f.default is MISSING and key not in data]
    if missing:
        raise ValueError(f"{name}: missing keys {missing}")
    hints = get_type_hints(cls)
    prefix = f"{where}." if where else ""
    return {key: _json_value(value, hints[key], prefix + key) for key, value in data.items()}


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """A scenario from its JSON object.  The keys of the scenario, of each
    target and of each occlusion are the fields of ScenarioSpec,
    TargetSpec and OcclusionSpec, and each value must have its field's
    type; an unknown key, a missing required key, a value of the wrong
    type or an unknown motion raises ValueError."""
    return ScenarioSpec(**_json_fields(ScenarioSpec, data, ""))


def load_scenario(path: str | Path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def simplex_directions(k: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """k unit vectors in R^dim with equal pairwise distances (regular
    simplex vertices), randomly rotated; antipodal for k = 2."""
    if k > dim:
        raise ValueError(f"cannot place {k} simplex vertices in {dim} dimensions")
    if k == 1:
        base = np.zeros((1, 1))
        base[0, 0] = 1.0
    else:
        base = np.eye(k) - np.full((k, k), 1.0 / k)
        base = base / np.linalg.norm(base, axis=1, keepdims=True)
    embed_dim = base.shape[1]
    q, _ = np.linalg.qr(rng.normal(size=(dim, embed_dim)))
    return base @ q.T


def cluster_centers(spec: ScenarioSpec, rng: np.random.Generator) -> dict[int, np.ndarray]:
    ids = sorted(t.id for t in spec.targets)
    dirs = simplex_directions(len(ids), spec.feature_dim, rng)
    return {ident: spec.cluster_sep * dirs[i] for i, ident in enumerate(ids)}


def _true_tracks(spec: ScenarioSpec) -> dict[int, dict[int, Box]]:
    """Noise-free boxes per target per frame, honoring velocity swaps."""
    for occ in spec.occlusions:
        for ident in occ.targets:
            if ident not in {t.id for t in spec.targets}:
                raise ValueError(f"occlusion references unknown target {ident}")
    swap_at: dict[int, list[int]] = {}
    for idx, occ in enumerate(spec.occlusions):
        if occ.swap_velocities:
            when = occ.swap_frame
            if when is None:
                when = (occ.frames[0] + occ.frames[1]) // 2
            swap_at.setdefault(when, []).append(idx)
    state = {}
    for t in spec.targets:
        vel = list(t.velocity)
        if t.motion == "constant":
            vel = [0.0, 0.0]
        state[t.id] = {
            "pos": [t.box[0], t.box[1]],
            "vel": vel,
            "acc": list(t.accel) if t.motion == "quadratic" else [0.0, 0.0],
            "spec": t,
        }
    tracks: dict[int, dict[int, Box]] = {t.id: {} for t in spec.targets}
    for frame in range(1, spec.n_frames + 1):
        for ident in sorted(state):
            st = state[ident]
            t = st["spec"]
            if t.start <= frame <= t.end:
                tracks[ident][frame] = (st["pos"][0], st["pos"][1], t.box[2], t.box[3])
        # a swap scheduled at this frame takes effect on the step leaving
        # it: the recorded position at swap_frame is the bounce vertex
        for occ_idx in swap_at.get(frame, []):
            occ = spec.occlusions[occ_idx]
            a, b = occ.targets
            state[a]["vel"], state[b]["vel"] = state[b]["vel"], state[a]["vel"]
        for ident in sorted(state):
            st = state[ident]
            st["vel"][0] += st["acc"][0]
            st["vel"][1] += st["acc"][1]
            st["pos"][0] += st["vel"][0]
            st["pos"][1] += st["vel"][1]
    return tracks


def generate_scenario(
    spec: ScenarioSpec, seed: int | None = None
) -> tuple[dict[int, list[Detection]], dict[int, list[tuple[int, Box]]]]:
    """Produce (detections by frame, ground truth by identity).

    Ground truth keeps every active frame including occluded ones;
    detections have holes where targets are hidden or missed.
    Deterministic for a given seed.
    """
    ids = [t.id for t in spec.targets]
    if len(ids) != len(set(ids)):
        raise ValueError("target ids must be unique")
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    centers = cluster_centers(spec, rng)
    tracks = _true_tracks(spec)

    hidden: dict[int, set[int]] = {ident: set() for ident in ids}
    for occ in spec.occlusions:
        hide = occ.hide if occ.hide is not None else occ.targets
        for ident in hide:
            for frame in range(occ.frames[0], occ.frames[1] + 1):
                hidden[ident].add(frame)

    detections: dict[int, list[Detection]] = {}
    for frame in range(1, spec.n_frames + 1):
        group = []
        for ident in sorted(ids):
            box = tracks[ident].get(frame)
            if box is None or frame in hidden[ident]:
                continue
            if spec.miss_prob > 0 and rng.random() < spec.miss_prob:
                continue
            x, y, w, h = box
            if spec.pos_noise > 0:
                x += rng.normal(0.0, spec.pos_noise)
                y += rng.normal(0.0, spec.pos_noise)
            box_out = (x, y, w, h)
            box_out = _maybe_merge(spec, tracks, ident, frame, box_out, hidden)
            feature = centers[ident] + rng.normal(0.0, spec.feature_noise, spec.feature_dim)
            score = float(np.clip(rng.normal(spec.score_mean, spec.score_spread), 0.05, 0.99))
            group.append(
                Detection(frame=frame, box=box_out, score=score, feature=feature, id_hint=ident)
            )
        if group:
            group.sort(key=lambda d: (d.box[0], d.box[1]))
            detections[frame] = group
    ground_truth = {
        ident: [(frame, tracks[ident][frame]) for frame in sorted(tracks[ident])]
        for ident in sorted(ids)
        if tracks[ident]
    }
    return detections, ground_truth


def _maybe_merge(spec, tracks, ident, frame, box_out, hidden) -> Box:
    for occ in spec.occlusions:
        if not occ.merge or ident not in occ.targets:
            continue
        if not (occ.frames[0] <= frame <= occ.frames[1]):
            continue
        other = occ.targets[0] if occ.targets[1] == ident else occ.targets[1]
        if frame not in hidden.get(other, set()):
            continue
        other_box = tracks[other].get(frame)
        if other_box is None:
            continue
        x = min(box_out[0], other_box[0])
        y = min(box_out[1], other_box[1])
        x2 = max(box_out[0] + box_out[2], other_box[0] + other_box[2])
        y2 = max(box_out[1] + box_out[3], other_box[1] + other_box[3])
        return (x, y, x2 - x, y2 - y)
    return box_out


def write_scenario(
    spec: ScenarioSpec, out_dir: str | Path, seed: int | None = None
) -> dict[str, Path]:
    """Generate and write detections.csv, features.csv and gt.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    detections, ground_truth = generate_scenario(spec, seed=seed)
    paths = {
        "detections": out_dir / "detections.csv",
        "features": out_dir / "features.csv",
        "ground_truth": out_dir / "gt.csv",
    }
    write_detections(detections, paths["detections"], paths["features"])
    write_ground_truth(ground_truth, paths["ground_truth"])
    return paths
