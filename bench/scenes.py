"""The benchmark's own scene generator and CSV writer.

Scenes share no code with ``tracklink.synth``, so a change to the
program's generator cannot change a workload.  A scene's structure is
fixed by its spec and the constants below: how many targets of each
kind, when each lives, when and for how long it is hidden and how many
of its detections are missed, how fast pairs move and at what angle
they cross.  Appearance
clusters sit at the vertices of a regular simplex, so every two targets
are equally far apart.  The layout -- meeting points, headings, the
simplex's rotation, which frames are missed, and the path, speed, start
and occluder times of solo targets -- and the noise -- box positions,
detector scores and features -- come from ``scene_seed``, so the scenes
of a spec with one are fixed.  Without a ``scene_seed`` the given seed
draws layout and noise.

Targets come in groups:

* ``crossing`` -- a pair whose paths cross at right angles; both targets
  are hidden around the meeting frame.
* ``merge``    -- a pair whose paths cross at right angles; one target is
  hidden around the meeting frame and the visible one's box becomes the
  union of both boxes while they overlap.
* ``bounce``   -- a pair approaching head-on; velocities swap at the
  meeting frame and both stay hidden for a while after it, so the smooth
  continuation of each incoming path belongs to the other identity.
* ``solo``     -- one target moving along a horizontal lane of its own and
  passing behind ``SOLO_GAPS`` static occluders.  Targets that share a
  lane live in disjoint time windows, so solo targets never touch and no
  pair of them is flagged as occluded.

Pairs are placed in the cells of a grid over the frame, one pair per cell
at a time, so a pair meets no other pair; with a single cell they share
the frame.  Every target stays clear of the frame's exit band for its
whole life.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAIR_KINDS = ("crossing", "merge", "bounce")
CELL_PAD = 4.0  # pixels kept between a pair and the edge of its cell
WIDTH, HEIGHT = 1280.0, 720.0  # frame size
MARGIN = 40.0  # kept clear of the frame border
BOX = (16.0, 32.0)  # box width and height
SPEED = 2.0  # pixels per frame
HIDE = 6  # frames hidden per occlusion
SOLO_GAPS = 5  # static occluders each solo target passes
POS_NOISE = 0.4  # box position noise, pixels
CLUSTER_SEP = 5.0  # radius of the simplex of appearance clusters
FEATURE_NOISE = 1.0  # feature noise per dimension
SCORE_MEAN, SCORE_SPREAD = 0.85, 0.05  # detector scores


@dataclass(frozen=True)
class SceneSpec:
    n_frames: int
    groups: dict  # kind -> number of groups (a pair, or one target for solo)
    life: int = 0  # frames each pair lives; solo lives are set by the lanes
    misses: int = 1  # missed detections per target
    feature_dim: int = 32  # 0 writes no feature sidecar
    grid: tuple[int, int] = (1, 1)  # cells; pairs alive together use distinct cells, or share one
    scene_seed: int | None = None  # draws layout and noise; None: the run's seed does

    @property
    def n_targets(self) -> int:
        return sum(n if kind == "solo" else 2 * n for kind, n in self.groups.items())


@dataclass
class Scene:
    spec: SceneSpec
    rows: list  # (frame, x, y, w, h, score, target id), sorted by (frame, x, y)
    features: np.ndarray | None  # one row per detection row, same order
    ground_truth: dict  # target id -> [(frame, (x, y, w, h)), ...]


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _pair(spec: SceneSpec, kind: str, rng, start: int, cell: int):
    """Frames and noise-free top-left corners of a pair meeting halfway
    through its life inside grid cell ``cell``, with the frames each
    target is hidden."""
    w, h = BOX
    frames = np.arange(start, start + spec.life)
    meet = start + spec.life // 2
    cols, rows = spec.grid
    cell_w = (WIDTH - 2 * MARGIN) / cols
    cell_h = (HEIGHT - 2 * MARGIN) / rows
    x0 = MARGIN + (cell % cols) * cell_w
    y0 = MARGIN + (cell // cols % rows) * cell_h
    # long-lived pairs slow down so that both targets stay inside the cell
    room = min(cell_w - w, cell_h - h) / 2.0 - CELL_PAD
    half_life = max(meet - start, int(frames[-1]) - meet)
    speed = min(SPEED, room / half_life)
    reach = speed * half_life + CELL_PAD
    meet_xy = np.array([
        rng.uniform(x0 + reach, x0 + cell_w - w - reach),
        rng.uniform(y0 + reach, y0 + cell_h - h - reach),
    ])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    vel_a = speed * _unit(theta)
    if kind == "bounce":
        vel_b = -vel_a
    else:
        vel_b = speed * _unit(theta + math.pi / 2)
    dt = (frames - meet)[:, None]
    pos_a, pos_b = meet_xy + dt * vel_a, meet_xy + dt * vel_b
    around = set(range(meet - HIDE // 2, meet - HIDE // 2 + HIDE))
    if kind == "crossing":
        hidden = (around, around)
    elif kind == "merge":
        hidden = (set(), around)
    else:
        after = frames > meet
        pos_a[after], pos_b[after] = pos_b[after], pos_a[after].copy()
        hidden = (set(range(meet + 1, meet + 1 + HIDE)),) * 2
    return frames, [(pos_a, hidden[0]), (pos_b, hidden[1])]


def _solo(rng, lane: int, start: int, life: int):
    """A lane target.  Its direction, starting point, speed (within 25% of
    ``SPEED``) and occluders (within 3 frames of evenly spaced) vary,
    so targets seldom move in step: in step, a link across lanes scores a
    perfect motion match."""
    w, h = BOX
    frames = np.arange(start, start + life)
    span = WIDTH - 2 * MARGIN - w
    speed = min(SPEED * rng.uniform(0.75, 1.25), span / life)
    x0 = MARGIN + rng.uniform(0.0, span - speed * life)
    if rng.random() < 0.5:  # leftward
        x0, speed = x0 + speed * life, -speed
    step = np.array([speed, 0.0])
    pos = np.array([x0, MARGIN + lane * (h + 8.0)]) + (frames - start)[:, None] * step
    hidden = set()
    for k in range(1, SOLO_GAPS + 1):
        at = start + k * life // (SOLO_GAPS + 1) + int(rng.integers(-3, 4))
        hidden.update(range(at, at + HIDE))
    return frames, [(pos, hidden)]


def _simplex(k: int, dim: int, rng) -> np.ndarray:
    """k unit vectors in R^dim, pairwise equally far apart, randomly rotated."""
    if k > dim:
        raise ValueError(f"{k} equidistant clusters need at least {k} feature dimensions")
    vertices = np.eye(k) - 1.0 / k
    vertices /= np.linalg.norm(vertices, axis=1, keepdims=True)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, k)))
    return vertices @ basis.T


def _schedule(spec: SceneSpec, rng) -> list:
    """(kind, frames, [(corners, hidden frames) per target]) per group."""
    h = BOX[1]
    n_pairs = sum(spec.groups.get(k, 0) for k in PAIR_KINDS)
    # pairs start evenly spaced over the sequence, kinds interleaved
    kinds = sorted(
        ((i, k) for k in PAIR_KINDS for i in range(spec.groups.get(k, 0))),
        key=lambda ik: ik[0],
    )
    spacing = (spec.n_frames - spec.life) / max(1, n_pairs - 1)
    together = n_pairs if spacing == 0 else min(n_pairs, math.ceil(spec.life / spacing))
    if 1 < spec.grid[0] * spec.grid[1] < together:
        raise ValueError(f"{together} pairs live at once but the grid has fewer cells")
    groups = []
    for slot, (_, kind) in enumerate(kinds):
        start = 1 + round(slot * spacing)
        groups.append((kind, *_pair(spec, kind, rng, start, slot)))
    n_solo = spec.groups.get("solo", 0)
    if n_solo:
        # the k-th target of a lane lives inside the lane's k-th time window
        n_lanes = int((HEIGHT - 2 * MARGIN - h) // (h + 8.0)) + 1
        window = spec.n_frames // -(-n_solo // n_lanes)
        for k in range(n_solo):
            start = 1 + (k // n_lanes) * window + int(rng.integers(0, 9))
            groups.append(("solo", *_solo(rng, k % n_lanes, start, window - 10)))
    return groups


def make_scene(spec: SceneSpec, seed: int, index: int = 0) -> Scene:
    """Deterministic scene number ``index``: detections, features and
    ground truth of every target.  The scenes of a spec share their
    layout and differ in noise; ``seed`` draws both when the spec has no
    ``scene_seed``."""
    scene_seed = seed if spec.scene_seed is None else spec.scene_seed
    rng = np.random.default_rng(np.random.SeedSequence([scene_seed, spec.n_frames, spec.n_targets]))
    noise = np.random.default_rng(
        np.random.SeedSequence([scene_seed, spec.n_frames, spec.n_targets, 1 + index])
    )
    w, h = BOX
    gt: dict[int, list] = {}
    visible: dict[int, dict[int, tuple]] = {}
    merged: dict[tuple[int, int], tuple] = {}
    for kind, frames, targets in _schedule(spec, rng):
        first = len(gt) + 1
        for ident, (pos, hidden) in enumerate(targets, start=first):
            gt[ident] = [(int(f), (float(x), float(y), w, h)) for f, (x, y) in zip(frames, pos)]
            inner = [int(f) for f in frames if f not in hidden][3:-3]
            missed = set(rng.choice(inner, size=spec.misses, replace=False).tolist())
            visible[ident] = {
                int(f): (float(x), float(y))
                for f, (x, y) in zip(frames, pos)
                if f not in hidden and f not in missed
            }
        if kind == "merge":
            (pos_a, _), (pos_b, hid_b) = targets
            for f, (xa, ya), (xb, yb) in zip(frames, pos_a, pos_b):
                if int(f) in hid_b and abs(xa - xb) < w and abs(ya - yb) < h:
                    x0, y0 = min(xa, xb), min(ya, yb)
                    merged[(first, int(f))] = (
                        float(max(xa, xb) + w - x0),
                        float(max(ya, yb) + h - y0),
                    )

    ids = sorted(gt)
    centres = None
    if spec.feature_dim:
        centres = CLUSTER_SEP * _simplex(len(ids), spec.feature_dim, rng)
    rows, feats = [], []
    for frame in range(1, spec.n_frames + 1):
        for k, ident in enumerate(ids):
            corner = visible[ident].get(frame)
            if corner is None:
                continue
            x = corner[0] + noise.normal(0.0, POS_NOISE)
            y = corner[1] + noise.normal(0.0, POS_NOISE)
            bw, bh = merged.get((ident, frame), (w, h))
            score = float(np.clip(noise.normal(SCORE_MEAN, SCORE_SPREAD), 0.05, 0.99))
            rows.append((frame, x, y, bw, bh, score, ident))
            if centres is not None:
                feats.append(centres[k] + noise.normal(0.0, FEATURE_NOISE, spec.feature_dim))
    index = sorted(range(len(rows)), key=lambda i: rows[i][:3])
    rows = [rows[i] for i in index]
    features = np.asarray([feats[i] for i in index]) if centres is not None else None
    return Scene(spec=spec, rows=rows, features=features, ground_truth=gt)


def write_scene(scene: Scene, out_dir: Path) -> dict[str, Path]:
    """Write the documented formats: detections ``frame,id,x,y,w,h,score``
    (id -1, unlabeled), the sidecar ``frame,index,v1..vN`` indexed by the
    position inside the (x, y)-sorted frame group, and MOT-style ground
    truth ``frame,id,x,y,w,h,1,-1,-1,-1``.  Reals keep every digit."""
    paths = {"detections": out_dir / "det.csv", "ground_truth": out_dir / "gt.csv"}
    with open(paths["detections"], "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f"{f},-1,{x!r},{y!r},{w!r},{h!r},{s!r}\n" for f, x, y, w, h, s, _ in scene.rows
        )
    if scene.features is not None:
        paths["features"] = out_dir / "features.csv"
        with open(paths["features"], "w", encoding="utf-8", newline="\n") as fh:
            index, prev = 0, None
            for (frame, *_), vec in zip(scene.rows, scene.features):
                index = index + 1 if frame == prev else 0
                prev = frame
                fh.write(f"{frame},{index}," + ",".join(map(repr, vec.tolist())) + "\n")
    gt_rows = sorted(
        (f, ident, box) for ident, track in scene.ground_truth.items() for f, box in track
    )
    with open(paths["ground_truth"], "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f"{f},{i},{x!r},{y!r},{w!r},{h!r},1,-1,-1,-1\n" for f, i, (x, y, w, h) in gt_rows
        )
    return paths


def describe(scene: Scene) -> dict:
    spec = scene.spec
    boxes = sum(len(track) for track in scene.ground_truth.values())
    return {
        "targets": spec.n_targets,
        "frames": spec.n_frames,
        "groups": dict(spec.groups),
        "frame_size": [WIDTH, HEIGHT],
        "misses_per_target": spec.misses,
        "feature_dim": spec.feature_dim,
        "detections": len(scene.rows),
        "mean_targets_per_frame": boxes / spec.n_frames,
    }
