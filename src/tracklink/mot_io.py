"""File ingestion and emission: MOT-style detection/result CSVs, feature
sidecars, ground truth, and key=value run configuration.

All readers sort their output deterministically and all writers emit a
deterministic total row order with 6-significant-digit reals, so equal
inputs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from tracklink.model import Box, Detection, RunConfig, Trajectory, check_box


class ParseError(ValueError):
    pass


def _fmt(value: float) -> str:
    """6 significant digits, plain decimal point."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".6g")


def _records(path: Path, min_cols: int):
    """(line number, values) of each data line of a CSV file; blank lines
    and '#' comments are skipped.  A line with fewer than ``min_cols``
    values, or with a non-numeric or non-finite one, is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < min_cols:
                raise ParseError(
                    f"{path}:{lineno}: expected at least {min_cols} comma-separated values"
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            if not all(map(math.isfinite, vals)):
                raise ParseError(f"{path}:{lineno}: non-finite value")
            yield lineno, vals


def _integral(value: float, name: str, lineno: int, path) -> int:
    if value != int(value):
        raise ParseError(f"{path}:{lineno}: {name} must be an integer, got {value}")
    return int(value)


def _det_order(frame: int, box: Box, score: float) -> tuple:
    """Total order of the detections in a file: a detection's sidecar
    index is its position inside its frame under this order."""
    return (frame, *box, score)


def load_detections(
    path: str | Path, sidecar_path: str | Path | None = None
) -> dict[int, list[Detection]]:
    """Load raw detections grouped by frame, sorted by
    (frame, x, y, w, h, score).

    Rows are (frame, id, x, y, w, h, score); extra columns are ignored.
    An id >= 1 is kept as ``id_hint`` (synthetic/labeled files); -1 marks
    an unlabeled raw detection.  A row that ``Detection`` rejects (a
    score outside (0, 1), say: raw detector output must be normalized)
    raises a ParseError naming its line, the first such row in sorted
    order.  When ``sidecar_path`` is given, a feature vector is
    attached to every detection; the sidecar indexes detections by their
    position inside the sorted frame group.  The sidecar's first row sets
    the feature size; a row of another width is rejected.
    """
    path = Path(path)
    raw: list[tuple[int, int, int | None, Box, float]] = []
    for lineno, vals in _records(path, 7):
        frame = _integral(vals[0], "frame", lineno, path)
        ident = _integral(vals[1], "id", lineno, path)
        raw.append((lineno, frame, ident if ident >= 1 else None, tuple(vals[2:6]), vals[6]))
    raw.sort(key=lambda r: _det_order(r[1], r[3], r[4]))
    features = _load_sidecar(sidecar_path) if sidecar_path else None
    by_frame: dict[int, list[Detection]] = {}
    for lineno, frame, ident, box, score in raw:
        group = by_frame.setdefault(frame, [])
        feature = None
        if features is not None:
            key = (frame, len(group))
            if key not in features:
                raise ParseError(
                    f"{sidecar_path}: missing feature row for frame {frame} index {len(group)}"
                )
            feature = features.pop(key)
        try:
            det = Detection(frame=frame, box=box, score=score, feature=feature, id_hint=ident)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        group.append(det)
    if features:
        extra = sorted(features)[0]
        raise ParseError(
            f"{sidecar_path}: feature row for frame {extra[0]} index {extra[1]} "
            "matches no detection"
        )
    return by_frame


def _load_sidecar(path: str | Path) -> dict[tuple[int, int], np.ndarray]:
    path = Path(path)
    width = None
    features: dict[tuple[int, int], np.ndarray] = {}
    for lineno, vals in _records(path, 3):
        frame = _integral(vals[0], "frame", lineno, path)
        idx = _integral(vals[1], "index", lineno, path)
        vec = np.asarray(vals[2:], dtype=float)
        if width is None:
            width = vec.size
        if vec.size != width:
            raise ParseError(
                f"{path}:{lineno}: feature dimension {vec.size} != first row's {width}"
            )
        if (frame, idx) in features:
            raise ParseError(f"{path}:{lineno}: duplicate feature row ({frame}, {idx})")
        features[(frame, idx)] = vec
    return features


def load_ground_truth(path: str | Path) -> dict[int, list[tuple[int, Box]]]:
    """Load identity-labeled boxes: map id -> frame-ordered (frame, box).

    Declared gaps are preserved.  Rows must carry id >= 1, frame >= 1
    and a box that passes ``check_box``; duplicate (frame, id) pairs are
    rejected.
    """
    path = Path(path)
    tracks: dict[int, dict[int, Box]] = {}
    for lineno, vals in _records(path, 6):
        frame = _integral(vals[0], "frame", lineno, path)
        ident = _integral(vals[1], "id", lineno, path)
        box = tuple(vals[2:6])
        if ident < 1:
            raise ParseError(f"{path}:{lineno}: ground-truth id must be >= 1, got {ident}")
        if frame < 1:
            raise ParseError(f"{path}:{lineno}: frame must be >= 1, got {frame}")
        try:
            check_box(box)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        per_id = tracks.setdefault(ident, {})
        if frame in per_id:
            raise ParseError(f"{path}:{lineno}: duplicate (frame={frame}, id={ident}) row")
        per_id[frame] = box
    return {
        ident: [(f, per_id[f]) for f in sorted(per_id)]
        for ident, per_id in sorted(tracks.items())
    }


def write_trajectories(trajectories: list[Trajectory], path: str | Path):
    """Write a result in the ground-truth format (``write_ground_truth``),
    one track per trajectory; gap frames appear via interpolation."""
    write_ground_truth(result_view(trajectories), path)


def write_detections(
    detections: dict[int, list[Detection]],
    det_path: str | Path,
    sidecar_path: str | Path | None = None,
):
    """Inverse of load_detections, used by the synthetic generator.  Rows
    are ordered by the values as written, so the reader finds every
    feature row at its detection's index."""
    det_path = Path(det_path)
    feat_rows = []
    with open(det_path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in sorted(detections):
            written = []
            for det in detections[frame]:
                vals = [_fmt(v) for v in (*det.box, det.score)]
                *box, score = map(float, vals)
                written.append((_det_order(frame, tuple(box), score), vals, det))
            written.sort(key=lambda r: r[0])
            for idx, (_, vals, det) in enumerate(written):
                ident = det.id_hint if det.id_hint is not None else -1
                fh.write(f"{frame},{ident},{','.join(vals)}\n")
                if det.feature is not None:
                    feat_rows.append((frame, idx, det.feature))
    if sidecar_path is not None:
        with open(sidecar_path, "w", encoding="utf-8", newline="\n") as fh:
            for frame, idx, vec in feat_rows:
                vals = ",".join(_fmt(v) for v in vec)
                fh.write(f"{frame},{idx},{vals}\n")


def write_ground_truth(gt: dict[int, list[tuple[int, Box]]], path: str | Path):
    """Write rows (frame, id, x, y, w, h, 1, -1, -1, -1) sorted by
    (frame, id)."""
    rows = []
    for ident, track in gt.items():
        for frame, box in track:
            rows.append((frame, ident, box))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame, ident, (x, y, w, h) in rows:
            fh.write(f"{frame},{ident},{_fmt(x)},{_fmt(y)},{_fmt(w)},{_fmt(h)},1,-1,-1,-1\n")


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def load_config(path: str | Path) -> RunConfig:
    """Parse a key=value config file mirroring RunConfig field names.

    '#' starts a comment; unknown keys are errors (typo guard);
    ``distance_threshold`` accepts the literal ``auto``.
    """
    path = Path(path)
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_FIELDS:
                raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ParseError(f"{path}:{lineno}: duplicate config key {key!r}")
            values[key] = _convert_config_value(key, raw, path, lineno)
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ParseError(f"{path}: invalid configuration: {exc}") from None


def _convert_config_value(key: str, raw: str, path, lineno: int):
    if key == "distance_threshold" and raw.lower() in ("auto", "none"):
        return None
    ftype = _CONFIG_FIELDS[key].type
    try:
        if "int" in str(ftype):
            return int(raw)
        return float(raw)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: cannot parse {key}={raw!r}") from None


def result_view(trajectories: list[Trajectory]) -> dict[int, list[tuple[int, Box]]]:
    """In-memory equivalent of write + load_ground_truth on a result."""
    return {
        traj.id: [(frame, box) for frame, box in traj.interpolated]
        for traj in sorted(trajectories, key=lambda t: t.id)
    }
