"""Dataset serialization, frame preprocessing, sample pairing, clip
construction, and the stored subject split.  Every network input is read from
`preprocess_sequence` and tiled into full, disjoint windows by `windows`.

On-disk layout: `<root>/manifest.json` plus one directory per sequence holding
`frames.jsonl` (points, observed keypoints, ground-truth pose per frame) and
`labels.jsonl` (per-pair flow labels), one JSON record per line.  JSON numbers
use the shortest exact decimal form, so a sequence round-trips bit-exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, CorruptFile, EmptyFrame, LengthMismatch, atomic_write,
)
from .labeling import N_SEGMENTS, FlowLabel
from .radar import RadarFrame
from .skeleton import BONES, ObservedKeypoints, SkeletonPose

log = logging.getLogger(__name__)

PREPROCESS_BOX = ((-3.0, 3.0), (0.5, 5.0), (-1.5, 1.5))  # side, forward, height
INTENSITY_FLOOR = 0.5  # strict: intensity must exceed this
SAMPLE_SIZE = 128
CLIP_LENGTH = 5


def sequence_id(subject_id: int, activity_id: str, scene_id: int) -> str:
    return f"{subject_id:03d}_{activity_id}_{scene_id:02d}"


@dataclass
class Sequence:
    subject_id: int
    activity_id: str
    scene_id: int
    frames: list  # RadarFrame per frame
    poses: list  # SkeletonPose per frame (ground truth)
    observed_kps: list  # ObservedKeypoints per frame
    labels: list | None = None  # FlowLabel per frame pair (n_frames - 1)

    def __post_init__(self):
        n = len(self.frames)
        if len(self.poses) != n or len(self.observed_kps) != n:
            raise LengthMismatch("frames, poses, observed_kps lengths differ")
        if self.labels is not None and len(self.labels) != n - 1:
            raise LengthMismatch(
                f"{n} frames need {n - 1} labels, got {len(self.labels)}"
            )
        for i, (label, frame) in enumerate(zip(self.labels or (), self.frames)):
            if len(label) != len(frame):
                raise LengthMismatch(
                    f"label {i} has {len(label)} rows for {len(frame)} points"
                )

    @property
    def seq_id(self) -> str:
        return sequence_id(self.subject_id, self.activity_id, self.scene_id)

    @property
    def n_samples(self) -> int:
        return len(self.frames) - 1


@dataclass(frozen=True)
class Sample:
    source: RadarFrame
    target: RadarFrame
    label: FlowLabel
    clip_position: int = 0


@dataclass(frozen=True)
class SplitManifest:
    train_subjects: tuple
    val_subjects: tuple
    test_subjects: tuple
    out_of_set_sequences: tuple

    def partition_of(self, subject_id: int) -> str:
        if subject_id in self.train_subjects:
            return "train"
        if subject_id in self.val_subjects:
            return "val"
        if subject_id in self.test_subjects:
            return "test"
        raise ConfigError(f"subject {subject_id} not in any partition")

    def as_dict(self) -> dict:
        return {f.name: list(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SplitManifest":
        return cls(*(tuple(d[f.name]) for f in dataclasses.fields(cls)))


# ----------------------------------------------------------------------
# preprocessing


def preprocess_indices(frame: RadarFrame, mode: str, seed: int = 0) -> np.ndarray:
    """Indices of the points a preprocessed frame keeps, in a stable order.

    Train/val resample to exactly SAMPLE_SIZE (without replacement when enough
    points survive the box/intensity gates, with replacement otherwise); test
    keeps every survivor.
    """
    if mode not in ("train", "val", "test"):
        raise ConfigError(f"unknown preprocessing mode {mode!r}")
    pts = frame.points
    keep = frame.intensities > INTENSITY_FLOOR
    for axis, (lo, hi) in enumerate(PREPROCESS_BOX):
        keep &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        raise EmptyFrame(f"no points survive preprocessing (frame {frame.frame_index})")
    if mode == "test":
        return idx
    rng = np.random.default_rng(seed)
    chosen = rng.choice(idx, size=SAMPLE_SIZE, replace=idx.size < SAMPLE_SIZE)
    return np.sort(chosen)


def _frame_seed(seed: int, frame_index: int) -> np.random.SeedSequence:
    # the same frame must resample identically as a pair's target and as the
    # next pair's source, or temporal state sees a discontinuity
    return np.random.SeedSequence((seed, frame_index))


def preprocess_sequence(seq: Sequence, mode: str, seed: int = 0) -> tuple[list, list]:
    """(frames, labels): every frame of a labelled sequence preprocessed once,
    and the label of the pair each frame starts, subset by the same indices.

    A frame that loses every point becomes an empty frame with label None, as
    the last frame, which starts no pair, always has.
    """
    if seq.labels is None:
        raise ConfigError(f"sequence {seq.seq_id} has no labels")
    frames, labels = [], []
    for i, frame in enumerate(seq.frames):
        try:
            idx = preprocess_indices(frame, mode, _frame_seed(seed, i))
        except EmptyFrame:
            frames.append(frame.subset([]))
            labels.append(None)
            continue
        frames.append(frame.subset(idx))
        labels.append(seq.labels[i].subset(idx) if i < len(seq.labels) else None)
    return frames, labels


def windows(n: int, length: int) -> list[slice]:
    """Full, disjoint windows of `length` consecutive items out of n, from
    the first item on; the remainder is dropped."""
    return [slice(start, start + length) for start in range(0, n - length + 1, length)]


def pair_samples(seq: Sequence, mode: str, seed: int = 0) -> list[Sample]:
    """Consecutive frame pairs of `preprocess_sequence` as training samples;
    pairs with an empty frame are skipped."""
    frames, labels = preprocess_sequence(seq, mode, seed)
    samples = []
    for i in range(seq.n_samples):
        if len(frames[i]) == 0 or len(frames[i + 1]) == 0:
            log.warning("skipping empty pair %d of %s", i, seq.seq_id)
            continue
        samples.append(Sample(source=frames[i], target=frames[i + 1], label=labels[i]))
    return samples


def make_clips(samples: list[Sample]) -> list[list[Sample]]:
    """Chunk samples into consecutive, non-overlapping clips of CLIP_LENGTH;
    the remainder is dropped.  Clips never span a temporal gap."""
    clips = []
    # frame index minus position is constant exactly along consecutive frames
    for _, run in itertools.groupby(enumerate(samples),
                                    key=lambda p: p[1].source.frame_index - p[0]):
        run = [s for _, s in run]
        for window in windows(len(run), CLIP_LENGTH):
            clips.append([dataclasses.replace(s, clip_position=j)
                          for j, s in enumerate(run[window])])
    if not clips and samples:
        log.warning("fewer than %d samples; no clips produced", CLIP_LENGTH)
    return clips


# ----------------------------------------------------------------------
# serialization


def _frame_record(frame: RadarFrame, pose: SkeletonPose, obs: ObservedKeypoints) -> dict:
    rec = {
        "frame_index": int(frame.frame_index),
        "timestamp": float(frame.timestamp),
        "points": np.column_stack([frame.points, frame.intensities]).tolist(),
        "keypoints": np.column_stack([obs.positions, obs.confidences]).tolist(),
        "pose_gt": pose.keypoints.tolist(),
    }
    if frame.prov_bone is not None:
        rec["bone_prov"] = [int(b) for b in frame.prov_bone]
    return rec


def _check_range(name: str, values: np.ndarray, lo: int, hi: int):
    """Refuse an index array holding a value outside [lo, hi)."""
    if values.size and (values.min() < lo or values.max() >= hi):
        raise CorruptFile(f"{name} holds a value outside [{lo}, {hi - 1}]")


def _check_finite(name: str, values: np.ndarray):
    """Refuse an array holding NaN or an infinity, which JSON readers take."""
    if not np.isfinite(values).all():
        raise CorruptFile(f"{name} holds a value that is not finite")


def _parse_frame_record(rec: dict):
    pts = np.asarray(rec["points"], dtype=np.float64).reshape(-1, 4)
    kps = np.asarray(rec["keypoints"], dtype=np.float64).reshape(-1, 4)
    _check_finite("points", pts)
    _check_finite("keypoints", kps)
    prov = rec.get("bone_prov")
    if prov is not None:
        prov = np.asarray(prov, dtype=np.int64)
        if prov.shape != (len(pts),):
            raise LengthMismatch(f"provenance of shape {prov.shape} for {len(pts)} points")
        _check_range("bone_prov", prov, -1, len(BONES))
    pose_kp = np.asarray(rec["pose_gt"], dtype=np.float64)
    if pose_kp.shape != (len(kps), 3):
        raise LengthMismatch(f"a pose of shape {pose_kp.shape} for {len(kps)} keypoints")
    _check_finite("pose_gt", pose_kp)
    timestamp = np.float64(rec["timestamp"])
    _check_finite("timestamp", timestamp)
    frame = RadarFrame(
        points=pts[:, :3],
        intensities=pts[:, 3],
        frame_index=int(rec["frame_index"]),
        timestamp=float(timestamp),
        prov_bone=prov,
    )
    pose = SkeletonPose(pose_kp)
    obs = ObservedKeypoints(positions=kps[:, :3], confidences=kps[:, 3])
    return frame, pose, obs


def _label_record(label: FlowLabel) -> dict:
    return {
        "flows": label.flows.tolist(),
        "valid": [bool(v) for v in label.valid_mask],
        "bone": [int(b) for b in label.bone_assignment],
        "segment": [int(s) for s in label.segment_label],
    }


def _parse_label_record(rec: dict) -> FlowLabel:
    label = FlowLabel(
        flows=np.asarray(rec["flows"], dtype=np.float64).reshape(-1, 3),
        valid_mask=np.asarray(rec["valid"], dtype=bool),
        bone_assignment=np.asarray(rec["bone"], dtype=np.int64),
        segment_label=np.asarray(rec["segment"], dtype=np.int64),
    )
    for name, arr in (("valid", label.valid_mask), ("bone", label.bone_assignment),
                      ("segment", label.segment_label)):
        if arr.shape != (len(label),):
            raise LengthMismatch(f"{name} of shape {arr.shape} for {len(label)} flows")
    _check_finite("flows", label.flows)
    _check_range("bone", label.bone_assignment, -1, len(BONES))
    _check_range("segment", label.segment_label, 0, N_SEGMENTS)
    return label


def sequence_dir(root, seq_id: str) -> Path:
    return Path(root) / f"seq_{seq_id}"


def _write_jsonl(path: Path, records):
    with atomic_write(path) as f:
        for rec in records:
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _read_jsonl(path: Path, parse) -> list:
    """Parsed records of a JSON-lines file; a cut or malformed record raises
    CorruptFile.  Every record ends with a newline, so a file that does not
    was cut inside its last record."""
    with open(path, "rb") as f:
        data = f.read()
    if data and not data.endswith(b"\n"):
        raise CorruptFile(f"{path}: truncated inside its last record")
    try:
        return [parse(json.loads(line)) for line in data.splitlines()]
    except (ValueError, KeyError, TypeError, LengthMismatch, CorruptFile) as e:
        raise CorruptFile(f"{path}: malformed record: {e}") from e


def _write_labels(out: Path, labels: list):
    _write_jsonl(out / "labels.jsonl", (_label_record(lab) for lab in labels))


def save_sequence(root, seq: Sequence) -> Path:
    out = sequence_dir(root, seq.seq_id)
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "frames.jsonl", (
        _frame_record(frame, pose, obs)
        for frame, pose, obs in zip(seq.frames, seq.poses, seq.observed_kps)))
    if seq.labels is not None:
        _write_labels(out, seq.labels)
    return out


def save_labels(root, seq_id: str, labels: list) -> Path:
    """Write labels for an already stored sequence."""
    out = sequence_dir(root, seq_id)
    if not out.is_dir():
        raise ConfigError(f"no sequence stored under {out}")
    _write_labels(out, labels)
    return out


def _parse_seq_id(seq_id: str):
    try:
        subject, activity, scene = seq_id.split("_")
        return int(subject), activity, int(scene)
    except ValueError as e:
        raise ConfigError(f"malformed sequence id {seq_id!r}") from e


def load_sequence(root, seq_id: str) -> Sequence:
    src = sequence_dir(root, seq_id)
    subject, activity, scene = _parse_seq_id(seq_id)
    if not (src / "frames.jsonl").exists():
        raise ConfigError(f"no frame data under {src}")
    records = _read_jsonl(src / "frames.jsonl", _parse_frame_record)
    frames = [r[0] for r in records]
    poses = [r[1] for r in records]
    observed = [r[2] for r in records]
    labels = None
    if (src / "labels.jsonl").exists():
        labels = _read_jsonl(src / "labels.jsonl", _parse_label_record)
    try:
        return Sequence(subject, activity, scene, frames, poses, observed, labels)
    except LengthMismatch as e:
        raise CorruptFile(f"{src}: the stored files disagree: {e}") from e


def write_text(path, text: str) -> Path:
    """`text` written atomically to `path`, its directory made first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as f:
        f.write(text)
    return path


def write_json(path, data: dict) -> Path:
    """Indented, key-sorted JSON with a final newline, written atomically."""
    return write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


# the keys of a manifest's split and of each of its sequence entries
SPLIT_KEYS = tuple(f.name for f in dataclasses.fields(SplitManifest))
SEQUENCE_KEYS = ("id", "subject_id", "n_frames")


def read_manifest(root) -> dict:
    """The dataset manifest: a config object, a split and a list of sequence
    entries.  A missing file raises FileNotFoundError; a file that is not
    whole JSON, or lacks one of those or one of their keys, raises
    CorruptFile."""
    path = Path(root) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no dataset manifest at {path}")
    with open(path, "rb") as f:
        data = f.read()
    try:
        manifest = json.loads(data)
    except ValueError as e:
        raise CorruptFile(f"{path}: not a whole JSON document: {e}") from e
    if (_lacks(manifest, ("config", "split", "sequences"))
            or not isinstance(manifest["config"], dict)
            or _lacks(manifest["split"], SPLIT_KEYS)
            or not isinstance(manifest["sequences"], list)
            or any(_lacks(entry, SEQUENCE_KEYS) for entry in manifest["sequences"])):
        raise CorruptFile(f"{path}: not a dataset manifest: it needs a config object, "
                          f"a split with {SPLIT_KEYS} and sequences with {SEQUENCE_KEYS}")
    return manifest


def _lacks(obj, keys) -> bool:
    return not isinstance(obj, dict) or any(k not in obj for k in keys)
