"""Dataset serialization, frame preprocessing, sample pairing, clip
construction, and the stored subject split.  Every network input is read from
`preprocess_sequence` and tiled into full, disjoint windows by `windows`.

On-disk layout: `<root>/manifest.json` plus one directory per sequence holding
`frames.jsonl` (points, observed keypoints, ground-truth pose per frame) and
`labels.jsonl` (per-pair flow labels), one JSON record per line.  JSON numbers
use the shortest exact decimal form, so a sequence round-trips bit-exactly.
A reader checks each record and the manifest against its schema below with
the one `errors.fits` before numpy sees a value, then the record's shapes.
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
    ConfigError, CorruptFile, EmptyFrame, LengthMismatch, atomic_write, fits,
)
from .labeling import N_SEGMENTS, FlowLabel
from .radar import RadarFrame
from .skeleton import BONES, KEYPOINT_NAMES, ObservedKeypoints, SkeletonPose

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

    Every point that survives the box and intensity gates is kept, each
    once; above SAMPLE_SIZE survivors, train and val frames keep a seeded
    draw of SAMPLE_SIZE of them, without replacement.  Test frames keep
    every survivor.
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
    if mode == "test" or idx.size <= SAMPLE_SIZE:
        return idx
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(idx, size=SAMPLE_SIZE, replace=False))


def _frame_seed(seed: int, frame_index: int) -> np.random.SeedSequence:
    # the same frame must be drawn identically as a pair's target and as the
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

# what each stored record holds, in the kinds of `errors.fits`: [kind] is a
# list, a dict an object's keys and a tuple the kinds a value may take; clips
# are cut at gaps in frame_index, so it is read only as it was written
FRAME_KEYS = {"frame_index": int, "timestamp": float, "points": [[float]],
              "keypoints": [[float]], "pose_gt": [[float]], "bone_prov": ([int], type(None))}
LABEL_KEYS = {"flows": [[float]], "valid": [bool], "bone": [int], "segment": [int]}
SPLIT_KEYS = {"train_subjects": [int], "val_subjects": [int], "test_subjects": [int],
              "out_of_set_sequences": [str]}
SEQUENCE_KEYS = {"id": str, "subject_id": int, "n_frames": int}
MANIFEST_KEYS = {"config": dict, "split": SPLIT_KEYS, "sequences": [SEQUENCE_KEYS]}


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


def _check_range(name: str, values: list, lo: int, hi: int):
    """Refuse stored indices holding a value outside [lo, hi), before numpy
    reads them: it cannot hold an integer of any size."""
    if values and (min(values) < lo or max(values) >= hi):
        raise CorruptFile(f"{name} holds a value outside [{lo}, {hi - 1}]")


def _check_kinds(rec, keys: dict):
    """Refuse a record that is not an object or whose value of a key in `keys`
    does not fit its kind, before numpy would read "0.25" as 0.25 or true as 1."""
    if type(rec) is not dict:
        raise CorruptFile("a record that is not a JSON object")
    for key, kind in keys.items():
        value = rec.get(key)
        if fits(value, kind):
            continue
        if kind is int:  # named by its value; a number may be NaN
            raise CorruptFile(f"{key} {value!r} is not an integer")
        rows = ", or a row that is not a list" if kind == [[float]] else ""
        while not isinstance(kind, type):
            kind = kind[0]
        name = {float: "finite or not a number", int: "an integer", bool: "a boolean"}[kind]
        raise CorruptFile(f"{key} holds a value that is not {name}{rows}")


def _rows(name: str, values: list, width: int, count: int | None = None) -> np.ndarray:
    """Stored rows of `width` numbers, `count` of them where given, as an array."""
    if not set(map(len, values)) <= {width}:
        raise LengthMismatch(f"{name} holds a row that is not {width} numbers")
    if count is not None and len(values) != count:
        raise LengthMismatch(f"{name} holds {len(values)} rows, not {count}")
    return np.array(values, dtype=np.float64).reshape(-1, width)


def _parse_frame_record(rec: dict):
    _check_kinds(rec, FRAME_KEYS)
    pts = _rows("points", rec["points"], 4)
    kps = _rows("keypoints", rec["keypoints"], 4, len(KEYPOINT_NAMES))
    pose_kp = _rows("pose_gt", rec["pose_gt"], 3, len(KEYPOINT_NAMES))
    prov = rec.get("bone_prov")
    if prov is not None:
        if len(prov) != len(pts):
            raise LengthMismatch(f"provenance of shape ({len(prov)},) for {len(pts)} points")
        _check_range("bone_prov", prov, -1, len(BONES))
        prov = np.array(prov, dtype=np.int64)
    frame = RadarFrame(points=pts[:, :3], intensities=pts[:, 3], frame_index=rec["frame_index"],
                       timestamp=float(rec["timestamp"]), prov_bone=prov)
    return frame, SkeletonPose(pose_kp), ObservedKeypoints(kps[:, :3], kps[:, 3])


def _label_record(label: FlowLabel) -> dict:
    return {
        "flows": label.flows.tolist(),
        "valid": [bool(v) for v in label.valid_mask],
        "bone": [int(b) for b in label.bone_assignment],
        "segment": [int(s) for s in label.segment_label],
    }


def _parse_label_record(rec: dict) -> FlowLabel:
    # lengths before kinds: a "," flipped to "." merges two integers into one
    # float, and is named by the length it changes
    _check_kinds(rec, {"flows": LABEL_KEYS["flows"]})
    n = len(rec["flows"])
    for name in ("valid", "bone", "segment"):
        if len(rec[name]) != n:
            raise LengthMismatch(f"{name} of shape ({len(rec[name])},) for {n} flows")
    _check_kinds(rec, LABEL_KEYS)
    _check_range("bone", rec["bone"], -1, len(BONES))
    _check_range("segment", rec["segment"], 0, N_SEGMENTS)
    return FlowLabel(_rows("flows", rec["flows"], 3), np.array(rec["valid"], dtype=bool),
                     np.array(rec["bone"], dtype=np.int64),
                     np.array(rec["segment"], dtype=np.int64))


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
    data = path.read_bytes()
    if data and not data.endswith(b"\n"):
        raise CorruptFile(f"{path}: truncated inside its last record")
    try:
        return [parse(json.loads(line)) for line in data.splitlines()]
    except (ValueError, KeyError, TypeError, LengthMismatch, CorruptFile) as e:
        raise CorruptFile(f"{path}: malformed record: {e}") from e


def _write_labels(out: Path, labels: list):
    _write_jsonl(out / "labels.jsonl", (_label_record(lab) for lab in labels))


def save_sequence(root, seq: Sequence) -> Path:
    """Write a sequence's frames, and its labels when it has them.  Labels
    stored for an earlier sequence of the same id are removed first: they
    describe other frames."""
    out = sequence_dir(root, seq.seq_id)
    out.mkdir(parents=True, exist_ok=True)
    (out / "labels.jsonl").unlink(missing_ok=True)
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


def read_manifest(root) -> dict:
    """The dataset manifest: a config object, a split and a list of sequence
    entries.  A missing file raises FileNotFoundError; a file that is not
    whole JSON, or lacks one of those or one of their keys, or holds a value
    of another type there, raises CorruptFile."""
    path = Path(root) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no dataset manifest at {path}")
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as e:
        raise CorruptFile(f"{path}: not a whole JSON document: {e}") from e
    if not fits(manifest, MANIFEST_KEYS):
        raise CorruptFile(f"{path}: not a dataset manifest: it needs a config object, "
                          f"a split of lists {tuple(SPLIT_KEYS)} and sequences with "
                          f"{tuple(SEQUENCE_KEYS)}")
    return manifest
