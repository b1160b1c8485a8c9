"""End-to-end sequence generation and labeling.

A sequence is one subject performing one activity in one scene: forward
kinematics give ground-truth poses, reflectors sampled on the body feed the
radar simulator frame by frame, clutter removal runs over a short rolling
window (a few warmup frames are simulated and discarded), and CFAR detections
become the stored point clouds.  No network reads a point outside
`dataio.PREPROCESS_BOX`, so a stored cloud holds only the detections within
the box's range, and the heatmap and CFAR run only over the range bins those
detections read (`range_cut`).  Labels come from the noisy keypoint channel
for train/val subjects and from reflector provenance (exact kinematics) for
test and out-of-set sequences, mirroring an annotated evaluation set.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import logging
import math
from pathlib import Path

import numpy as np

from .config import SPLIT_PARTS, RunConfig
from .dataio import (
    PREPROCESS_BOX,
    Sequence,
    SplitManifest,
    load_sequence,
    read_manifest,
    save_labels,
    save_sequence,
    sequence_id,
    write_json,
)
from .errors import ConfigError, CorruptFile, TooFewSubjects
from .labeling import bone_triads, ground_truth_flow, label_frame_pair
from .radar import (
    RadarConfig,
    clutter_removal,
    cfar_detect,
    heatmap,
    place_reflectors,
    range_axis,
    sample_bone_local_reflectors,
    synthesize_cube,
    to_point_cloud,
    visibility_filter,
)
from .skeleton import ActivitySpec, generate_motion, make_subject, observe_keypoints

log = logging.getLogger(__name__)

# independent deterministic random streams per (sequence, frame)
_STREAM_JITTER, _STREAM_NOISE, _STREAM_GHOST, _STREAM_OBS, _STREAM_SCENE = range(5)


def _activity_index(cfg: RunConfig, activity_id: str) -> int:
    catalogue = list(cfg.gen.in_set) + list(cfg.gen.out_of_set)
    try:
        return catalogue.index(activity_id)
    except ValueError as e:
        raise ConfigError(f"activity {activity_id!r} not in catalogue") from e


def _stream_seed(cfg, subject, activity_id, scene, frame, stream):
    return np.random.SeedSequence(
        (cfg.seed, subject, _activity_index(cfg, activity_id), scene, frame, stream)
    )


def scene_spec(cfg: RunConfig, subject: int, activity_id: str, scene: int) -> ActivitySpec:
    """Per-scene motion parameters, drawn deterministically from the run seed."""
    rng = np.random.default_rng(
        _stream_seed(cfg, subject, activity_id, scene, 0, _STREAM_SCENE)
    )
    return ActivitySpec(
        activity_id=activity_id,
        amplitude=float(rng.uniform(*cfg.gen.amplitude_range)),
        period=float(rng.uniform(*cfg.gen.period_range)),
        subject_distance=float(rng.uniform(*cfg.gen.distance_range)),
    )


def range_cut(cfg: RadarConfig) -> tuple[int, int]:
    """(last, n_range): the farthest range bin whose points can lie in
    `PREPROCESS_BOX`, and how many leading range bins a heatmap must hold for
    the detections up to that bin to be those of the whole heatmap.

    A point's distance from the radar is its bin's range, so a point past the
    box's farthest corner lies outside the box.  CA-CFAR reads
    `guard_cells + train_cells` bins past a cell along range; the local
    maximum reads one, which that reach covers, as `train_cells >= 1`.
    """
    corner = math.hypot(*(max(abs(lo), abs(hi)) for lo, hi in PREPROCESS_BOX))
    ranges = range_axis(cfg)
    last = int(np.searchsorted(ranges, corner, side="right")) - 1
    reach = cfg.cfar.guard_cells + cfg.cfar.train_cells
    return last, min(last + reach + 1, len(ranges))


def generate_sequence(cfg: RunConfig, subject: int, activity_id: str,
                      scene: int) -> Sequence:
    """Simulate one unlabeled sequence (frames, true poses, observed keypoints)."""
    model = make_subject(subject)
    spec = scene_spec(cfg, subject, activity_id, scene)
    warmup = cfg.gen.clutter_window - 1
    rate = cfg.gen.frame_rate
    all_poses = generate_motion(model, spec, cfg.gen.frames_per_sequence + warmup, rate)
    local = sample_bone_local_reflectors(model, cfg.radar, seed=subject)
    last_bin, n_range = range_cut(cfg.radar)

    cubes = collections.deque(maxlen=cfg.gen.clutter_window)
    frames, poses, observed = [], [], []
    hm = None
    for t, pose in enumerate(all_poses):
        seed = lambda stream: _stream_seed(cfg, subject, activity_id, scene, t, stream)
        refl = place_reflectors(
            model, pose, local,
            jitter_std=cfg.radar.micro_motion_std,
            jitter_seed=seed(_STREAM_JITTER),
        )
        vis = visibility_filter(refl, cfg.radar.visibility_half_angle)
        cubes.append(synthesize_cube(vis, cfg.radar, seed=seed(_STREAM_NOISE)))
        if t < warmup:
            continue
        out_idx = t - warmup
        # each frame's heatmap is written over the previous one's: a fresh
        # one per frame would be freed at the frame's end, and the allocator
        # hands memory that size back to the system and faults it in again
        hm = heatmap(clutter_removal(list(cubes)), cfg.radar, out=hm, n_range=n_range)
        detections = cfar_detect(hm, cfg.radar.cfar)
        # the rows are in range-major order and ghosts are drawn row by row,
        # so this drops a suffix and leaves every nearer point and ghost as is
        detections = detections[detections[:, 0] <= last_bin]
        frame = to_point_cloud(detections, cfg.radar, seed=seed(_STREAM_GHOST),
                               frame_index=out_idx, timestamp=out_idx / rate, reflectors=vis)
        frames.append(frame)
        poses.append(pose)
        observed.append(
            observe_keypoints(pose, cfg.gen.kp_noise_std, cfg.gen.kp_dropout,
                              seed=seed(_STREAM_OBS))
        )
    return Sequence(subject, activity_id, scene, frames, poses, observed)


def label_sequence(seq: Sequence, partition: str) -> list:
    """Labels for every frame pair: pseudo labels from noisy keypoints for
    train/val, exact provenance-based labels for test."""
    if partition == "test":
        model = make_subject(seq.subject_id)
        # each pose's bone frames are built once, for both pairs that read it
        triads = [bone_triads(model, pose) for pose in seq.poses[: seq.n_samples + 1]]
        return [
            ground_truth_flow(seq.frames[i], seq.poses[i], seq.poses[i + 1], model,
                              triads=triads[i : i + 2])
            for i in range(seq.n_samples)
        ]
    return [
        label_frame_pair(seq.frames[i], seq.observed_kps[i], seq.observed_kps[i + 1])
        for i in range(seq.n_samples)
    ]


def dataset_sequence_specs(cfg: RunConfig) -> list[tuple[int, str, int]]:
    """(subject, activity, scene) for every sequence: in-set activities over
    all scenes, out-of-set activities in scene 0 only."""
    specs = [
        (subject, activity, scene)
        for subject in range(cfg.gen.n_subjects)
        for activity in cfg.gen.in_set
        for scene in range(cfg.gen.n_scenes)
    ]
    specs += [
        (subject, activity, 0)
        for subject in range(cfg.gen.n_subjects)
        for activity in cfg.gen.out_of_set
    ]
    return specs


def dataset_split(cfg: RunConfig) -> SplitManifest:
    """Subject-disjoint split: the config's explicit one, or else a seeded
    3:1:2 split of the subjects.  The sequences of `cfg.gen.out_of_set` are
    listed apart, as test sequences whatever their subject's partition."""
    if cfg.explicit_split is not None:
        parts = [cfg.explicit_split[part] for part in SPLIT_PARTS]
    else:
        n = cfg.gen.n_subjects
        if n < 6:
            raise TooFewSubjects(f"need at least 6 subjects for a 3:1:2 split, got {n}")
        shuffled = np.random.default_rng(cfg.seed).permutation(n).tolist()
        n_val, n_test = max(1, round(n / 6)), max(1, round(n / 3))
        n_train = n - n_val - n_test
        parts = [shuffled[:n_train], shuffled[n_train:n_train + n_val],
                 shuffled[n_train + n_val:]]
    train, val, test = (tuple(sorted(ids)) for ids in parts)
    out_of_set = sorted(sequence_id(*spec) for spec in dataset_sequence_specs(cfg)
                        if spec[1] in cfg.gen.out_of_set)
    return SplitManifest(train, val, test, tuple(out_of_set))


def _gen_worker(cfg: RunConfig, root: str, spec: tuple) -> tuple[str, int]:
    seq = generate_sequence(cfg, *spec)
    save_sequence(root, seq)
    return seq.seq_id, len(seq.frames)


def generate_dataset(cfg: RunConfig, root, workers: int = 1) -> dict:
    """Generate and store every sequence plus the manifest; returns the
    manifest.  A bad worker count or split raises before `root` is made.  A
    label summary left in `root` by an earlier dataset is removed, as each
    rewritten sequence's labels are."""
    if workers < 1:
        raise ConfigError(f"need at least one worker, got {workers}")
    split_manifest = dataset_split(cfg)
    specs = dataset_sequence_specs(cfg)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "label_summary.json").unlink(missing_ok=True)

    entries = []
    if workers == 1:
        context = contextlib.nullcontext()
    else:
        # imported only here: it loads multiprocessing, socket and subprocess
        from concurrent.futures import ProcessPoolExecutor

        context = ProcessPoolExecutor(max_workers=workers)
    # in this process or in a pool, the results arrive in spec order
    with context as pool:
        run = map if pool is None else pool.map
        results = run(functools.partial(_gen_worker, cfg, str(root)), specs)
        for (subject, activity, scene), (seq_id, n) in zip(specs, results):
            entries.append((seq_id, subject, activity, scene, n))
            log.info("generated %s (%d frames)", seq_id, n)

    manifest = {
        "config": cfg.as_dict(),
        "seed": cfg.seed,
        "split": split_manifest.as_dict(),
        "sequences": [
            {
                "id": seq_id,
                "subject_id": subject,
                "activity_id": activity,
                "scene_id": scene,
                "n_frames": n,
                "in_set": activity in cfg.gen.in_set,
            }
            for seq_id, subject, activity, scene, n in entries
        ],
    }
    write_json(root / "manifest.json", manifest)
    return manifest


def sequence_partition(manifest_split: SplitManifest, seq_id: str,
                       subject_id: int) -> str:
    if seq_id in manifest_split.out_of_set_sequences:
        return "test"
    return manifest_split.partition_of(subject_id)


def _listed(root) -> tuple[dict, list[tuple[dict, str]]]:
    """The manifest at `root`, and each sequence entry it lists with that
    sequence's partition: the one walk of the manifest."""
    manifest = read_manifest(root)
    split_manifest = SplitManifest.from_dict(manifest["split"])
    return manifest, [(meta, sequence_partition(split_manifest, meta["id"], meta["subject_id"]))
                      for meta in manifest["sequences"]]


def _load_listed(root, meta: dict) -> Sequence:
    """The stored sequence a manifest entry lists; a frame count that differs
    from the entry's means a frame file was cut between two records."""
    seq = load_sequence(root, meta["id"])
    if len(seq.frames) != meta["n_frames"]:
        raise CorruptFile(f"sequence {meta['id']}: {len(seq.frames)} frames stored, "
                          f"the manifest lists {meta['n_frames']}")
    return seq


def label_dataset(root) -> dict:
    """Label every stored sequence per its partition; writes label files and a
    summary with the valid-point ratio."""
    root = Path(root)
    manifest, listed = _listed(root)

    total_points = 0
    total_valid = 0
    for meta, partition in listed:
        labels = label_sequence(_load_listed(root, meta), partition)
        save_labels(root, meta["id"], labels)
        total_points += sum(len(l) for l in labels)
        total_valid += sum(int(l.valid_mask.sum()) for l in labels)
        log.info("labeled %s (%s)", meta["id"], partition)

    summary = {
        "config": manifest["config"],
        "n_sequences": len(listed),
        "n_points": total_points,
        "n_valid": total_valid,
        "valid_ratio": (total_valid / total_points) if total_points else 0.0,
    }
    write_json(root / "label_summary.json", summary)
    return summary


def load_labeled_sequences(root, partition: str | None = None) -> list[Sequence]:
    """All labeled sequences, optionally filtered to one partition."""
    _, listed = _listed(root)
    return [_load_listed(root, meta) for meta, part in listed
            if partition is None or part == partition]
