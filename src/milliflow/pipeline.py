"""End-to-end sequence generation and labeling.

A sequence is one subject performing one activity in one scene: forward
kinematics give ground-truth poses, reflectors sampled on the body feed the
radar simulator frame by frame, clutter removal runs over a short rolling
window (a few warmup frames are simulated and discarded), and CFAR detections
become the stored point clouds.  Labels come from the noisy keypoint channel
for train/val subjects and from reflector provenance (exact kinematics) for
test and out-of-set sequences, mirroring an annotated evaluation set.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import RunConfig, run_config_from_dict
from .dataio import (
    Sequence,
    SplitManifest,
    load_sequence,
    out_of_set_ids,
    read_manifest,
    save_labels,
    save_sequence,
    sequence_id,
    split,
    write_json,
    write_manifest,
)
from .errors import ConfigError, CorruptFile
from .labeling import ground_truth_flow, label_frame_pair
from .radar import (
    clutter_removal,
    cfar_detect,
    heatmap,
    place_reflectors,
    sample_bone_local_reflectors,
    synthesize_cube,
    to_point_cloud,
    visibility_filter,
)
from .skeleton import ActivitySpec, SkeletonPose, generate_motion, make_subject, observe_keypoints

log = logging.getLogger(__name__)

SENSOR_ORIGIN = np.zeros(3)

# independent deterministic random streams per (sequence, frame)
_STREAM_JITTER, _STREAM_NOISE, _STREAM_GHOST, _STREAM_OBS, _STREAM_SCENE = range(5)


def resolve_workers(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, workers)
    return max(1, int(os.environ.get("MFL_THREADS", "1")))


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
        subject_seed=subject,
    )


def generate_sequence(cfg: RunConfig, subject: int, activity_id: str,
                      scene: int) -> Sequence:
    """Simulate one unlabeled sequence (frames, true poses, observed keypoints)."""
    model = make_subject(subject)
    spec = scene_spec(cfg, subject, activity_id, scene)
    warmup = cfg.gen.clutter_window - 1
    rate = cfg.gen.frame_rate
    all_poses = generate_motion(model, spec, cfg.gen.frames_per_sequence + warmup, rate)
    local = sample_bone_local_reflectors(model, cfg.radar, seed=subject)

    cubes = collections.deque(maxlen=cfg.gen.clutter_window)
    frames, poses, observed = [], [], []
    for t, pose in enumerate(all_poses):
        seed = lambda stream: _stream_seed(cfg, subject, activity_id, scene, t, stream)
        refl = place_reflectors(
            model, pose, local,
            jitter_std=cfg.radar.micro_motion_std,
            jitter_seed=seed(_STREAM_JITTER),
        )
        vis = visibility_filter(refl, SENSOR_ORIGIN, cfg.radar.visibility_half_angle)
        cubes.append(synthesize_cube(vis, cfg.radar, seed=seed(_STREAM_NOISE)))
        if t < warmup:
            continue
        out_idx = t - warmup
        hm = heatmap(clutter_removal(list(cubes)), cfg.radar)
        detections = cfar_detect(hm, cfg.radar.cfar)
        frame = to_point_cloud(
            detections, cfg.radar, cfg.radar.ghost_prob,
            seed=seed(_STREAM_GHOST),
            frame_index=out_idx, timestamp=out_idx / rate,
            reflectors=vis,
        )
        out_pose = SkeletonPose(pose.keypoints.copy(), out_idx, out_idx / rate)
        frames.append(frame)
        poses.append(out_pose)
        observed.append(
            observe_keypoints(out_pose, cfg.gen.kp_noise_std, cfg.gen.kp_dropout,
                              seed=seed(_STREAM_OBS))
        )
    return Sequence(subject, activity_id, scene, frames, poses, observed)


def label_sequence(seq: Sequence, partition: str, model=None) -> list:
    """Labels for every frame pair: pseudo labels from noisy keypoints for
    train/val, exact provenance-based labels for test."""
    if partition == "test":
        model = make_subject(seq.subject_id) if model is None else model
        return [
            ground_truth_flow(seq.frames[i], seq.poses[i], seq.poses[i + 1], model)
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


class _SeqStub(NamedTuple):
    subject_id: int
    activity_id: str
    scene_id: int

    @property
    def seq_id(self) -> str:
        return sequence_id(*self)


def dataset_split(cfg: RunConfig) -> SplitManifest:
    stubs = [_SeqStub(*s) for s in dataset_sequence_specs(cfg)]
    if cfg.explicit_split is not None:
        es = cfg.explicit_split
        subjects = set(range(cfg.gen.n_subjects))
        listed = set(es["train"]) | set(es["val"]) | set(es["test"])
        if listed != subjects:
            raise ConfigError(
                f"explicit split covers {sorted(listed)}, dataset has {sorted(subjects)}"
            )
        return SplitManifest(
            train_subjects=tuple(sorted(es["train"])),
            val_subjects=tuple(sorted(es["val"])),
            test_subjects=tuple(sorted(es["test"])),
            out_of_set_sequences=out_of_set_ids(stubs),
        )
    return split(stubs, seed=cfg.seed)


def _gen_worker(cfg_dict: dict, root: str, spec: tuple) -> tuple[str, int]:
    cfg = run_config_from_dict(cfg_dict)
    seq = generate_sequence(cfg, *spec)
    save_sequence(root, seq)
    return seq.seq_id, len(seq.frames)


def generate_dataset(cfg: RunConfig, root, workers: int | None = None) -> dict:
    """Generate and store every sequence plus the manifest; returns the manifest."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    specs = dataset_sequence_specs(cfg)
    split_manifest = dataset_split(cfg)

    workers = resolve_workers(workers)
    entries = []
    # in this process or in a pool, the results arrive in spec order
    with (contextlib.nullcontext() if workers == 1
          else ProcessPoolExecutor(max_workers=workers)) as pool:
        run = map if pool is None else pool.map
        results = run(functools.partial(_gen_worker, cfg.as_dict(), str(root)), specs)
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
    write_manifest(root, manifest)
    return manifest


def sequence_partition(manifest_split: SplitManifest, seq_id: str,
                       subject_id: int) -> str:
    if seq_id in manifest_split.out_of_set_sequences:
        return "test"
    return manifest_split.partition_of(subject_id)


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
    manifest = read_manifest(root)
    split_manifest = SplitManifest.from_dict(manifest["split"])

    total_points = 0
    total_valid = 0
    n_sequences = 0
    for meta in manifest["sequences"]:
        seq = _load_listed(root, meta)
        partition = sequence_partition(split_manifest, meta["id"], meta["subject_id"])
        labels = label_sequence(seq, partition)
        save_labels(root, meta["id"], labels)
        total_points += sum(len(l) for l in labels)
        total_valid += sum(int(l.valid_mask.sum()) for l in labels)
        n_sequences += 1
        log.info("labeled %s (%s)", meta["id"], partition)

    summary = {
        "config": manifest["config"],
        "n_sequences": n_sequences,
        "n_points": total_points,
        "n_valid": total_valid,
        "valid_ratio": (total_valid / total_points) if total_points else 0.0,
    }
    write_json(root / "label_summary.json", summary)
    return summary


def load_labeled_sequences(root, partition: str | None = None) -> list[Sequence]:
    """All labeled sequences, optionally filtered to one partition."""
    root = Path(root)
    manifest = read_manifest(root)
    split_manifest = SplitManifest.from_dict(manifest["split"])
    out = []
    for meta in manifest["sequences"]:
        part = sequence_partition(split_manifest, meta["id"], meta["subject_id"])
        if partition is not None and part != partition:
            continue
        out.append(_load_listed(root, meta))
    return out
