"""Articulated 14-keypoint body model, activity motion, and noisy keypoints.

The skeleton has 14 keypoints joined by 13 bones forming a tree rooted at the
neck.  Motion is analytic forward kinematics: each activity rotates rigid
subtrees about joint pivots with sinusoidal angles, which keeps bone lengths
exact and makes the true per-point motion available in closed form.

The bone table (`BONES`, `BONE_PARENT`, `BONE_CHILD`) and the bone frames of a
pose (`SkeletonModel.bone_frames`) live here only: the radar places reflectors
on those frames and exact labels move points with them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import axis_angle_rotation, cross, perpendicular, rotation_between

KEYPOINT_NAMES = (
    "head",
    "neck",
    "shoulder_l",
    "shoulder_r",
    "elbow_l",
    "elbow_r",
    "wrist_l",
    "wrist_r",
    "hip_l",
    "hip_r",
    "knee_l",
    "knee_r",
    "ankle_l",
    "ankle_r",
)

# (parent, child) pairs; tree rooted at the neck (index 1).
BONES = (
    (1, 0),
    (1, 2),
    (1, 3),
    (2, 4),
    (3, 5),
    (4, 6),
    (5, 7),
    (1, 8),
    (1, 9),
    (8, 10),
    (9, 11),
    (10, 12),
    (11, 13),
)
BONE_PARENT = np.array([p for p, _ in BONES])
BONE_CHILD = np.array([c for _, c in BONES])

IN_SET_ACTIVITIES = ("ArmSwing", "LegSwing", "ArmLegSwing", "Bowing", "TorsoTwist")
OUT_OF_SET_ACTIVITIES = ("Sitting", "Squatting", "HeadBobbing")
ALL_ACTIVITIES = IN_SET_ACTIVITIES + OUT_OF_SET_ACTIVITIES

DEFAULT_FRAME_RATE = 13.2  # Hz

FLOOR_Z = -1.3  # meters below the radar origin

# Base segment sizes for a 1.75 m body; each is scaled by height and jittered
# by a bounded per-subject factor, so every bone length stays inside
# bone_length_ranges() by construction.
_BASE = {
    "head": 0.24,
    "shoulder_half": 0.185,
    "hip_half": 0.125,
    "upper_arm": 0.30,
    "forearm": 0.26,
    "torso": 0.50,
    "thigh": 0.42,
    "shin": 0.40,
    "ankle_h": 0.08,
}
_HEIGHT_RANGE = (1.50, 1.95)
_JITTER = (0.95, 1.05)

# reflector envelope radius per bone, meters at 1.75 m height
_BASE_RADII = (0.10, 0.06, 0.06, 0.045, 0.045, 0.04, 0.04, 0.11, 0.11, 0.06, 0.06, 0.045, 0.045)


@dataclass(frozen=True)
class SkeletonModel:
    bone_lengths: np.ndarray
    body_radius_per_bone: np.ndarray
    rest_keypoints: np.ndarray  # (14, 3) local frame: neck at origin, facing -y

    @functools.cached_property
    def rest_triads(self) -> tuple:
        """Per bone, the read-only rest-pose triad (axis, e1, e2): the unit
        bone direction and two unit vectors perpendicular to it.  Reflector
        placement and exact bone motion transport these onto every pose, so
        they are computed once per model."""
        triads = []
        for p, c in BONES:
            axis = self.rest_keypoints[c] - self.rest_keypoints[p]
            axis = axis / np.linalg.norm(axis)
            e1 = perpendicular(axis)
            e1 /= np.linalg.norm(e1)
            e2 = cross(axis, e1)
            for v in (axis, e1, e2):
                v.flags.writeable = False
            triads.append((axis, e1, e2))
        return tuple(triads)

    def bone_frames(self, keypoints: np.ndarray) -> tuple:
        """Each bone's (axis, length, e1, e2) in one pose, stacked over bones:
        its rest triad carried onto the bone's direction by the minimal
        rotation."""
        frames = []
        for (p, c), (rest_axis, rest_e1, rest_e2) in zip(BONES, self.rest_triads):
            axis = keypoints[c] - keypoints[p]
            length = np.linalg.norm(axis)
            axis = axis / length
            r = rotation_between(rest_axis, axis)
            frames.append((axis, length, r @ rest_e1, r @ rest_e2))
        return tuple(np.array(v) for v in zip(*frames))


@dataclass(frozen=True)
class SkeletonPose:
    keypoints: np.ndarray  # (14, 3)


@dataclass(frozen=True)
class ObservedKeypoints:
    positions: np.ndarray  # (14, 3)
    confidences: np.ndarray  # (14,)


@dataclass(frozen=True)
class ActivitySpec:
    """One scene's motion, drawn from `GenConfig`'s ranges, which hold the
    period above 0 and the distance in [2, 4] m."""

    activity_id: str
    amplitude: float = 0.7  # radians
    period: float = 2.0  # seconds
    subject_distance: float = 3.0  # meters


def bone_length_ranges() -> np.ndarray:
    """(13, 2) inclusive [min, max] envelope implied by the sampling scheme."""
    base = pose_bone_lengths(_rest_pose(1.0, {k: 1.0 for k in _BASE}))
    lo = _HEIGHT_RANGE[0] / 1.75 * _JITTER[0]
    hi = _HEIGHT_RANGE[1] / 1.75 * _JITTER[1]
    return np.stack([base * lo, base * hi], axis=1)


def _rest_pose(scale: float, j: dict) -> np.ndarray:
    """Neutral standing pose, arms hanging, in the local body frame."""
    sw = _BASE["shoulder_half"] * j["shoulder_half"] * scale
    hw = _BASE["hip_half"] * j["hip_half"] * scale
    head = _BASE["head"] * j["head"] * scale
    ua = _BASE["upper_arm"] * j["upper_arm"] * scale
    fa = _BASE["forearm"] * j["forearm"] * scale
    torso = _BASE["torso"] * j["torso"] * scale
    thigh = _BASE["thigh"] * j["thigh"] * scale
    shin = _BASE["shin"] * j["shin"] * scale
    kp = np.zeros((14, 3))
    kp[0] = (0.0, 0.0, head)
    kp[1] = (0.0, 0.0, 0.0)
    kp[2] = (sw, 0.0, 0.0)
    kp[3] = (-sw, 0.0, 0.0)
    kp[4] = kp[2] + (0.0, 0.0, -ua)
    kp[5] = kp[3] + (0.0, 0.0, -ua)
    kp[6] = kp[4] + (0.0, 0.0, -fa)
    kp[7] = kp[5] + (0.0, 0.0, -fa)
    kp[8] = (hw, 0.0, -torso)
    kp[9] = (-hw, 0.0, -torso)
    kp[10] = kp[8] + (0.0, 0.0, -thigh)
    kp[11] = kp[9] + (0.0, 0.0, -thigh)
    kp[12] = kp[10] + (0.0, 0.0, -shin)
    kp[13] = kp[11] + (0.0, 0.0, -shin)
    return kp


def make_subject(seed: int) -> SkeletonModel:
    """Deterministic body model with anthropometric bone lengths."""
    rng = np.random.default_rng(seed)
    height = rng.uniform(*_HEIGHT_RANGE)
    scale = height / 1.75
    # left/right share one jitter factor so the body stays symmetric
    j = {name: rng.uniform(*_JITTER) for name in _BASE}
    rest = _rest_pose(scale, j)
    radii = np.asarray(_BASE_RADII) * scale
    return SkeletonModel(pose_bone_lengths(rest), radii, rest)


def pose_bone_lengths(keypoints: np.ndarray) -> np.ndarray:
    kp = np.asarray(keypoints)
    return np.array([np.linalg.norm(d) for d in kp[BONE_PARENT] - kp[BONE_CHILD]])


def _rotate_subset(kp, indices, pivot, axis, angle):
    """Rotate `kp[indices]` in place by `angle` about `axis` through `pivot`."""
    if angle == 0.0:
        return
    r = axis_angle_rotation(axis, angle)
    kp[indices] = (kp[indices] - pivot) @ r.T + pivot


_X = np.array([1.0, 0.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


def _bent_legs(rest: np.ndarray, bend: float) -> np.ndarray:
    kp = rest.copy()
    _rotate_subset(kp, [10, 12], kp[8], _X, -bend)  # thighs forward by `bend`
    _rotate_subset(kp, [11, 13], kp[9], _X, -bend)
    _rotate_subset(kp, [12], kp[10], _X, bend)  # shins back down by it
    _rotate_subset(kp, [13], kp[11], _X, bend)
    return kp


def _seated_base(rest: np.ndarray) -> np.ndarray:
    return _bent_legs(rest, np.pi / 2)


def _squat_base(rest: np.ndarray) -> np.ndarray:
    kp = _bent_legs(rest, np.deg2rad(75.0))
    _rotate_subset(kp, [4, 6], kp[2], _X, -np.pi / 2)  # arms level, forward
    _rotate_subset(kp, [5, 7], kp[3], _X, -np.pi / 2)
    return kp


# Per activity: base-pose builder and moving joints as
# (pivot, subtree indices, axis, phase sign, amplitude scale, waveform).
# Pivot is a keypoint index, or a pair whose midpoint is the pivot.  Waveform
# "sin" oscillates around the base pose; "bow" goes 0 -> amplitude -> 0.
_ACTIVITY_TABLE = {
    "ArmSwing": (None, [(2, (4, 6), _X, 1.0, 1.0, "sin"), (3, (5, 7), _X, -1.0, 1.0, "sin")]),
    "LegSwing": (None, [(8, (10, 12), _X, 1.0, 1.0, "sin"), (9, (11, 13), _X, -1.0, 1.0, "sin")]),
    "ArmLegSwing": (
        None,
        [
            (2, (4, 6), _X, 1.0, 1.0, "sin"),
            (3, (5, 7), _X, -1.0, 1.0, "sin"),
            (8, (10, 12), _X, -1.0, 0.7, "sin"),
            (9, (11, 13), _X, 1.0, 0.7, "sin"),
        ],
    ),
    "Bowing": (None, [((8, 9), (0, 1, 2, 3, 4, 5, 6, 7), _X, 1.0, 1.0, "bow")]),
    "TorsoTwist": (None, [(1, (2, 3, 4, 5, 6, 7), _Z, 1.0, 1.0, "sin")]),
    "Sitting": (_seated_base, [(4, (6,), _X, 1.0, 1.0, "sin")]),
    "Squatting": (_squat_base, [(4, (6,), _X, 1.0, 1.0, "sin"), (5, (7,), _X, -1.0, 1.0, "sin")]),
    "HeadBobbing": (None, [(1, (0,), _X, 1.0, 1.0, "sin")]),
}

MAX_FRAME_DISPLACEMENT = 0.5  # meters, human-plausibility cap


def generate_motion(
    model: SkeletonModel,
    spec: ActivitySpec,
    frames: int,
    rate: float = DEFAULT_FRAME_RATE,
) -> list[SkeletonPose]:
    """Forward-kinematic pose sequence for one activity.

    The effective amplitude is clamped so no keypoint ever moves more than
    MAX_FRAME_DISPLACEMENT between consecutive frames, whatever the requested
    amplitude/period/rate combination.
    """
    base_builder, joints = _ACTIVITY_TABLE[spec.activity_id]
    base = model.rest_keypoints if base_builder is None else base_builder(model.rest_keypoints)

    omega = 2.0 * np.pi / spec.period
    step = min(2.0, omega / rate)  # max |delta waveform| between frames

    resolved = []
    for pivot, subtree, axis, sign, scale, waveform in joints:
        idx = list(subtree)
        pivot_pt = base[list(pivot)].mean(axis=0) if isinstance(pivot, tuple) else base[pivot]
        lever = max(float(np.linalg.norm(base[idx] - pivot_pt, axis=1).max()), 1e-6)
        cap = 0.95 * MAX_FRAME_DISPLACEMENT / (lever * step)
        amp = sign * scale * np.copysign(min(abs(spec.amplitude), cap), spec.amplitude)
        resolved.append((pivot_pt, idx, axis, amp, waveform))

    offset = np.array(
        [0.0, spec.subject_distance, FLOOR_Z + _BASE["ankle_h"] - base[:, 2].min()]
    )

    poses = []
    for f in range(frames):
        t = f / rate
        kp = base.copy()
        for pivot_pt, idx, axis, amp, waveform in resolved:
            if waveform == "bow":
                angle = amp * 0.5 * (1.0 - np.cos(omega * t))
            else:
                angle = amp * np.sin(omega * t)
            _rotate_subset(kp, idx, pivot_pt, axis, angle)
        poses.append(SkeletonPose(kp + offset))
    return poses


def observe_keypoints(
    pose: SkeletonPose, noise_std: float, dropout_prob: float, seed: int
) -> ObservedKeypoints:
    """Noisy keypoint channel with confidences that fall with realized error.

    Dropped-out keypoints get a confidence below 0.5 and an outlier offset
    larger than the downstream displacement gate.
    """
    rng = np.random.default_rng(seed)
    positions = np.empty((14, 3))
    confidences = np.empty(14)
    for i in range(14):
        err = rng.normal(0.0, noise_std, size=3) if noise_std > 0 else np.zeros(3)
        positions[i] = pose.keypoints[i] + err
        confidences[i] = np.exp(-np.linalg.norm(err) / 0.05)
        if rng.uniform() < dropout_prob:
            confidences[i] = rng.uniform(0.0, 0.5)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            positions[i] = pose.keypoints[i] + direction * rng.uniform(0.6, 1.5)
    return ObservedKeypoints(positions, confidences)
