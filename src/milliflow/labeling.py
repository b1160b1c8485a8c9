"""Pseudo scene-flow labels from skeleton motion, plus exact synthetic truth.

A radar point inherits the rigid motion of its closest valid bone: keypoints
are gated on confidence and inter-frame displacement, each surviving bone gets
a minimal-rotation transform anchored at its midpoint, and points are assigned
to bones by point-segment distance.  Ground-truth labels bypass the noisy
keypoint channel entirely using the reflector provenance recorded during
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import point_segment_distances
from .errors import ProvenanceMissing
from .geometry import RigidTransform, rotation_between
from .radar import RadarFrame, bone_frame
from .skeleton import BONES, ObservedKeypoints, SkeletonModel, SkeletonPose

CONFIDENCE_THRESHOLD = 0.5
DISPLACEMENT_THRESHOLD = 0.5  # meters between frames
ASSIGNMENT_RADIUS = 0.3  # meters, point-to-bone gate
ASSIGNMENT_TIE_TOL = 1e-12

# bone index -> body segment (head, L arm, R arm, torso, L leg, R leg)
BONE_SEGMENT = np.array([0, 1, 2, 1, 2, 1, 2, 3, 3, 4, 5, 4, 5])
N_SEGMENTS = 6
UNASSIGNED_SEGMENT = 3  # convention: unassigned points count as torso, masked out


@dataclass(frozen=True)
class FlowLabel:
    flows: np.ndarray  # (N, 3)
    valid_mask: np.ndarray  # (N,) bool
    bone_assignment: np.ndarray  # (N,) int, -1 when unassigned
    segment_label: np.ndarray  # (N,) int in [0, 5]

    def __len__(self) -> int:
        return len(self.flows)

    def subset(self, idx) -> "FlowLabel":
        return FlowLabel(
            flows=self.flows[idx],
            valid_mask=self.valid_mask[idx],
            bone_assignment=self.bone_assignment[idx],
            segment_label=self.segment_label[idx],
        )


@dataclass(frozen=True)
class BoneTransformSet:
    transforms: list  # 13 entries, RigidTransform or None
    bone_valid: np.ndarray  # (13,) bool


def filter_keypoints(
    kp_t: ObservedKeypoints, kp_t1: ObservedKeypoints
) -> tuple[np.ndarray, np.ndarray]:
    """Validity of each keypoint over a frame pair, and of each bone.

    A keypoint survives when its confidence reaches 0.5 in both frames and it
    moved at most 0.5 m between them; a bone needs both endpoints.
    """
    conf_ok = (kp_t.confidences >= CONFIDENCE_THRESHOLD) & (
        kp_t1.confidences >= CONFIDENCE_THRESHOLD
    )
    disp = np.linalg.norm(kp_t1.positions - kp_t.positions, axis=1)
    kp_valid = conf_ok & (disp <= DISPLACEMENT_THRESHOLD)
    bone_valid = np.array([kp_valid[p] and kp_valid[c] for p, c in BONES])
    return kp_valid, bone_valid


def bone_transforms(
    kp_t: ObservedKeypoints, kp_t1: ObservedKeypoints, valid_bones: np.ndarray
) -> BoneTransformSet:
    """Minimal-rotation, midpoint-anchored rigid transform per valid bone.

    Two endpoint pairs leave the roll about the bone axis unobservable; the
    smallest-angle rotation consistent with the direction change is used.
    """
    transforms = []
    for b, (p, c) in enumerate(BONES):
        if not valid_bones[b]:
            transforms.append(None)
            continue
        a0, b0 = kp_t.positions[p], kp_t.positions[c]
        a1, b1 = kp_t1.positions[p], kp_t1.positions[c]
        rotation = rotation_between(b0 - a0, b1 - a1)
        mid0 = 0.5 * (a0 + b0)
        mid1 = 0.5 * (a1 + b1)
        transforms.append(RigidTransform(rotation, mid1 - rotation @ mid0))
    return BoneTransformSet(transforms, np.asarray(valid_bones, dtype=bool))


def assign_points(
    frame: RadarFrame, kp_t: ObservedKeypoints, valid_bones: np.ndarray
) -> np.ndarray:
    """Closest-valid-bone index per point, or -1 beyond the assignment gate.

    Distance ties within 1e-12 go to the lowest bone index.
    """
    n = len(frame)
    out = -np.ones(n, dtype=np.int64)
    valid_idx = np.flatnonzero(valid_bones)
    if n == 0 or len(valid_idx) == 0:
        return out
    seg_a = np.array([kp_t.positions[BONES[b][0]] for b in valid_idx])
    seg_b = np.array([kp_t.positions[BONES[b][1]] for b in valid_idx])
    d = point_segment_distances(frame.points, seg_a, seg_b)
    dmin = d.min(axis=1)
    within = dmin <= ASSIGNMENT_RADIUS
    # first column within tolerance of the row minimum wins
    first_tied = np.argmax(d <= (dmin[:, None] + ASSIGNMENT_TIE_TOL), axis=1)
    out[within] = valid_idx[first_tied[within]]
    return out


def segment_labels(assignment: np.ndarray) -> np.ndarray:
    """Body segment per point; unassigned points get the torso placeholder."""
    assignment = np.asarray(assignment)
    safe = np.clip(assignment, 0, 12)
    return np.where(assignment >= 0, BONE_SEGMENT[safe], UNASSIGNED_SEGMENT)


def pseudo_flow(
    frame: RadarFrame, assignment: np.ndarray, transforms: BoneTransformSet
) -> FlowLabel:
    """Per-point flow from the assigned bone's rigid transform."""
    n = len(frame)
    flows = np.zeros((n, 3))
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        j = assignment[i]
        if j >= 0 and transforms.bone_valid[j]:
            p = frame.points[i]
            flows[i] = transforms.transforms[j].apply(p) - p
            valid[i] = True
    return FlowLabel(flows, valid, np.asarray(assignment), segment_labels(assignment))


def label_frame_pair(
    frame_t: RadarFrame, kp_t: ObservedKeypoints, kp_t1: ObservedKeypoints
) -> FlowLabel:
    """Full pseudo-labeling pipeline for one frame pair."""
    _, bone_valid = filter_keypoints(kp_t, kp_t1)
    transforms = bone_transforms(kp_t, kp_t1, bone_valid)
    assignment = assign_points(frame_t, kp_t, bone_valid)
    return pseudo_flow(frame_t, assignment, transforms)


def true_bone_transforms(
    model: SkeletonModel, pose_t: SkeletonPose, pose_t1: SkeletonPose
) -> list[RigidTransform]:
    """Exact rigid motion of each bone between two noiseless poses.

    Uses the same transported bone triads that place reflectors, so reflector
    material points follow these transforms identically.
    """
    triads = model.rest_triads
    kp0, kp1 = pose_t.keypoints, pose_t1.keypoints
    out = []
    for b, (p, c) in enumerate(model.bones):
        rest_axis, rest_e1, rest_e2 = triads[b]
        ax0, _, e10, e20 = bone_frame(kp0[p], kp0[c], rest_axis, rest_e1, rest_e2)
        ax1, _, e11, e21 = bone_frame(kp1[p], kp1[c], rest_axis, rest_e1, rest_e2)
        m0 = np.column_stack([ax0, e10, e20])
        m1 = np.column_stack([ax1, e11, e21])
        rotation = m1 @ m0.T
        out.append(RigidTransform(rotation, kp1[p] - rotation @ kp0[p]))
    return out


def ground_truth_flow(
    frame: RadarFrame, pose_t: SkeletonPose, pose_t1: SkeletonPose, model: SkeletonModel
) -> FlowLabel:
    """Exact labels from reflector provenance and true bone kinematics.

    Real points follow their generating bone exactly (mask true); ghost points
    get the flow of the nearest bone with mask false.
    """
    if frame.prov_bone is None:
        raise ProvenanceMissing("frame carries no reflector provenance")
    transforms = true_bone_transforms(model, pose_t, pose_t1)
    n = len(frame)
    flows = np.zeros((n, 3))
    valid = np.ones(n, dtype=bool)
    assignment = frame.prov_bone.copy()
    ghosts = np.flatnonzero(assignment < 0)
    if len(ghosts):
        seg_a = np.array([pose_t.keypoints[p] for p, _ in model.bones])
        seg_b = np.array([pose_t.keypoints[c] for _, c in model.bones])
        d = point_segment_distances(frame.points[ghosts], seg_a, seg_b)
        nearest = np.argmin(d, axis=1)
    for i in range(n):
        j = assignment[i]
        if j < 0:
            j = int(nearest[np.searchsorted(ghosts, i)])
            valid[i] = False
        p = frame.points[i]
        flows[i] = transforms[j].apply(p) - p
    return FlowLabel(flows, valid, assignment, segment_labels(assignment))
