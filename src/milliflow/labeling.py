"""Pseudo scene-flow labels from skeleton motion, plus exact synthetic truth.

A radar point inherits the rigid motion of its closest valid bone: keypoints
are gated on confidence and inter-frame displacement, each surviving bone gets
a minimal-rotation transform anchored at its midpoint, and points are assigned
to bones by point-segment distance.  Ground-truth labels bypass the noisy
keypoint channel entirely using the reflector provenance recorded during
simulation; their bone motion comes from `SkeletonModel.bone_frames`, the
frames the radar placed the reflectors on.

Both hold a pair's bone motion stacked, as (13, 3, 3) rotations and (13, 3)
translations (an invalid bone keeps the identity and a zero translation; its
validity is a separate mask), and apply it through `_rotate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import point_segment_distances
from .errors import ProvenanceMissing
from .geometry import rotation_between
from .radar import RadarFrame
from .skeleton import BONE_CHILD, BONE_PARENT, ObservedKeypoints, SkeletonModel, SkeletonPose

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
        return FlowLabel(self.flows[idx], self.valid_mask[idx], self.bone_assignment[idx],
                         self.segment_label[idx])


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
    return kp_valid, kp_valid[BONE_PARENT] & kp_valid[BONE_CHILD]


def _rotate(rotations: np.ndarray, points: np.ndarray) -> np.ndarray:
    """`rotations[i] @ points[i]` per row, one matrix-vector product each, so
    a row rounds as a lone `R @ p` does (`points @ R.T` and `einsum` do not)."""
    return np.matmul(rotations, points[:, :, None])[:, :, 0]


def bone_transforms(
    kp_t: ObservedKeypoints, kp_t1: ObservedKeypoints, valid_bones: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-rotation, midpoint-anchored rigid motion of each bone, stacked;
    an invalid bone gets the identity and a zero translation.

    Two endpoint pairs leave the roll about the bone axis unobservable; the
    smallest-angle rotation consistent with the direction change is used.
    """
    pos0, pos1 = kp_t.positions, kp_t1.positions
    rotations = np.tile(np.eye(3), (len(BONE_PARENT), 1, 1))
    # directions in fresh arrays: some BLAS kernels round a dot product by
    # the alignment of its operands, so rows of one (13, 3) array would not do
    for b in np.flatnonzero(valid_bones):
        p, c = BONE_PARENT[b], BONE_CHILD[b]
        rotations[b] = rotation_between(pos0[c] - pos0[p], pos1[c] - pos1[p])
    mid0 = 0.5 * (pos0[BONE_PARENT] + pos0[BONE_CHILD])
    mid1 = 0.5 * (pos1[BONE_PARENT] + pos1[BONE_CHILD])
    return rotations, np.where(valid_bones[:, None], mid1 - _rotate(rotations, mid0), 0.0)


def nearest_segment(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray,
                    radius: float = np.inf) -> np.ndarray:
    """Index of each point's nearest segment from `seg_a[i]` to `seg_b[i]`,
    or -1 for a point farther than `radius` from every segment.

    Distances within ASSIGNMENT_TIE_TOL of a point's minimum tie, and a tie
    goes to the lowest index.
    """
    if len(points) == 0 or len(seg_a) == 0:
        return -np.ones(len(points), dtype=np.int64)
    d = point_segment_distances(points, seg_a, seg_b)
    dmin = d.min(axis=1)
    first_tied = np.argmax(d <= (dmin[:, None] + ASSIGNMENT_TIE_TOL), axis=1)
    return np.where(dmin <= radius, first_tied, -1)


def assign_points(
    frame: RadarFrame, kp_t: ObservedKeypoints, valid_bones: np.ndarray
) -> np.ndarray:
    """Closest-valid-bone index per point (`nearest_segment` over the valid
    bones), or -1 beyond the assignment gate."""
    valid_idx = np.flatnonzero(valid_bones)
    nearest = nearest_segment(frame.points, kp_t.positions[BONE_PARENT[valid_idx]],
                              kp_t.positions[BONE_CHILD[valid_idx]], ASSIGNMENT_RADIUS)
    return np.append(valid_idx, -1)[nearest]  # index -1 reads the appended -1


def segment_labels(assignment: np.ndarray) -> np.ndarray:
    """Body segment per point; unassigned points get the torso placeholder."""
    assignment = np.asarray(assignment)
    safe = np.clip(assignment, 0, 12)
    return np.where(assignment >= 0, BONE_SEGMENT[safe], UNASSIGNED_SEGMENT)


def _bone_flows(points: np.ndarray, bone: np.ndarray, motion: tuple) -> np.ndarray:
    """Each point's motion under its bone's rigid transform; zero where `bone`
    is -1."""
    rotations, translations = motion
    flows = np.zeros((len(points), 3))
    moving = bone >= 0
    p, b = points[moving], bone[moving]
    flows[moving] = (_rotate(rotations[b], p) + translations[b]) - p
    return flows


def pseudo_flow(frame: RadarFrame, assignment: np.ndarray, motion: tuple,
                valid_bones: np.ndarray) -> FlowLabel:
    """Per-point flow from the assigned bone's rigid motion; a point is valid
    when its bone is."""
    assignment = np.asarray(assignment)
    valid = np.isin(assignment, np.flatnonzero(valid_bones))
    flows = _bone_flows(frame.points, np.where(valid, assignment, -1), motion)
    return FlowLabel(flows, valid, assignment, segment_labels(assignment))


def label_frame_pair(
    frame_t: RadarFrame, kp_t: ObservedKeypoints, kp_t1: ObservedKeypoints
) -> FlowLabel:
    """Full pseudo-labeling pipeline for one frame pair."""
    _, bone_valid = filter_keypoints(kp_t, kp_t1)
    motion = bone_transforms(kp_t, kp_t1, bone_valid)
    assignment = assign_points(frame_t, kp_t, bone_valid)
    return pseudo_flow(frame_t, assignment, motion, bone_valid)


def true_bone_transforms(
    model: SkeletonModel, pose_t: SkeletonPose, pose_t1: SkeletonPose
) -> tuple[np.ndarray, np.ndarray]:
    """Exact rigid motion of each bone between two noiseless poses, stacked.

    Reads `model.bone_frames`, the frames reflectors are placed on, so
    reflector material points follow these transforms identically.
    """
    kp0, kp1 = pose_t.keypoints, pose_t1.keypoints
    ax0, _, e10, e20 = model.bone_frames(kp0)
    ax1, _, e11, e21 = model.bone_frames(kp1)
    m0 = np.stack([ax0, e10, e20], axis=-1)  # each bone's triad as columns
    m1 = np.stack([ax1, e11, e21], axis=-1)
    rotations = np.matmul(m1, np.swapaxes(m0, 1, 2))
    return rotations, kp1[BONE_PARENT] - _rotate(rotations, kp0[BONE_PARENT])


def ground_truth_flow(
    frame: RadarFrame, pose_t: SkeletonPose, pose_t1: SkeletonPose, model: SkeletonModel
) -> FlowLabel:
    """Exact labels from reflector provenance and true bone kinematics.

    Real points follow their generating bone exactly (mask true); ghost and
    noise points, of provenance -1, get the flow of the nearest bone with mask
    false.
    """
    if frame.prov_bone is None:
        raise ProvenanceMissing("frame carries no reflector provenance")
    motion = true_bone_transforms(model, pose_t, pose_t1)
    assignment = frame.prov_bone.copy()
    valid = assignment >= 0
    bone = assignment.copy()
    bone[~valid] = nearest_segment(frame.points[~valid], pose_t.keypoints[BONE_PARENT],
                                   pose_t.keypoints[BONE_CHILD])
    flows = _bone_flows(frame.points, bone, motion)
    return FlowLabel(flows, valid, assignment, segment_labels(assignment))
