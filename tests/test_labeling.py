import numpy as np
import pytest
from helpers import is_rotation, on_openblas, pytest_on_kernel, reflector_motion
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle

from milliflow.errors import ProvenanceMissing
from milliflow.geometry import axis_angle_rotation
from milliflow.labeling import (
    BONE_SEGMENT,
    UNASSIGNED_SEGMENT,
    _bone_flows,
    assign_points,
    bone_transforms,
    filter_keypoints,
    ground_truth_flow,
    label_frame_pair,
    nearest_segment,
    pseudo_flow,
    segment_labels,
    true_bone_transforms,
)
from milliflow.radar import (
    RadarConfig, RadarFrame, place_reflectors, sample_bone_local_reflectors,
)
from milliflow.skeleton import (
    ALL_ACTIVITIES,
    BONES,
    ActivitySpec,
    ObservedKeypoints,
    SkeletonPose,
    generate_motion,
    make_subject,
    observe_keypoints,
)


def perfect_obs(pose: SkeletonPose) -> ObservedKeypoints:
    return ObservedKeypoints(pose.keypoints.copy(), np.ones(14))


def frame_from_points(points, prov=None) -> RadarFrame:
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return RadarFrame(points, np.ones(len(points)), 0, 0.0, prov)


@pytest.fixture(scope="module")
def armswing():
    model = make_subject(0)
    poses = generate_motion(model, ActivitySpec("ArmSwing", amplitude=0.7), 30)
    return model, poses


class TestFilterKeypoints:
    def test_low_confidence_invalidates_keypoint_and_bones(self, armswing):
        _, poses = armswing
        kp_t, kp_t1 = perfect_obs(poses[0]), perfect_obs(poses[1])
        conf = kp_t.confidences.copy()
        conf[4] = 0.4  # left elbow
        kp_t = ObservedKeypoints(kp_t.positions, conf)
        kp_valid, bone_valid = filter_keypoints(kp_t, kp_t1)
        assert not kp_valid[4]
        incident = [b for b, (p, c) in enumerate(BONES) if 4 in (p, c)]
        assert incident == [3, 5]
        assert not bone_valid[3] and not bone_valid[5]
        assert bone_valid.sum() == 11

    def test_large_displacement_invalidates(self, armswing):
        _, poses = armswing
        kp_t = perfect_obs(poses[0])
        moved = kp_t.positions.copy()
        moved[6] += np.array([0.6, 0.0, 0.0])
        kp_t1 = ObservedKeypoints(moved, np.ones(14))
        kp_valid, _ = filter_keypoints(kp_t, kp_t1)
        assert not kp_valid[6]
        assert kp_valid.sum() == 13

    def test_all_clean_all_valid(self, armswing):
        _, poses = armswing
        kp_valid, bone_valid = filter_keypoints(perfect_obs(poses[0]), perfect_obs(poses[1]))
        assert kp_valid.all() and bone_valid.all()

    def test_exact_thresholds_kept(self, armswing):
        _, poses = armswing
        kp_t = perfect_obs(poses[0])
        conf = np.full(14, 0.5)  # exactly at the confidence cut
        moved = kp_t.positions.copy()
        moved[0] += np.array([0.5, 0.0, 0.0])  # exactly at the displacement cut
        kp_valid, _ = filter_keypoints(
            ObservedKeypoints(kp_t.positions, conf), ObservedKeypoints(moved, conf)
        )
        assert kp_valid.all()


class TestBoneTransforms:
    def test_static_bone_identity(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        rotations, translations = bone_transforms(obs, obs, np.ones(13, dtype=bool))
        np.testing.assert_allclose(rotations, np.tile(np.eye(3), (13, 1, 1)), atol=1e-12)
        np.testing.assert_allclose(translations, np.zeros((13, 3)), atol=1e-12)

    def test_pure_translation(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        shifted = ObservedKeypoints(obs.positions + [0.05, 0.0, 0.0], obs.confidences)
        rotations, translations = bone_transforms(obs, shifted, np.ones(13, dtype=bool))
        np.testing.assert_allclose(rotations, np.tile(np.eye(3), (13, 1, 1)), atol=1e-12)
        np.testing.assert_allclose(translations, np.tile([0.05, 0.0, 0.0], (13, 1)),
                                   atol=1e-12)

    def test_known_rotation_recovered(self):
        # Oracle: rotate one bone 10 degrees about a perpendicular axis through
        # its midpoint; the minimal rotation must be that exact rotation and
        # must map both endpoints exactly.
        pos0 = np.zeros((14, 3))
        pos0[1] = (0.0, 3.0, 1.0)
        pos0[2] = (0.3, 3.0, 1.0)  # bone 1 = neck->left shoulder along +x
        angle = np.deg2rad(10.0)
        rot = axis_angle_rotation([0.0, 0.0, 1.0], angle)
        mid = 0.5 * (pos0[1] + pos0[2])
        pos1 = pos0.copy()
        for k in (1, 2):
            pos1[k] = rot @ (pos0[k] - mid) + mid
        valid = np.zeros(13, dtype=bool)
        valid[1] = True
        rotations, translations = bone_transforms(
            ObservedKeypoints(pos0, np.ones(14)),
            ObservedKeypoints(pos1, np.ones(14)),
            valid,
        )
        r, t = rotations[1], translations[1]
        recovered = np.arccos((np.trace(r) - 1.0) / 2.0)
        assert recovered == pytest.approx(angle, abs=1e-6)
        np.testing.assert_allclose(r @ pos0[1] + t, pos1[1], atol=1e-9)
        np.testing.assert_allclose(r @ pos0[2] + t, pos1[2], atol=1e-9)
        np.testing.assert_array_equal(rotations[0], np.eye(3))
        np.testing.assert_array_equal(translations[0], np.zeros(3))

    def test_invalid_bone_has_no_transform(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        valid = np.ones(13, dtype=bool)
        valid[5] = False
        rotations, translations = bone_transforms(obs, perfect_obs(poses[1]), valid)
        np.testing.assert_array_equal(rotations[5], np.eye(3))
        np.testing.assert_array_equal(translations[5], np.zeros(3))


class TestAssignPoints:
    def test_point_on_bone(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        p, c = BONES[4]
        on_bone = 0.5 * (obs.positions[p] + obs.positions[c])
        got = assign_points(frame_from_points([on_bone]), obs, np.ones(13, dtype=bool))
        assert got[0] == 4

    def test_no_valid_bones(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        frame = frame_from_points(obs.positions[:5])
        got = assign_points(frame, obs, np.zeros(13, dtype=bool))
        assert np.all(got == -1)

    def test_beyond_radius_unassigned(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        far = obs.positions[0] + np.array([2.0, 0.0, 0.0])
        got = assign_points(frame_from_points([far]), obs, np.ones(13, dtype=bool))
        assert got[0] == -1

    def test_exact_tie_goes_to_lower_bone(self):
        pos = np.zeros((14, 3))
        pos[1] = (0.0, 0.0, 0.0)
        pos[3] = (1.0, 0.0, 0.0)  # bone 2 = (1, 3)
        pos[8] = (-1.0, 0.0, 0.0)  # bone 7 = (1, 8)
        obs = ObservedKeypoints(pos, np.ones(14))
        valid = np.zeros(13, dtype=bool)
        valid[2] = valid[7] = True
        probe = np.array([[0.0, 0.2, 0.0]])  # equidistant from both segments
        got = assign_points(frame_from_points(probe), obs, valid)
        assert got[0] == 2


class TestNearestSegment:
    def test_near_tie_goes_to_lower_index(self):
        # zero-length segments 0.3 and 0.3 - 1e-13 from the origin: within
        # the tie tolerance, so the lower index wins over the strict minimum
        ends = np.array([[0.3, 0.0, 0.0], [-0.3 + 1e-13, 0.0, 0.0]])
        assert nearest_segment(np.zeros((1, 3)), ends, ends)[0] == 0

    def test_radius_and_empty_inputs(self):
        ends = np.array([[1.0, 0.0, 0.0]])
        points = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0]])
        np.testing.assert_array_equal(nearest_segment(points, ends, ends, 0.5), [-1, 0])
        np.testing.assert_array_equal(nearest_segment(points, ends, ends), [0, 0])
        np.testing.assert_array_equal(
            nearest_segment(points, np.empty((0, 3)), np.empty((0, 3))), [-1, -1])
        assert nearest_segment(np.empty((0, 3)), ends, ends).shape == (0,)


class TestPseudoFlow:
    def test_identity_transforms(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        frame = frame_from_points(obs.positions)
        valid = np.ones(13, dtype=bool)
        motion = bone_transforms(obs, obs, valid)
        assignment = assign_points(frame, obs, valid)
        label = pseudo_flow(frame, assignment, motion, valid)
        np.testing.assert_allclose(label.flows, 0.0, atol=1e-12)
        assert np.array_equal(label.valid_mask, assignment >= 0)

    def test_translated_bone_flow(self, armswing):
        _, poses = armswing
        obs = perfect_obs(poses[0])
        shifted = ObservedKeypoints(obs.positions + [0.05, 0.0, 0.0], obs.confidences)
        valid = np.ones(13, dtype=bool)
        motion = bone_transforms(obs, shifted, valid)
        p, c = BONES[6]
        pt = 0.5 * (obs.positions[p] + obs.positions[c])
        frame = frame_from_points([pt])
        label = pseudo_flow(frame, np.array([6]), motion, valid)
        np.testing.assert_allclose(label.flows[0], [0.05, 0.0, 0.0], atol=1e-12)
        assert label.valid_mask[0]

    def test_midpoint_of_rotating_bone_is_fixed(self):
        pos0 = np.zeros((14, 3))
        pos0[1] = (0.0, 3.0, 0.0)
        pos0[2] = (0.4, 3.0, 0.0)
        mid = 0.5 * (pos0[1] + pos0[2])
        rot = axis_angle_rotation([0.0, 0.0, 1.0], 0.3)
        pos1 = pos0.copy()
        for k in (1, 2):
            pos1[k] = rot @ (pos0[k] - mid) + mid
        valid = np.zeros(13, dtype=bool)
        valid[1] = True
        motion = bone_transforms(
            ObservedKeypoints(pos0, np.ones(14)), ObservedKeypoints(pos1, np.ones(14)), valid
        )
        label = pseudo_flow(frame_from_points([mid]), np.array([1]), motion, valid)
        np.testing.assert_allclose(label.flows[0], 0.0, atol=1e-9)

    def test_unassigned_zero_flow_masked(self, armswing):
        _, poses = armswing
        frame = frame_from_points([[5.0, 5.0, 5.0]])
        obs = perfect_obs(poses[0])
        valid = np.ones(13, dtype=bool)
        motion = bone_transforms(obs, perfect_obs(poses[1]), valid)
        label = pseudo_flow(frame, np.array([-1]), motion, valid)
        assert not label.valid_mask[0]
        np.testing.assert_array_equal(label.flows[0], np.zeros(3))
        assert label.segment_label[0] == UNASSIGNED_SEGMENT


class TestSegmentLabels:
    def test_table(self):
        assert segment_labels(np.array([0]))[0] == 0  # head bone
        assert segment_labels(np.array([5]))[0] == 1  # left forearm
        assert segment_labels(np.array([6]))[0] == 2  # right forearm
        assert segment_labels(np.array([7]))[0] == 3  # torso
        assert segment_labels(np.array([11]))[0] == 4  # left shin
        assert segment_labels(np.array([12]))[0] == 5  # right shin
        assert segment_labels(np.array([-1]))[0] == UNASSIGNED_SEGMENT

    def test_total_function(self):
        got = segment_labels(np.arange(-1, 13))
        assert got.shape == (14,)
        assert set(got.tolist()) <= set(range(6))
        np.testing.assert_array_equal(got[1:], BONE_SEGMENT)


class TestGroundTruthFlow:
    def _reflector_frame(self, model, pose, seed=0):
        cfg = RadarConfig(snr_db=None, ghost_prob=0.0)
        refl = place_reflectors(model, pose, sample_bone_local_reflectors(model, cfg, seed))
        return refl, RadarFrame(
            refl.positions.copy(),
            np.ones(len(refl)),
            0,
            0.0,
            refl.bone_index.copy(),
        )

    def test_static_pair_zero_flow(self, armswing):
        model, poses = armswing
        _, frame = self._reflector_frame(model, poses[0])
        label = ground_truth_flow(frame, poses[0], poses[0], model)
        np.testing.assert_allclose(label.flows, 0.0, atol=1e-12)
        assert label.valid_mask.all()

    def test_whole_body_translation(self, armswing):
        model, poses = armswing
        _, frame = self._reflector_frame(model, poses[0])
        delta = np.array([0.02, -0.01, 0.03])
        shifted = SkeletonPose(poses[0].keypoints + delta)
        label = ground_truth_flow(frame, poses[0], shifted, model)
        np.testing.assert_allclose(label.flows, np.tile(delta, (len(frame), 1)), atol=1e-9)

    def test_matches_pseudo_flow_for_generating_bone(self, armswing):
        # noiseless keypoints + rigid per-bone motion: the two labelers agree
        # exactly wherever a point is assigned to the bone that generated it
        model, poses = armswing
        for t in (0, 7, 15):
            _, frame = self._reflector_frame(model, poses[t], seed=t)
            truth = ground_truth_flow(frame, poses[t], poses[t + 1], model)
            pseudo = label_frame_pair(
                frame, perfect_obs(poses[t]), perfect_obs(poses[t + 1])
            )
            same = (pseudo.bone_assignment == frame.prov_bone) & pseudo.valid_mask
            assert same.sum() > 0.5 * len(frame)
            np.testing.assert_allclose(
                pseudo.flows[same], truth.flows[same], atol=1e-9
            )

    def test_ghosts_masked_with_nearest_bone_flow(self, armswing):
        model, poses = armswing
        refl, frame = self._reflector_frame(model, poses[3])
        pts = np.vstack([frame.points, frame.points[-1] * 1.3])
        prov = np.concatenate([frame.prov_bone, [-1]])
        ghost_frame = RadarFrame(pts, np.ones(len(pts)), 0, 0.0, prov)
        label = ground_truth_flow(ghost_frame, poses[3], poses[4], model)
        assert not label.valid_mask[-1]
        assert label.valid_mask[:-1].all()
        assert label.bone_assignment[-1] == -1
        assert np.any(label.flows[-1] != 0.0) or True  # flow present, not NaN
        assert np.all(np.isfinite(label.flows))

    def test_provenance_missing(self, armswing):
        model, poses = armswing
        frame = frame_from_points(poses[0].keypoints)
        with pytest.raises(ProvenanceMissing):
            ground_truth_flow(frame, poses[0], poses[1], model)


class TestInvariants:
    def test_valid_mask_implies_bone_valid(self, armswing):
        model, poses = armswing
        rng = np.random.default_rng(0)
        from milliflow.skeleton import observe_keypoints

        for t in range(10):
            obs_t = observe_keypoints(poses[t], 0.03, 0.2, seed=100 + t)
            obs_t1 = observe_keypoints(poses[t + 1], 0.03, 0.2, seed=200 + t)
            pts = poses[t].keypoints + rng.normal(0, 0.1, size=(14, 3))
            frame = frame_from_points(pts)
            _, bone_valid = filter_keypoints(obs_t, obs_t1)
            label = label_frame_pair(frame, obs_t, obs_t1)
            assigned = label.bone_assignment[label.valid_mask]
            assert np.all(assigned >= 0)
            assert np.all(bone_valid[assigned])

    def test_flow_magnitude_bound(self, armswing):
        model, poses = armswing
        rng = np.random.default_rng(1)
        for t in range(0, 20, 3):
            obs_t, obs_t1 = perfect_obs(poses[t]), perfect_obs(poses[t + 1])
            base = poses[t].keypoints[rng.integers(0, 14, size=60)]
            pts = base + rng.uniform(-0.25, 0.25, size=(60, 3))
            label = label_frame_pair(frame_from_points(pts), obs_t, obs_t1)
            max_disp = np.linalg.norm(
                poses[t + 1].keypoints - poses[t].keypoints, axis=1
            ).max()
            bound = max_disp + 0.6
            assert np.abs(label.flows[label.valid_mask]).max() <= bound + 1e-9

    @given(subject=st.integers(0, 3), activity=st.sampled_from(ALL_ACTIVITIES),
           t=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_reflectors_follow_exact_labels(self, subject, activity, t):
        # the labels move each material point onto its own place in the next
        # pose, because both read the bone frames of `bone_frames`
        model, poses, local = reflector_motion(subject, activity)
        refl_t = place_reflectors(model, poses[t], local)
        frame = RadarFrame(refl_t.positions, np.ones(len(refl_t)), t, 0.0, refl_t.bone_index)
        label = ground_truth_flow(frame, poses[t], poses[t + 1], model)
        assert label.valid_mask.all()
        moved = place_reflectors(model, poses[t + 1], local).positions
        np.testing.assert_allclose(refl_t.positions + label.flows, moved, rtol=0, atol=1e-12)

    def test_true_transforms_are_rigid(self, armswing):
        model, poses = armswing
        rotations, _ = true_bone_transforms(model, poses[2], poses[3])
        for r in rotations:
            assert is_rotation(r, tol=1e-9)


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestByteOracle:
    """The stacked bone motion and its batched apply give the bytes of the
    per-bone transform list applied point by point (`kernel_oracles`)."""

    @given(subject=st.integers(0, 3), activity=st.sampled_from(ALL_ACTIVITIES),
           t=st.integers(0, 10), n_points=st.integers(0, 40), seed=st.integers(0, 2**16),
           bones=st.sampled_from(["observed", "all", "none"]))
    @settings(max_examples=60, deadline=None)
    def test_stacked_form_gives_the_oracle_bytes(self, subject, activity, t, n_points,
                                                 seed, bones):
        model, poses, _ = reflector_motion(subject, activity)
        obs_t = observe_keypoints(poses[t], 0.03, 0.2, seed=seed)
        obs_t1 = observe_keypoints(poses[t + 1], 0.03, 0.2, seed=seed + 1)
        valid = {"observed": filter_keypoints(obs_t, obs_t1)[1],
                 "all": np.ones(13, dtype=bool), "none": np.zeros(13, dtype=bool)}[bones]
        rng = np.random.default_rng(seed)
        points = (poses[t].keypoints[rng.integers(0, 14, n_points)]
                  + rng.normal(0.0, 0.1, (n_points, 3)))
        bone = rng.integers(-1, 13, n_points)

        rotations, translations = bone_transforms(obs_t, obs_t1, valid)
        listed = oracle.bone_transforms_list(obs_t, obs_t1, valid)
        for b, ref in enumerate(listed):
            if ref is None:
                _same_bytes(rotations[b], np.eye(3))
                _same_bytes(translations[b], np.zeros(3))
            else:
                _same_bytes(rotations[b], ref.rotation)
                _same_bytes(translations[b], ref.translation)
        label = pseudo_flow(frame_from_points(points), bone, (rotations, translations), valid)
        kept = np.array([j >= 0 and listed[j] is not None for j in bone], dtype=bool)
        _same_bytes(label.valid_mask, kept)
        _same_bytes(label.flows, oracle.bone_flows_loop(points, np.where(kept, bone, -1),
                                                        listed))

        motion = true_bone_transforms(model, poses[t], poses[t + 1])
        listed = oracle.true_bone_transforms_list(model, poses[t], poses[t + 1])
        _same_bytes(motion[0], np.array([ref.rotation for ref in listed]))
        _same_bytes(motion[1], np.array([ref.translation for ref in listed]))
        _same_bytes(_bone_flows(points, bone, motion),
                    oracle.bone_flows_loop(points, bone, listed))

    @on_openblas
    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_stacked_form_gives_the_oracle_bytes_on_another_kernel(self, core):
        proc = pytest_on_kernel(
            core, f"{__file__}::TestByteOracle::test_stacked_form_gives_the_oracle_bytes")
        assert proc.returncode == 0, proc.stdout + proc.stderr
