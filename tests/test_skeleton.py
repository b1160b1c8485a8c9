import numpy as np
import pytest

from milliflow.config import GenConfig
from milliflow.errors import ConfigError
from milliflow.skeleton import (
    ALL_ACTIVITIES,
    BONES,
    IN_SET_ACTIVITIES,
    KEYPOINT_NAMES,
    OUT_OF_SET_ACTIVITIES,
    ActivitySpec,
    bone_length_ranges,
    generate_motion,
    make_subject,
    observe_keypoints,
    pose_bone_lengths,
)


class TestMakeSubject:
    def test_same_seed_is_bit_identical(self):
        a, b = make_subject(0), make_subject(0)
        assert np.array_equal(a.bone_lengths, b.bone_lengths)
        assert np.array_equal(a.rest_keypoints, b.rest_keypoints)
        assert np.array_equal(a.body_radius_per_bone, b.body_radius_per_bone)

    def test_lengths_within_ranges_for_100_seeds(self):
        ranges = bone_length_ranges()
        for seed in range(100):
            m = make_subject(seed)
            assert np.all(m.bone_lengths >= ranges[:, 0] - 1e-12)
            assert np.all(m.bone_lengths <= ranges[:, 1] + 1e-12)
            assert np.all(m.bone_lengths > 0)
            assert np.all(m.body_radius_per_bone > 0)

    def test_different_seeds_differ(self):
        a, b = make_subject(1), make_subject(2)
        assert np.any(a.bone_lengths != b.bone_lengths)

    def test_structure(self):
        assert len(KEYPOINT_NAMES) == 14
        assert len(BONES) == 13
        parents = {c: p for p, c in BONES}
        assert 1 not in parents  # neck is the root
        assert set(parents) == set(range(14)) - {1}

    def test_rest_lengths_consistent(self):
        m = make_subject(3)
        np.testing.assert_allclose(
            pose_bone_lengths(m.rest_keypoints), m.bone_lengths, atol=1e-12
        )


class TestGenerateMotion:
    def test_zero_amplitude_is_static(self):
        m = make_subject(0)
        poses = generate_motion(m, ActivitySpec("ArmSwing", amplitude=0.0), 10)
        for p in poses[1:]:
            assert np.array_equal(p.keypoints, poses[0].keypoints)

    def test_armswing_moves_wrists_not_legs(self):
        m = make_subject(0)
        spec = ActivitySpec("ArmSwing", amplitude=0.6, period=2.0)
        poses = generate_motion(m, spec, 200, rate=10.0)
        kps = np.stack([p.keypoints for p in poses])
        assert kps[:, 6].std(axis=0).max() > 0.01  # left wrist oscillates
        for static_idx in (8, 9, 10, 11, 12, 13, 1):
            assert np.abs(kps[:, static_idx] - kps[0, static_idx]).max() < 1e-9
        # period 2 s at 10 Hz: pose repeats every 20 frames
        np.testing.assert_allclose(kps[20], kps[0], atol=1e-9)
        np.testing.assert_allclose(kps[27], kps[7], atol=1e-9)

    @pytest.mark.parametrize("activity", ALL_ACTIVITIES)
    def test_bone_lengths_preserved(self, activity):
        m = make_subject(5)
        poses = generate_motion(m, ActivitySpec(activity, amplitude=0.8), 60)
        for p in poses:
            np.testing.assert_allclose(
                pose_bone_lengths(p.keypoints), m.bone_lengths, atol=1e-6
            )

    @pytest.mark.parametrize("activity", ALL_ACTIVITIES)
    def test_displacement_cap(self, activity):
        # even absurd amplitude/period settings stay under 0.5 m per frame
        m = make_subject(6)
        spec = ActivitySpec(activity, amplitude=3.0, period=0.25)
        poses = generate_motion(m, spec, 200)
        kps = np.stack([p.keypoints for p in poses])
        disp = np.linalg.norm(np.diff(kps, axis=0), axis=2)
        assert disp.max() <= 0.5

    def test_determinism(self):
        m = make_subject(7)
        spec = ActivitySpec("Bowing", amplitude=0.5)
        a = generate_motion(m, spec, 50)
        b = generate_motion(m, spec, 50)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.keypoints, pb.keypoints)

    @pytest.mark.parametrize("activity", OUT_OF_SET_ACTIVITIES)
    def test_out_of_set_keeps_most_of_body_static(self, activity):
        m = make_subject(8)
        poses = generate_motion(m, ActivitySpec(activity, amplitude=0.7), 80)
        kps = np.stack([p.keypoints for p in poses])
        moved = np.linalg.norm(np.diff(kps, axis=0), axis=2) > 1e-9
        static_per_pair = (~moved).sum(axis=1)
        assert static_per_pair.min() >= 8

    def test_in_set_placement_and_orientation(self):
        m = make_subject(9)
        for act in IN_SET_ACTIVITIES:
            poses = generate_motion(m, ActivitySpec(act, subject_distance=2.5), 5)
            kp = poses[0].keypoints
            assert 2.0 < np.mean(kp[:, 1]) < 4.5  # subject sits at the set distance
            assert kp[:, 2].min() > -1.4  # feet near the floor plane

    # generate_motion and ActivitySpec take their values from GenConfig
    # (through pipeline.scene_spec), which refuses what they cannot use

    def test_unknown_activity(self):
        for gen in ({"in_set": ("Jumping",)}, {"out_of_set": ("Jumping",)}):
            with pytest.raises(ConfigError, match="unknown activities"):
                GenConfig(**gen)

    def test_bad_args(self):
        for gen, name in (({"frames_per_sequence": 1}, "2 frames"),
                          ({"frame_rate": 0.0}, "frame_rate"),
                          ({"period_range": (-1.0, 1.0)}, "period_range"),
                          ({"period_range": (0.0, 0.0)}, "period_range"),
                          ({"distance_range": (3.0, 5.0)}, "distance_range"),
                          ({"distance_range": (1.9, 3.0)}, "distance_range")):
            with pytest.raises(ConfigError, match=name):
                GenConfig(**gen)


class TestObserveKeypoints:
    def _pose(self):
        m = make_subject(0)
        return generate_motion(m, ActivitySpec("ArmSwing"), 2)[0]

    def test_noiseless(self):
        obs = observe_keypoints(self._pose(), noise_std=0.0, dropout_prob=0.0, seed=0)
        assert np.array_equal(obs.positions, self._pose().keypoints)
        assert np.all(obs.confidences == 1.0)

    def test_full_dropout(self):
        obs = observe_keypoints(self._pose(), noise_std=0.01, dropout_prob=1.0, seed=1)
        assert np.all(obs.confidences < 0.5)
        # outlier offsets are large enough to trip a 0.5 m displacement gate
        err = np.linalg.norm(obs.positions - self._pose().keypoints, axis=1)
        assert np.all(err > 0.5)

    def test_mean_error_monte_carlo(self):
        # 3D Gaussian: E||err|| = sigma * sqrt(8/pi) ~= 1.596 sigma
        pose = self._pose()
        errs = []
        for seed in range(1000):
            obs = observe_keypoints(pose, noise_std=0.02, dropout_prob=0.0, seed=seed)
            errs.append(np.linalg.norm(obs.positions - pose.keypoints, axis=1).mean())
        assert 0.028 <= np.mean(errs) <= 0.036

    def test_confidence_decreases_with_error(self):
        pose = self._pose()
        obs = observe_keypoints(pose, noise_std=0.05, dropout_prob=0.0, seed=3)
        err = np.linalg.norm(obs.positions - pose.keypoints, axis=1)
        order = np.argsort(err)
        conf_sorted = obs.confidences[order]
        assert np.all(np.diff(conf_sorted) <= 1e-12)
        assert np.all((obs.confidences >= 0) & (obs.confidences <= 1))

    def test_determinism(self):
        pose = self._pose()
        a = observe_keypoints(pose, 0.02, 0.3, seed=11)
        b = observe_keypoints(pose, 0.02, 0.3, seed=11)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.confidences, b.confidences)

    def test_negative_noise_raises(self):
        # observe_keypoints reads its noise and dropout from GenConfig
        with pytest.raises(ConfigError, match="kp_noise_std"):
            GenConfig(kp_noise_std=-0.1)
        for dropout in (-0.1, 1.5):
            with pytest.raises(ConfigError, match="kp_dropout"):
                GenConfig(kp_dropout=dropout)


def test_bone_table_matches_names():
    # each bone connects anatomically adjacent keypoints
    adjacency = {
        (1, 0), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7),
        (1, 8), (1, 9), (8, 10), (9, 11), (10, 12), (11, 13),
    }
    assert set(BONES) == adjacency
