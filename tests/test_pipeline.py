import dataclasses
import json

import numpy as np
import pytest

from milliflow import pipeline
from milliflow.config import GenConfig, RunConfig
from milliflow.dataio import SplitManifest, load_sequence, preprocess_indices, read_manifest
from milliflow.errors import ConfigError, TooFewSubjects
from milliflow.labeling import ground_truth_flow, label_frame_pair
from milliflow.radar import RadarConfig
from milliflow.skeleton import make_subject


def tiny_cfg(**gen_kw):
    defaults = dict(
        n_subjects=3,
        n_scenes=1,
        frames_per_sequence=6,
        in_set=("ArmSwing",),
        out_of_set=("Sitting",),
    )
    defaults.update(gen_kw)
    return RunConfig(
        gen=GenConfig(**defaults),
        explicit_split={"train": [0], "val": [1], "test": [2]},
    )


class TestSceneSpec:
    def test_deterministic(self):
        cfg = tiny_cfg()
        a = pipeline.scene_spec(cfg, 0, "ArmSwing", 0)
        b = pipeline.scene_spec(cfg, 0, "ArmSwing", 0)
        assert a == b

    def test_within_configured_ranges(self):
        cfg = tiny_cfg()
        for scene in range(5):
            spec = pipeline.scene_spec(cfg, 1, "Sitting", scene)
            lo, hi = cfg.gen.amplitude_range
            assert lo <= spec.amplitude <= hi
            lo, hi = cfg.gen.period_range
            assert lo <= spec.period <= hi
            lo, hi = cfg.gen.distance_range
            assert lo <= spec.subject_distance <= hi

    def test_scenes_differ(self):
        cfg = tiny_cfg()
        a = pipeline.scene_spec(cfg, 0, "ArmSwing", 0)
        b = pipeline.scene_spec(cfg, 0, "ArmSwing", 1)
        assert a != b

    def test_unknown_activity(self):
        with pytest.raises(ConfigError):
            pipeline.scene_spec(tiny_cfg(), 0, "Moonwalk", 0)


class TestGenerateSequence:
    def test_shape_and_indexing(self):
        cfg = tiny_cfg()
        seq = pipeline.generate_sequence(cfg, 0, "ArmSwing", 0)
        n = cfg.gen.frames_per_sequence
        assert len(seq.frames) == n
        assert len(seq.poses) == n
        assert len(seq.observed_kps) == n
        assert seq.labels is None
        assert [f.frame_index for f in seq.frames] == list(range(n))
        rate = cfg.gen.frame_rate
        for t, frame in enumerate(seq.frames):
            assert frame.timestamp == pytest.approx(t / rate)

    def test_provenance_present(self):
        seq = pipeline.generate_sequence(tiny_cfg(), 0, "ArmSwing", 0)
        for frame in seq.frames:
            assert frame.prov_bone is not None
            assert len(frame.prov_bone) == len(frame)

    def test_frames_survive_preprocessing(self):
        # every generated frame must keep a usable cloud after the box and
        # intensity gates, else training samples degenerate
        seq = pipeline.generate_sequence(tiny_cfg(), 1, "Sitting", 0)
        for frame in seq.frames:
            assert len(preprocess_indices(frame, "test")) >= 10

    def test_deterministic(self):
        cfg = tiny_cfg(frames_per_sequence=4)
        a = pipeline.generate_sequence(cfg, 2, "ArmSwing", 0)
        b = pipeline.generate_sequence(cfg, 2, "ArmSwing", 0)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.points, fb.points)
            np.testing.assert_array_equal(fa.intensities, fb.intensities)
            np.testing.assert_array_equal(fa.prov_bone, fb.prov_bone)
        for ka, kb in zip(a.observed_kps, b.observed_kps):
            np.testing.assert_array_equal(ka.positions, kb.positions)

    def test_scenes_produce_different_clouds(self):
        cfg = tiny_cfg(n_scenes=2, frames_per_sequence=4)
        a = pipeline.generate_sequence(cfg, 0, "ArmSwing", 0)
        b = pipeline.generate_sequence(cfg, 0, "ArmSwing", 1)
        assert a.frames[0].points.shape != b.frames[0].points.shape or not np.array_equal(
            a.frames[0].points, b.frames[0].points
        )


class TestLabelSequence:
    def test_test_partition_matches_ground_truth(self):
        cfg = tiny_cfg(frames_per_sequence=4)
        seq = pipeline.generate_sequence(cfg, 2, "ArmSwing", 0)
        labels = pipeline.label_sequence(seq, "test")
        assert len(labels) == seq.n_samples
        model = make_subject(2)
        expected = ground_truth_flow(seq.frames[0], seq.poses[0], seq.poses[1], model)
        np.testing.assert_array_equal(labels[0].flows, expected.flows)
        np.testing.assert_array_equal(labels[0].valid_mask, expected.valid_mask)

    def test_train_partition_matches_pseudo_labels(self):
        cfg = tiny_cfg(frames_per_sequence=4)
        seq = pipeline.generate_sequence(cfg, 0, "ArmSwing", 0)
        labels = pipeline.label_sequence(seq, "train")
        expected = label_frame_pair(
            seq.frames[0], seq.observed_kps[0], seq.observed_kps[1]
        )
        np.testing.assert_array_equal(labels[0].flows, expected.flows)
        np.testing.assert_array_equal(labels[0].bone_assignment, expected.bone_assignment)

    def test_frames_without_visible_reflectors_get_exact_labels(self):
        # no reflector faces the sensor: every detection is receiver noise,
        # so it carries provenance -1 and an exact label that is masked out
        cfg = dataclasses.replace(
            tiny_cfg(frames_per_sequence=4),
            radar=RadarConfig(visibility_half_angle=0.0))
        seq = pipeline.generate_sequence(cfg, 0, "ArmSwing", 0)
        assert sum(len(frame) for frame in seq.frames) > 0
        for frame in seq.frames:
            np.testing.assert_array_equal(frame.prov_bone, np.full(len(frame), -1))
        labels = pipeline.label_sequence(seq, "test")
        assert len(labels) == seq.n_samples
        for label in labels:
            assert not label.valid_mask.any()
            assert np.all(np.isfinite(label.flows))


class TestDatasetLayout:
    def test_sequence_specs(self):
        cfg = tiny_cfg(n_scenes=2)
        specs = pipeline.dataset_sequence_specs(cfg)
        in_set = [s for s in specs if s[1] == "ArmSwing"]
        out = [s for s in specs if s[1] == "Sitting"]
        assert len(in_set) == 3 * 2  # subjects x scenes
        assert len(out) == 3  # out-of-set stays in scene 0
        assert all(s[2] == 0 for s in out)

    def test_explicit_split_respected(self):
        manifest = pipeline.dataset_split(tiny_cfg())
        assert manifest.train_subjects == (0,)
        assert manifest.val_subjects == (1,)
        assert manifest.test_subjects == (2,)
        assert all("Sitting" in sid for sid in manifest.out_of_set_sequences)

    def test_explicit_split_must_cover_subjects(self):
        cfg = tiny_cfg()
        with pytest.raises(ConfigError):
            RunConfig(gen=cfg.gen, explicit_split={"train": [0], "val": [1], "test": [5]})

    def test_out_of_set_sequence_partition_is_test(self):
        manifest = pipeline.dataset_split(tiny_cfg())
        sid = manifest.out_of_set_sequences[0]
        assert pipeline.sequence_partition(manifest, sid, subject_id=0) == "test"
        assert pipeline.sequence_partition(manifest, "000_ArmSwing_00", 0) == "train"


class TestGenerateDataset:
    def test_end_to_end(self, tmp_path):
        cfg = tiny_cfg(frames_per_sequence=4)
        manifest = pipeline.generate_dataset(cfg, tmp_path)
        assert manifest["seed"] == cfg.seed
        assert manifest["config"]["gen"]["frames_per_sequence"] == 4
        assert len(manifest["sequences"]) == 3 + 3
        on_disk = read_manifest(tmp_path)
        assert on_disk == json.loads(json.dumps(manifest))
        for meta in manifest["sequences"]:
            seq = load_sequence(tmp_path, meta["id"])
            assert len(seq.frames) == meta["n_frames"]

        summary = pipeline.label_dataset(tmp_path)
        assert summary["n_sequences"] == 6
        assert 0.0 < summary["valid_ratio"] <= 1.0

        split = SplitManifest.from_dict(manifest["split"])
        test_seq = load_sequence(tmp_path, "002_ArmSwing_00")
        expected = pipeline.label_sequence(test_seq, "test")
        np.testing.assert_array_equal(test_seq.labels[0].flows, expected[0].flows)
        train_seq = load_sequence(tmp_path, "000_ArmSwing_00")
        expected = pipeline.label_sequence(train_seq, "train")
        np.testing.assert_array_equal(train_seq.labels[0].flows, expected[0].flows)
        # out-of-set sequence of a train subject still gets exact labels
        oos = load_sequence(tmp_path, "000_Sitting_00")
        expected = pipeline.label_sequence(oos, "test")
        np.testing.assert_array_equal(oos.labels[0].flows, expected[0].flows)

        val_only = pipeline.load_labeled_sequences(tmp_path, "val")
        assert {s.subject_id for s in val_only} == {1}

    def test_reruns_byte_identical(self, tmp_path):
        cfg = tiny_cfg(frames_per_sequence=3)
        pipeline.generate_dataset(cfg, tmp_path / "a")
        pipeline.generate_dataset(cfg, tmp_path / "b")
        rel = "seq_001_ArmSwing_00/frames.jsonl"
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tiny_cfg(frames_per_sequence=3)
        pipeline.generate_dataset(cfg, tmp_path / "s", workers=1)
        pipeline.generate_dataset(cfg, tmp_path / "p", workers=2)
        rel = "seq_000_Sitting_00/frames.jsonl"
        assert (tmp_path / "s" / rel).read_bytes() == (tmp_path / "p" / rel).read_bytes()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected_before_writing(self, tmp_path, workers):
        with pytest.raises(ConfigError, match="worker"):
            pipeline.generate_dataset(tiny_cfg(), tmp_path / "ds", workers=workers)
        assert not (tmp_path / "ds").exists()

    def test_too_few_subjects_rejected_before_writing(self, tmp_path):
        cfg = RunConfig(gen=tiny_cfg().gen)  # 3 subjects, no explicit split
        with pytest.raises(TooFewSubjects):
            pipeline.generate_dataset(cfg, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()
