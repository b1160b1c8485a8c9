import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milliflow import dataio
from milliflow.config import GenConfig, RunConfig
from milliflow.dataio import (
    INTENSITY_FLOOR,
    SAMPLE_SIZE,
    SPLIT_KEYS,
    Sample,
    Sequence,
    SplitManifest,
    load_sequence,
    make_clips,
    pair_samples,
    preprocess_indices,
    read_manifest,
    save_labels,
    save_sequence,
    write_json,
)
from milliflow.errors import (
    ConfigError,
    CorruptFile,
    EmptyFrame,
    LengthMismatch,
    TooFewSubjects,
    atomic_write,
)
from milliflow.labeling import FlowLabel
from milliflow.pipeline import dataset_split, sequence_partition
from milliflow.radar import RadarFrame
from milliflow.skeleton import ObservedKeypoints, SkeletonPose


def frame_with(points, intensities, index=0, prov=None):
    return RadarFrame(
        points=np.asarray(points, dtype=np.float64),
        intensities=np.asarray(intensities, dtype=np.float64),
        frame_index=index,
        timestamp=index / 10.0,
        prov_bone=None if prov is None else np.asarray(prov, dtype=np.int64),
    )


def toy_frame(index, n=200, seed=0):
    rng = np.random.default_rng(1000 * seed + index)
    pts = rng.uniform([-1.0, 1.0, -1.0], [1.0, 4.0, 1.0], size=(n, 3))
    inten = rng.uniform(0.6, 2.0, size=n)
    prov = rng.integers(-1, 13, size=n)
    return frame_with(pts, inten, index=index, prov=prov)


def toy_label(n, seed=0):
    rng = np.random.default_rng(seed)
    return FlowLabel(
        flows=rng.normal(scale=0.02, size=(n, 3)),
        valid_mask=rng.random(n) < 0.9,
        bone_assignment=rng.integers(-1, 13, size=n),
        segment_label=rng.integers(0, 6, size=n),
    )


def rows(n, width, first=0.0):
    """`n` stored rows of `width` numbers, the first starting with `first`."""
    return [[first] + [0.0] * (width - 1)] + [[0.0] * width for _ in range(n - 1)]


def toy_sequence(n_frames=6, n_points=150, with_labels=True, subject=3,
                 activity="ArmSwing", scene=1):
    rng = np.random.default_rng(subject)
    frames = [toy_frame(i, n=n_points, seed=subject) for i in range(n_frames)]
    poses = [SkeletonPose(rng.normal(size=(14, 3))) for _ in range(n_frames)]
    observed = [
        ObservedKeypoints(rng.normal(size=(14, 3)), rng.random(14))
        for _ in range(n_frames)
    ]
    labels = (
        [toy_label(n_points, seed=i) for i in range(n_frames - 1)]
        if with_labels
        else None
    )
    return Sequence(subject, activity, scene, frames, poses, observed, labels)


class TestPreprocess:
    def test_box_filter(self):
        f = frame_with(
            [[0.0, 2.0, 0.0], [0.0, 6.0, 0.0], [4.0, 2.0, 0.0], [0.0, 2.0, -2.0]],
            [1.0, 1.0, 1.0, 1.0],
        )
        out = f.subset(preprocess_indices(f, "test"))
        np.testing.assert_array_equal(out.points, [[0.0, 2.0, 0.0]])

    def test_intensity_gate_is_strict(self):
        f = frame_with(
            [[0.0, 2.0, 0.0], [0.1, 2.0, 0.0], [0.2, 2.0, 0.0]], [0.4, 0.5, 0.51]
        )
        out = f.subset(preprocess_indices(f, "test"))
        np.testing.assert_array_equal(out.points, [[0.2, 2.0, 0.0]])

    @given(survivors=st.integers(1, 300), dropped=st.integers(0, 40),
           mode=st.sampled_from(["train", "val", "test"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_never_draws_an_index_twice(self, survivors, dropped, mode, seed):
        # every toy point survives the gates, so `dropped` rows are gated out
        # by their intensity
        rng = np.random.default_rng(seed)
        f = toy_frame(0, n=survivors + dropped, seed=seed % 1000)
        gated = rng.choice(len(f), dropped, replace=False)
        intensities = f.intensities.copy()
        intensities[gated] = INTENSITY_FLOOR
        f = dataclasses.replace(f, intensities=intensities)
        kept = np.setdiff1d(np.arange(len(f)), gated)
        idx = preprocess_indices(f, mode, seed)
        assert np.all(np.diff(idx) > 0)  # sorted, and no index twice
        assert np.isin(idx, kept).all()
        if mode == "test" or survivors <= SAMPLE_SIZE:
            np.testing.assert_array_equal(idx, kept)
        else:
            assert len(idx) == SAMPLE_SIZE

    def test_train_subsamples_without_replacement(self):
        f = toy_frame(0, n=500)
        idx = preprocess_indices(f, "train", seed=7)
        assert len(idx) == 128
        assert len(np.unique(idx)) == 128

    def test_test_mode_keeps_all_survivors(self):
        f = toy_frame(0, n=300)
        out = f.subset(preprocess_indices(f, "test"))
        assert len(out.points) == 300  # toy points all survive

    def test_provenance_follows_resampling(self):
        f = toy_frame(0, n=30)
        idx = preprocess_indices(f, "train", seed=3)
        out = f.subset(idx)
        np.testing.assert_array_equal(out.prov_bone, f.prov_bone[idx])

    def test_empty_frame(self):
        f = frame_with([[0.0, 9.0, 0.0]], [1.0])
        with pytest.raises(EmptyFrame):
            preprocess_indices(f, "train")

    def test_deterministic(self):
        f = toy_frame(0, n=50)
        a = preprocess_indices(f, "train", seed=11)
        b = preprocess_indices(f, "train", seed=11)
        np.testing.assert_array_equal(a, b)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            preprocess_indices(toy_frame(0), "production")


class TestSamplesAndClips:
    def test_pair_count_and_label_length(self):
        # every toy point survives the gates, and a frame of fewer than
        # SAMPLE_SIZE survivors keeps each of them once
        seq = toy_sequence(n_frames=8, n_points=60)
        samples = pair_samples(seq, "train", seed=0)
        assert len(samples) == 7
        for s in samples:
            assert len(s.label) == len(s.source.points) == 60
            assert s.target.frame_index == s.source.frame_index + 1

    def test_shared_frame_resamples_identically(self):
        # pair i's target and pair i+1's source are the same physical frame
        seq = toy_sequence(n_frames=4)
        samples = pair_samples(seq, "train", seed=5)
        for a, b in zip(samples, samples[1:]):
            np.testing.assert_array_equal(a.target.points, b.source.points)

    def test_unlabeled_sequence_rejected(self):
        seq = toy_sequence(with_labels=False)
        with pytest.raises(ConfigError):
            pair_samples(seq, "train")

    def test_199_samples_make_39_clips(self):
        seq = toy_sequence(n_frames=200, n_points=40)
        clips = make_clips(pair_samples(seq, "train", seed=0))
        assert len(clips) == 39
        assert all(len(c) == 5 for c in clips)
        assert [s.clip_position for s in clips[0]] == [0, 1, 2, 3, 4]

    def test_five_samples_one_clip(self):
        seq = toy_sequence(n_frames=6)
        clips = make_clips(pair_samples(seq, "train"))
        assert len(clips) == 1

    def test_four_samples_no_clips_warns(self, caplog):
        seq = toy_sequence(n_frames=5)
        with caplog.at_level("WARNING"):
            clips = make_clips(pair_samples(seq, "train"))
        assert clips == []
        assert any("no clips" in r.message for r in caplog.records)

    def test_clips_never_span_gaps(self):
        seq = toy_sequence(n_frames=12)
        samples = pair_samples(seq, "train")
        gappy = samples[:5] + samples[6:]  # drop one sample mid-sequence
        clips = make_clips(gappy)
        for clip in clips:
            indices = [s.source.frame_index for s in clip]
            assert indices == list(range(indices[0], indices[0] + 5))


def split_cfg(n_subjects, seed=0, in_set=("ArmSwing",), out_of_set=()):
    return RunConfig(seed=seed, gen=GenConfig(n_subjects=n_subjects, n_scenes=1,
                                              in_set=in_set, out_of_set=out_of_set))


class TestSplit:
    def test_twelve_subjects(self):
        m = dataset_split(split_cfg(12))
        assert len(m.train_subjects) == 6
        assert len(m.val_subjects) == 2
        assert len(m.test_subjects) == 4

    def test_six_subjects(self):
        m = dataset_split(split_cfg(6))
        assert (len(m.train_subjects), len(m.val_subjects), len(m.test_subjects)) == (
            3, 1, 2,
        )

    def test_disjoint_and_complete(self):
        m = dataset_split(split_cfg(9, seed=3))
        groups = [set(m.train_subjects), set(m.val_subjects), set(m.test_subjects)]
        assert sum(len(g) for g in groups) == 9
        assert set.union(*groups) == set(range(9))

    def test_deterministic_and_seed_sensitive(self):
        m = dataset_split(split_cfg(12, seed=4))
        assert m == dataset_split(split_cfg(12, seed=4))
        assert any(m != dataset_split(split_cfg(12, seed=s)) for s in range(5, 15))

    def test_seeded_split_is_stable(self):
        m = dataset_split(split_cfg(12, seed=0))
        assert m.train_subjects == (2, 4, 5, 7, 9, 11)
        assert m.val_subjects == (0, 3)
        assert m.test_subjects == (1, 6, 8, 10)

    def test_too_few_subjects(self):
        with pytest.raises(TooFewSubjects):
            dataset_split(split_cfg(5))

    def test_out_of_set_listed_regardless_of_subject(self):
        m = dataset_split(split_cfg(6, out_of_set=("Sitting", "HeadBobbing")))
        assert len(m.out_of_set_sequences) == 12  # 6 subjects x 2 out-of-set
        assert all(
            ("Sitting" in sid) or ("HeadBobbing" in sid)
            for sid in m.out_of_set_sequences
        )

    def test_out_of_set_read_from_config(self):
        # Bowing is in set by default and Sitting out of set: the config's
        # lists decide, and every Bowing sequence is scored as a test sequence
        cfg = split_cfg(6, in_set=("ArmSwing", "Sitting"), out_of_set=("Bowing",))
        m = dataset_split(cfg)
        assert m.out_of_set_sequences == tuple(f"{s:03d}_Bowing_00" for s in range(6))
        for s in range(6):
            assert sequence_partition(m, f"{s:03d}_Bowing_00", s) == "test"
            assert sequence_partition(m, f"{s:03d}_Sitting_00", s) == m.partition_of(s)
        assert {m.partition_of(s) for s in range(6)} == {"train", "val", "test"}

    def test_partition_lookup(self):
        m = dataset_split(split_cfg(6))
        for s in range(6):
            assert m.partition_of(s) in ("train", "val", "test")
        with pytest.raises(ConfigError):
            m.partition_of(99)


def assert_sequences_equal(a: Sequence, b: Sequence):
    assert (a.subject_id, a.activity_id, a.scene_id) == (
        b.subject_id, b.activity_id, b.scene_id,
    )
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.points, fb.points)
        np.testing.assert_array_equal(fa.intensities, fb.intensities)
        assert fa.frame_index == fb.frame_index
        assert fa.timestamp == fb.timestamp
        if fa.prov_bone is None:
            assert fb.prov_bone is None
        else:
            np.testing.assert_array_equal(fa.prov_bone, fb.prov_bone)
    for pa, pb in zip(a.poses, b.poses):
        np.testing.assert_array_equal(pa.keypoints, pb.keypoints)
    for oa, ob in zip(a.observed_kps, b.observed_kps):
        np.testing.assert_array_equal(oa.positions, ob.positions)
        np.testing.assert_array_equal(oa.confidences, ob.confidences)
    if a.labels is None:
        assert b.labels is None
    else:
        for la, lb in zip(a.labels, b.labels):
            np.testing.assert_array_equal(la.flows, lb.flows)
            np.testing.assert_array_equal(la.valid_mask, lb.valid_mask)
            np.testing.assert_array_equal(la.bone_assignment, lb.bone_assignment)
            np.testing.assert_array_equal(la.segment_label, lb.segment_label)


class TestSerialization:
    def test_json_round_trip_bit_exact(self, tmp_path):
        seq = toy_sequence(n_frames=4, n_points=25)
        save_sequence(tmp_path, seq)
        assert (tmp_path / f"seq_{seq.seq_id}" / "frames.jsonl").exists()
        assert_sequences_equal(load_sequence(tmp_path, seq.seq_id), seq)

    def test_unlabeled_round_trip(self, tmp_path):
        seq = toy_sequence(n_frames=3, n_points=10, with_labels=False)
        save_sequence(tmp_path, seq)
        assert load_sequence(tmp_path, seq.seq_id).labels is None

    def test_extreme_floats_survive_json(self, tmp_path):
        seq = toy_sequence(n_frames=2, n_points=4)
        seq.frames[0].points[0, 0] = np.nextafter(1.0, 2.0)
        seq.frames[0].points[1, 1] = 1e-308
        seq.frames[0].intensities[2] = 0.1 + 0.2  # classic non-representable sum
        save_sequence(tmp_path, seq)
        assert_sequences_equal(load_sequence(tmp_path, seq.seq_id), seq)

    def test_missing_sequence(self, tmp_path):
        with pytest.raises(ConfigError):
            load_sequence(tmp_path, "000_ArmSwing_00")

    def test_manifest_round_trip(self, tmp_path):
        manifest = dataset_split(split_cfg(6, seed=2))
        data = {"split": manifest.as_dict(), "seed": 2, "config": {"frames": 200},
                "sequences": []}
        write_json(tmp_path / "manifest.json", data)
        back = read_manifest(tmp_path)
        assert back == data
        assert tuple(SPLIT_KEYS) == tuple(data["split"])  # every part is checked
        assert SplitManifest.from_dict(back["split"]) == manifest

    @pytest.mark.parametrize("drop", [
        "whole", "config", "split", "sequences", "split.val_subjects",
        "sequence.subject_id", "config-not-object", "sequences-not-list",
        "sequence.id-not-string", "split.train_subjects-not-int-list",
        "sequence.subject_id-bool", "sequence.n_frames-bool", "split.train_subjects-bool",
    ])
    def test_manifest_lacking_a_key_is_corrupt_file(self, tmp_path, drop):
        data = {"config": {},
                "split": dataset_split(split_cfg(6)).as_dict(),
                "sequences": [{"id": "003_ArmSwing_01", "subject_id": 3, "n_frames": 3}]}
        if drop == "whole":
            data = {}
        elif drop == "split.val_subjects":
            del data["split"]["val_subjects"]
        elif drop == "sequence.subject_id":
            del data["sequences"][0]["subject_id"]
        elif drop == "config-not-object":
            data["config"] = [1]
        elif drop == "sequences-not-list":
            data["sequences"] = {"id": "x"}
        elif drop == "sequence.id-not-string":
            data["sequences"][0]["id"] = 3
        elif drop == "split.train_subjects-not-int-list":
            data["split"]["train_subjects"] = 3
        elif drop == "sequence.subject_id-bool":
            data["sequences"][0]["subject_id"] = True
        elif drop == "sequence.n_frames-bool":
            data["sequences"][0]["n_frames"] = True
        elif drop == "split.train_subjects-bool":
            data["split"]["train_subjects"] = [True]
        else:
            del data[drop]
        write_json(tmp_path / "manifest.json", data)
        with pytest.raises(CorruptFile, match="not a dataset manifest"):
            read_manifest(tmp_path)

    def test_manifest_nested_too_deep_is_corrupt_file(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b"[" * 5000 + b"]" * 5000)
        with pytest.raises(CorruptFile, match="not a whole JSON document"):
            read_manifest(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no dataset manifest"):
            read_manifest(tmp_path)

    @pytest.mark.parametrize("name", ["frames.jsonl", "labels.jsonl"])
    def test_every_text_truncation_is_corrupt_file(self, tmp_path, name):
        seq = toy_sequence(n_frames=3, n_points=2)
        seq.frames[1] = dataclasses.replace(seq.frames[1], prov_bone=None)
        path = save_sequence(tmp_path, seq) / name
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(CorruptFile):
                load_sequence(tmp_path, seq.seq_id)
        path.write_bytes(whole)
        assert_sequences_equal(load_sequence(tmp_path, seq.seq_id), seq)

    def test_every_bit_flip_loads_consistently_or_is_corrupt_file(self, tmp_path):
        # bit 1 turns "," into ".", which merges two integers of an array
        seq = toy_sequence(n_frames=3, n_points=2)
        out = save_sequence(tmp_path, seq)
        labels = (out / "labels.jsonl").read_bytes()
        frames = (out / "frames.jsonl").read_bytes()
        flips = [("labels.jsonl", labels, i) for i in range(len(labels))]
        flips += [("frames.jsonl", frames, i) for i, c in enumerate(frames) if c == ord(b",")]
        for name, whole, i in flips:
            flipped = bytearray(whole)
            flipped[i] ^= 0b10
            (out / name).write_bytes(flipped)
            try:
                back = load_sequence(tmp_path, seq.seq_id)
            except CorruptFile:
                continue
            finally:
                (out / name).write_bytes(whole)
            for frame, label in zip(back.frames, back.labels):
                n = len(frame)
                assert frame.intensities.shape == frame.prov_bone.shape == (n,)
                assert label.flows.shape == (n, 3)
                assert (label.valid_mask.shape == label.bone_assignment.shape
                        == label.segment_label.shape == (n,))

    def test_label_rows_differing_from_source_points_is_corrupt_file(self, tmp_path):
        seq = toy_sequence(n_frames=3, n_points=4)
        save_sequence(tmp_path, seq)
        save_labels(tmp_path, seq.seq_id, [toy_label(4), toy_label(5)])
        with pytest.raises(CorruptFile, match="label 1 has 5 rows for 4 points"):
            load_sequence(tmp_path, seq.seq_id)

    def test_every_manifest_truncation_is_corrupt_file(self, tmp_path):
        data = {"config": {},
                "split": dataset_split(split_cfg(6)).as_dict(),
                "sequences": [{"id": "003_ArmSwing_01", "subject_id": 3, "n_frames": 3}]}
        path = write_json(tmp_path / "manifest.json", data)
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            if whole[:cut].strip() == whole.strip():  # only the final newline cut
                assert read_manifest(tmp_path) == data
                continue
            with pytest.raises(CorruptFile):
                read_manifest(tmp_path)

    def test_malformed_record_is_corrupt_file(self, tmp_path):
        seq = toy_sequence(n_frames=2, n_points=3)
        path = save_sequence(tmp_path, seq) / "labels.jsonl"
        path.write_text('{"flows": [[0.0, 0.0, 0.0]]}\n')
        with pytest.raises(CorruptFile):
            load_sequence(tmp_path, seq.seq_id)
        # a frame or a label line nested deeper than the parser follows
        deep = b"[" * 5000 + b"]" * 5000 + b"\n"
        for name in ("frames.jsonl", "labels.jsonl"):
            path = save_sequence(tmp_path, seq) / name
            path.write_bytes(deep + path.read_bytes())
            with pytest.raises(CorruptFile, match="malformed record"):
                load_sequence(tmp_path, seq.seq_id)

    @pytest.mark.parametrize("name, key, value", [
        ("frames.jsonl", "bone_prov", 13), ("frames.jsonl", "bone_prov", -2),
        ("labels.jsonl", "bone", 13), ("labels.jsonl", "bone", -2),
        ("labels.jsonl", "segment", 6), ("labels.jsonl", "segment", -1),
        # an integer that no int64 holds
        ("frames.jsonl", "bone_prov", 10**30), ("labels.jsonl", "bone", -10**30),
    ])
    def test_index_out_of_range_is_corrupt_file(self, tmp_path, name, key, value):
        seq = toy_sequence(n_frames=2, n_points=3)
        path = save_sequence(tmp_path, seq) / name
        first, rest = path.read_text().split("\n", 1)
        rec = json.loads(first)
        rec[key][0] = value
        path.write_text(json.dumps(rec) + "\n" + rest)
        with pytest.raises(CorruptFile, match=f"{key} holds a value outside"):
            load_sequence(tmp_path, seq.seq_id)

    @pytest.mark.parametrize("name, key, literal", [
        ("frames.jsonl", "points", "NaN"), ("frames.jsonl", "keypoints", "Infinity"),
        ("frames.jsonl", "pose_gt", "-Infinity"), ("frames.jsonl", "timestamp", "NaN"),
        ("labels.jsonl", "flows", "NaN"), ("labels.jsonl", "flows", "Infinity"),
        # an integer that no float holds
        ("frames.jsonl", "points", "1" + "0" * 400), ("frames.jsonl", "timestamp", "9" * 400),
    ])
    def test_non_finite_number_is_corrupt_file(self, tmp_path, name, key, literal):
        # Python's json reads NaN and Infinity
        seq = toy_sequence(n_frames=2, n_points=3)
        path = save_sequence(tmp_path, seq) / name
        first, rest = path.read_text().split("\n", 1)
        rec = json.loads(first)
        if key == "timestamp":
            rec[key] = "@"
        else:
            rec[key][0][0] = "@"
        path.write_text(json.dumps(rec).replace('"@"', literal) + "\n" + rest)
        with pytest.raises(CorruptFile, match=f"{path}: malformed record: {key} holds a "
                                              f"value that is not finite"):
            load_sequence(tmp_path, seq.seq_id)

    @pytest.mark.parametrize("key, value, kind", [
        ("frame_index", 2.7, "an integer"), ("frame_index", "3", "an integer"),
        ("frame_index", True, "an integer"), ("timestamp", "0.5", "a number"),
        ("timestamp", True, "a number"), ("bone_prov", [2.7, True, 0], "an integer"),
        ("bone_prov", ["3", 1, 0], "an integer"),
        ("points", rows(3, 4, "0.25"), "a number"), ("points", rows(3, 4, True), "a number"),
        ("keypoints", rows(14, 4, "0.25"), "a number"),
        ("keypoints", rows(14, 4, True), "a number"),
        ("pose_gt", rows(14, 3, "0.25"), "a number"), ("pose_gt", rows(14, 3, True), "a number"),
        # rows flattened into one list, rows of another width, a keypoint short
        ("points", [0.0] * 12, "a list"), ("keypoints", [0.0] * 56, "a list"),
        ("pose_gt", [0.0] * 42, "a list"),
        ("points", rows(12, 5), "4 numbers"), ("keypoints", rows(14, 5), "4 numbers"),
        ("pose_gt", rows(14, 5), "3 numbers"), ("keypoints", rows(13, 4), "14"),
    ])
    def test_frame_record_of_another_kind_is_corrupt_file(self, tmp_path, key, value, kind):
        # clips are cut at gaps in frame_index: a record must not be read as
        # another frame than it names
        seq = toy_sequence(n_frames=2, n_points=3)
        path = save_sequence(tmp_path, seq) / "frames.jsonl"
        first, rest = path.read_text().split("\n", 1)
        rec = json.loads(first)
        rec[key] = value
        path.write_text(json.dumps(rec) + "\n" + rest)
        with pytest.raises(CorruptFile, match=f"{key} .*not {kind}"):
            load_sequence(tmp_path, seq.seq_id)

    @pytest.mark.parametrize("key, value, kind", [
        ("valid", [7, "x", True], "a boolean"), ("valid", [1, 0, 1], "a boolean"),
        ("bone", [2.7, 1, 0], "an integer"), ("bone", ["3", 1, 0], "an integer"),
        ("segment", [1.9, 0, 0], "an integer"), ("segment", [True, 0, 0], "an integer"),
        ("flows", rows(3, 3, "0.25"), "a number"), ("flows", rows(3, 3, True), "a number"),
        ("flows", [0.0] * 9, "a list"), ("flows", rows(3, 5), "3 numbers"),
    ])
    def test_label_record_of_another_kind_is_corrupt_file(self, tmp_path, key, value, kind):
        # numpy would coerce each of these: 2.7 to 2, "3" to 3, 7 and "x" to True
        seq = toy_sequence(n_frames=2, n_points=3)
        path = save_sequence(tmp_path, seq) / "labels.jsonl"
        first, rest = path.read_text().split("\n", 1)
        rec = json.loads(first)
        rec[key] = value
        path.write_text(json.dumps(rec) + "\n" + rest)
        with pytest.raises(CorruptFile, match=f"{key} .*not {kind}"):
            load_sequence(tmp_path, seq.seq_id)

    def test_sequence_length_validation(self):
        with pytest.raises(LengthMismatch):
            Sequence(0, "ArmSwing", 0, [toy_frame(0)], [], [])
        frames = [toy_frame(i, n=5) for i in range(3)]
        poses = [SkeletonPose(np.zeros((14, 3))) for _ in range(3)]
        obs = [ObservedKeypoints(np.zeros((14, 3)), np.ones(14)) for _ in range(3)]
        with pytest.raises(LengthMismatch):
            Sequence(0, "ArmSwing", 0, frames, poses, obs, labels=[toy_label(5)])
        with pytest.raises(LengthMismatch):
            Sequence(0, "ArmSwing", 0, frames, poses, obs,
                     labels=[toy_label(5), toy_label(4)])


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as f:
                f.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_label_write_keeps_previous_labels(self, tmp_path, monkeypatch):
        seq = toy_sequence(n_frames=4, n_points=5)
        out = save_sequence(tmp_path, seq)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []

        def failing_record(label):
            calls.append(label)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return record(label)

        record = dataio._label_record
        monkeypatch.setattr(dataio, "_label_record", failing_record)
        with pytest.raises(RuntimeError):
            save_labels(tmp_path, seq.seq_id, [toy_label(5, seed=9)] * 3)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_manifest_write_keeps_previous_manifest(self, tmp_path):
        write_json(tmp_path / "manifest.json", {"a": 1})
        before = (tmp_path / "manifest.json").read_bytes()
        with pytest.raises(TypeError):  # json.dumps fails before the file is opened
            write_json(tmp_path / "manifest.json", {"a": 2, "z": object()})
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
