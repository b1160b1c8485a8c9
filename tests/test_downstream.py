import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MISFITS, assert_same_params, check_param_grads, flip_header_bits, jitter_params, misfit,
    no_draws, param_signature, reflector_motion,
)

from milliflow import autodiff as ad
from milliflow.autodiff import Tensor
from milliflow.config import NetConfig, TrainConfig
from milliflow.dataio import Sequence, pair_samples
from milliflow.downstream import (
    TASK_NETS,
    TRACK_TARGETS,
    DecoratedClip,
    HarNet,
    HpNet,
    TaskClip,
    TaskConfig,
    TrackState,
    balanced_cross_entropy,
    bone_endpoints,
    clip_loss,
    confusion_matrix_csv,
    cross_entropy,
    decorate_clip,
    evaluate,
    evaluate_tracking,
    load_task_model,
    mje_table_csv,
    predict,
    strategy_feature_dim,
    task_clips,
    track_clip,
    track_step,
    train_task_model,
)
from milliflow.errors import (
    ConfigError,
    CorruptFile,
    DegenerateInput,
    EmptyFrame,
    EmptyInput,
    LengthMismatch,
    MissingFlowModel,
    NoValidPoints,
    ShapeMismatch,
    TaskMismatch,
)
from milliflow.flownet import FlowNet
from milliflow.labeling import N_SEGMENTS, FlowLabel, ground_truth_flow
from milliflow.layers import load_checkpoint, save_checkpoint
from milliflow.radar import RadarFrame, place_reflectors
from milliflow.skeleton import BONES, IN_SET_ACTIVITIES, ObservedKeypoints, SkeletonPose


def tiny_task(**kw):
    defaults = dict(
        sa_radii=(0.5, 1.0),
        sa_samples=(2, 3),
        sa_mlp=(8, 8),
        post_sa_mlp=(8, 8),
        attention_hidden=4,
        fps_centroids=4,
        stage2_radius=1.0,
        stage2_samples=4,
        stage2_mlp=(8, 8),
        lstm_hidden=6,
        gru_hidden=6,
        classifier=(8,),
        window=3,
    )
    defaults.update(kw)
    return TaskConfig(**defaults)


def tiny_flow(**kw):
    defaults = dict(
        sa_radii=(0.5, 1.0),
        sa_samples=(2, 3),
        sa_mlp=(8, 8),
        post_sa_mlp=(8, 8),
        attention_hidden=4,
        cv_k=2,
        cv_dcost=6,
        embed_mlp=(8, 6),
        gru_hidden=12,
        regressor=(8, 3),
    )
    defaults.update(kw)
    return NetConfig(**defaults)


def make_frame(n, seed=0, scale=0.4, offset=(0.0, 3.0, 0.0), index=0):
    rng = np.random.default_rng(seed)
    return RadarFrame(
        points=rng.uniform(-scale, scale, (n, 3)) + np.asarray(offset),
        intensities=rng.uniform(0.6, 3.0, n),
        frame_index=index,
        timestamp=index / 13.2,
    )


def make_label(n, seed=0, segment=None, valid=None):
    rng = np.random.default_rng(seed)
    segments = (np.full(n, segment, dtype=np.int64) if segment is not None
                else rng.integers(0, 6, n).astype(np.int64))
    return FlowLabel(
        flows=rng.normal(0.0, 0.05, (n, 3)),
        valid_mask=np.ones(n, bool) if valid is None else np.asarray(valid, bool),
        bone_assignment=np.zeros(n, dtype=np.int64),
        segment_label=segments,
    )


def make_clip(window=3, n=10, seed=0, activity=0):
    frames = [make_frame(n, seed + t, index=t) for t in range(window)]
    labels = [make_label(n, seed + 100 + t) for t in range(window - 1)] + [None]
    return TaskClip(frames, labels, activity)


def toy_sequence(n_frames=8, n=30, activity="ArmSwing", seed=0):
    frames = [make_frame(n, seed + i, index=i) for i in range(n_frames)]
    kp = np.tile(np.array([0.0, 3.0, 0.0]), (14, 1))
    poses = [SkeletonPose(kp.copy()) for _ in range(n_frames)]
    obs = [ObservedKeypoints(kp.copy(), np.ones(14)) for _ in range(n_frames)]
    labels = [make_label(n, seed + 200 + i) for i in range(n_frames - 1)]
    return Sequence(0, activity, 0, frames, poses, obs, labels)


class TestTaskConfig:
    def test_defaults_valid(self):
        cfg = TaskConfig()
        assert cfg.window == 20
        assert cfg.lstm_hidden == 128
        assert cfg.fps_centroids == 32

    @pytest.mark.parametrize("kw", [
        dict(sa_radii=(0.1,), sa_samples=(2, 3)),
        dict(window=1),
        dict(fps_centroids=0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            tiny_task(**kw)


class TestTaskClips:
    def test_windows_and_classes(self):
        seqs = [toy_sequence(n_frames=8, activity="ArmSwing"),
                toy_sequence(n_frames=8, activity="Bowing", seed=50)]
        clips = task_clips(seqs, tiny_task(window=3), "test", catalogue=IN_SET_ACTIVITIES)
        assert len(clips) == 4  # two full windows of 3 from each 8-frame sequence
        assert {IN_SET_ACTIVITIES[c.activity] for c in clips} == {"ArmSwing", "Bowing"}
        for clip in clips:
            assert len(clip.frames) == 3
            assert clip.labels[-1] is None
            assert all(lab is not None for lab in clip.labels[:-1])

    def test_activity_index_follows_catalogue(self):
        seqs = [toy_sequence(activity="Bowing")]
        clips = task_clips(seqs, tiny_task(), "test",
                           catalogue=("ArmSwing", "Bowing"))
        assert all(c.activity == 1 for c in clips)

    def test_out_of_catalogue_skipped(self):
        seqs = [toy_sequence(activity="Sitting")]
        assert task_clips(seqs, tiny_task(), "test", catalogue=IN_SET_ACTIVITIES) == []

    def test_unlabeled_sequence_rejected(self):
        seq = toy_sequence()
        seq.labels = None
        with pytest.raises(ConfigError):
            task_clips([seq], tiny_task(), "test", catalogue=IN_SET_ACTIVITIES)

    def test_frames_match_flow_samples(self):
        # the windows must see the same resampled points as the flow pipeline
        seq = toy_sequence(n_frames=6)
        clips = task_clips([seq], tiny_task(window=6), "train",
                           catalogue=IN_SET_ACTIVITIES, seed=7)
        samples = pair_samples(seq, "train", seed=7)
        for t, sample in enumerate(samples):
            np.testing.assert_array_equal(clips[0].frames[t].points,
                                          sample.source.points)
            np.testing.assert_array_equal(clips[0].labels[t].flows,
                                          sample.label.flows)


class TestStrategyFeatures:
    def test_dims(self):
        flow = FlowNet(tiny_flow(), seed=0)
        assert strategy_feature_dim("raw", None) == 1
        assert strategy_feature_dim("s1", flow) == 4
        assert strategy_feature_dim("s2", flow) == 1 + flow.final_dim

    def test_missing_model(self):
        for strategy in ("s1", "s2"):
            with pytest.raises(MissingFlowModel):
                strategy_feature_dim(strategy, None)
            with pytest.raises(MissingFlowModel):
                decorate_clip(make_clip().frames, strategy, None)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            strategy_feature_dim("oracle", None)
        with pytest.raises(ConfigError):
            decorate_clip(make_clip().frames, "oracle", None)

    def test_raw_is_intensity_column(self):
        clip = make_clip()
        dec = decorate_clip(clip.frames, "raw", None)
        for frame, feats in zip(clip.frames, dec.feats):
            np.testing.assert_allclose(feats.data[:, 0], frame.intensities,
                                       rtol=1e-6)
            assert feats.shape == (len(frame), 1)

    def test_s1_final_frame_has_zero_flow(self):
        flow = FlowNet(tiny_flow(), seed=0)
        clip = make_clip()
        dec = decorate_clip(clip.frames, "s1", flow)
        assert dec.pair_flows is None
        assert dec.feats[0].shape == (10, 4)
        assert np.any(dec.feats[0].data[:, 1:] != 0.0)
        np.testing.assert_array_equal(dec.feats[-1].data[:, 1:], 0.0)

    def test_s2_keeps_pair_flows(self):
        flow = FlowNet(tiny_flow(), seed=0)
        clip = make_clip(window=3)
        dec = decorate_clip(clip.frames, "s2", flow)
        assert len(dec.pair_flows) == 2
        assert dec.feats[0].shape == (10, 1 + flow.final_dim)
        np.testing.assert_array_equal(dec.feats[-1].data[:, 1:], 0.0)

    def test_s1_zero_flow_model_equals_padded_raw(self):
        # zeroing the regressor output makes s1 decoration the raw features
        # plus three zero channels, so one network must score them identically
        flow = FlowNet(tiny_flow(), seed=0)
        last = flow.regressor.weights[-1]
        last.data = np.zeros_like(last.data)
        flow.regressor.biases[-1].data = np.zeros_like(
            flow.regressor.biases[-1].data)
        clip = make_clip()
        model = HarNet(tiny_task(), in_features=4, n_classes=5, seed=1)
        dec_s1 = decorate_clip(clip.frames, "s1", flow)
        padded = [Tensor(np.concatenate(
            [f.intensities.astype(np.float32)[:, None],
             np.zeros((len(f), 3), dtype=np.float32)], axis=1))
            for f in clip.frames]
        with ad.no_grad():
            a = model.forward(clip.frames, dec_s1.feats)
            b = model.forward(clip.frames, padded)
        np.testing.assert_array_equal(a.data, b.data)

    def test_empty_frame_inside_window(self):
        flow = FlowNet(tiny_flow(), seed=0)
        frames = [make_frame(8, 0), RadarFrame(np.zeros((0, 3)), np.zeros(0), 1, 0.1),
                  make_frame(8, 2)]
        dec = decorate_clip(frames, "s1", flow)
        np.testing.assert_array_equal(dec.feats[0].data[:, 1:], 0.0)
        assert dec.feats[1].shape == (0, 4)
        dec2 = decorate_clip(frames, "s2", flow)
        assert dec2.pair_flows == [None, None]


class TestHarNet:
    def test_score_shape_and_finite(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=5, seed=0)
        clip = make_clip()
        dec = decorate_clip(clip.frames, "raw", None)
        scores = model.forward(clip.frames, dec.feats)
        assert scores.shape == (5,)
        assert np.all(np.isfinite(scores.data))

    def test_permutation_invariance(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=3, seed=0,
                       dtype=np.float64)
        clip = make_clip(n=12)
        dec = decorate_clip(clip.frames, "raw", None, dtype=np.float64)
        base = model.forward(clip.frames, dec.feats)
        rng = np.random.default_rng(5)
        permuted, feats = [], []
        for frame, f in zip(clip.frames, dec.feats):
            perm = rng.permutation(len(frame))
            permuted.append(RadarFrame(frame.points[perm], frame.intensities[perm],
                                       frame.frame_index, frame.timestamp))
            feats.append(Tensor(f.data[perm]))
        other = model.forward(permuted, feats)
        np.testing.assert_allclose(other.data, base.data, atol=1e-9)

    def test_empty_frames_skipped(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=3, seed=0)
        full = make_clip(window=2, n=8)
        gap = TaskClip(
            [full.frames[0],
             RadarFrame(np.zeros((0, 3)), np.zeros(0), 1, 0.1),
             full.frames[1]],
            [None, None, None], 0)
        with ad.no_grad():
            a = model.forward(full.frames, decorate_clip(full.frames, "raw", None).feats)
            b = model.forward(gap.frames, decorate_clip(gap.frames, "raw", None).feats)
        np.testing.assert_array_equal(a.data, b.data)

    def test_all_empty_raises(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=3, seed=0)
        empty = RadarFrame(np.zeros((0, 3)), np.zeros(0), 0, 0.0)
        with pytest.raises(EmptyFrame):
            model.forward([empty, empty], [Tensor(np.zeros((0, 1)))] * 2)

    def test_small_frame_below_centroid_count(self):
        model = HarNet(tiny_task(fps_centroids=16), in_features=1, n_classes=3)
        clip = make_clip(n=2)
        dec = decorate_clip(clip.frames, "raw", None)
        assert model.forward(clip.frames, dec.feats).shape == (3,)

    def test_gradients_match_fd(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=3, seed=2,
                       dtype=np.float64)
        named = model.named_params()
        jitter_params(named, np.random.default_rng(3))
        clip = make_clip(window=2, n=6, seed=4)
        dec = decorate_clip(clip.frames, "raw", None, dtype=np.float64)
        check_param_grads(
            lambda: cross_entropy(model.forward(clip.frames, dec.feats), 1),
            named, max_entries=2, seed=5)


class TestHpNet:
    def test_per_frame_shapes(self):
        model = HpNet(tiny_task(), in_features=1, seed=0)
        clip = make_clip(n=7)
        dec = decorate_clip(clip.frames, "raw", None)
        out = model.forward(clip.frames, dec.feats)
        assert [s.shape for s in out] == [(7, 6)] * 3

    def test_empty_frame_yields_none(self):
        model = HpNet(tiny_task(), in_features=1, seed=0)
        frames = [make_frame(5, 0), RadarFrame(np.zeros((0, 3)), np.zeros(0), 1, 0.1)]
        feats = decorate_clip(frames, "raw", None).feats
        out = model.forward(frames, feats)
        assert out[0].shape == (5, 6)
        assert out[1] is None

    def test_permutation_equivariance(self):
        model = HpNet(tiny_task(), in_features=1, seed=1, dtype=np.float64)
        clip = make_clip(n=9)
        dec = decorate_clip(clip.frames, "raw", None, dtype=np.float64)
        base = model.forward(clip.frames, dec.feats)
        rng = np.random.default_rng(2)
        perms = [rng.permutation(len(f)) for f in clip.frames]
        frames = [RadarFrame(f.points[p], f.intensities[p], f.frame_index,
                             f.timestamp) for f, p in zip(clip.frames, perms)]
        feats = [Tensor(x.data[p]) for x, p in zip(dec.feats, perms)]
        other = model.forward(frames, feats)
        for a, b, p in zip(other, base, perms):
            np.testing.assert_allclose(a.data, b.data[p], atol=1e-9)

    def test_temporal_state_changes_scores(self):
        model = HpNet(tiny_task(), in_features=1, seed=0)
        frame = make_frame(6, 3)
        feats = decorate_clip([frame, frame], "raw", None).feats
        out = model.forward([frame, frame], feats)
        assert not np.allclose(out[0].data, out[1].data)

    def test_gradients_match_fd(self):
        model = HpNet(tiny_task(), in_features=1, seed=2, dtype=np.float64)
        named = model.named_params()
        jitter_params(named, np.random.default_rng(3))
        clip = make_clip(window=2, n=6, seed=4)
        dec = decorate_clip(clip.frames, "raw", None, dtype=np.float64)
        check_param_grads(lambda: clip_loss(model, clip, dec),
                          named, max_entries=2, seed=5)


class TestCrossEntropy:
    def test_uniform_scores(self):
        scores = Tensor(np.zeros((4, 5)))
        loss = cross_entropy(scores, np.zeros(4, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(5.0), rel=1e-6)

    def test_confident_correct_is_small(self):
        scores = np.full((2, 3), -20.0)
        scores[0, 1] = scores[1, 2] = 20.0
        loss = cross_entropy(Tensor(scores), [1, 2])
        assert float(loss.data) < 1e-6

    def test_single_vector_accepted(self):
        loss = cross_entropy(Tensor(np.array([2.0, 0.0, 0.0])), 0)
        expected = -np.log(np.exp(2) / (np.exp(2) + 2))
        assert float(loss.data) == pytest.approx(expected, rel=1e-6)

    def test_gradient_is_softmax_minus_onehot(self):
        scores = Tensor(np.random.default_rng(0).normal(0, 1, (3, 4)),
                        requires_grad=True)
        labels = np.array([1, 3, 0])
        cross_entropy(scores, labels).backward()
        p = np.exp(scores.data) / np.exp(scores.data).sum(axis=1, keepdims=True)
        expected = (p - np.eye(4)[labels]) / 3.0
        np.testing.assert_allclose(scores.grad, expected, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        scores = Tensor(np.array([[1e4, 0.0], [-1e4, 0.0]]))
        assert np.isfinite(float(cross_entropy(scores, [0, 1]).data))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2])


class TestBalancedCrossEntropy:
    def test_equal_class_weight(self):
        # class 0: 1 point, class 1: 3 points; balanced loss averages the two
        # per-class means regardless of the population sizes
        scores = np.array([[2.0, 0.0]] * 4)
        labels = np.array([0, 1, 1, 1])
        valid = np.ones(4, bool)
        loss = balanced_cross_entropy(Tensor(scores), labels, valid)
        ce0 = -np.log(np.exp(2) / (np.exp(2) + 1))
        ce1 = -np.log(1 / (np.exp(2) + 1))
        assert float(loss.data) == pytest.approx((ce0 + ce1) / 2, rel=1e-6)

    def test_masked_points_zero_gradient(self):
        valid = np.array([True, False, True, False])
        scores = Tensor(np.random.default_rng(1).normal(0, 1, (4, 6)),
                        requires_grad=True)
        balanced_cross_entropy(scores, np.array([0, 1, 2, 3]), valid).backward()
        np.testing.assert_array_equal(scores.grad[~valid], 0.0)
        assert np.any(scores.grad[valid] != 0.0)

    def test_all_masked_raises(self):
        with pytest.raises(NoValidPoints):
            balanced_cross_entropy(Tensor(np.zeros((3, 6))),
                                   np.zeros(3, int), np.zeros(3, bool))

    def test_single_class_equals_plain(self):
        scores = np.random.default_rng(2).normal(0, 1, (5, 6))
        labels = np.full(5, 2)
        a = balanced_cross_entropy(Tensor(scores), labels, np.ones(5, bool))
        b = cross_entropy(Tensor(scores), labels)
        assert float(a.data) == pytest.approx(float(b.data), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            balanced_cross_entropy(Tensor(np.zeros((2, 6))), np.zeros(3, int),
                                   np.ones(3, bool))


class TestClipLosses:
    def test_har_loss_is_cross_entropy(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=5, seed=0,
                       dtype=np.float64)
        clip = make_clip()
        dec = decorate_clip(clip.frames, "raw", None, dtype=np.float64)
        loss = clip_loss(model, clip, dec)
        with ad.no_grad():
            manual = cross_entropy(model.forward(clip.frames, dec.feats),
                                   clip.activity)
        assert float(loss.data) == pytest.approx(float(manual.data), rel=1e-12)

    def test_har_all_empty_returns_none(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=5, seed=0)
        empty = RadarFrame(np.zeros((0, 3)), np.zeros(0), 0, 0.0)
        clip = TaskClip([empty, empty], [None, None], 0)
        dec = decorate_clip(clip.frames, "raw", None)
        assert clip_loss(model, clip, dec) is None

    def test_hp_no_valid_returns_none(self):
        model = HpNet(tiny_task(), in_features=1, seed=0)
        clip = make_clip(window=2, n=4)
        clip.labels[0] = make_label(4, valid=np.zeros(4, bool))
        dec = decorate_clip(clip.frames, "raw", None)
        assert clip_loss(model, clip, dec) is None

    def test_s2_adds_flow_term(self):
        from milliflow.flownet import flow_loss

        flow = FlowNet(tiny_flow(clamp=10.0), seed=0, dtype=np.float64)
        model = HarNet(tiny_task(), in_features=1 + flow.final_dim, n_classes=5,
                       seed=0, dtype=np.float64)
        clip = make_clip(window=3)
        dec = decorate_clip(clip.frames, "s2", flow, dtype=np.float64)
        total = clip_loss(model, clip, dec, flow)
        with ad.no_grad():
            task = cross_entropy(model.forward(clip.frames, dec.feats),
                                 clip.activity)
        flow_terms = [float(flow_loss(f, lab, flow.cfg).data)
                      for f, lab in zip(dec.pair_flows, clip.labels[:-1])]
        expected = float(task.data) + np.mean(flow_terms)
        assert float(total.data) == pytest.approx(expected, rel=1e-9)

    def test_s2_gradient_reaches_flow_net(self):
        flow = FlowNet(tiny_flow(clamp=10.0), seed=0)
        model = HarNet(tiny_task(), in_features=1 + flow.final_dim, n_classes=5,
                       seed=0)
        clip = make_clip(window=3)
        dec = decorate_clip(clip.frames, "s2", flow)
        clip_loss(model, clip, dec, flow).backward()
        grads = [t.grad is not None and np.any(t.grad != 0)
                 for t in flow.named_params().values()]
        assert all(grads)


def shape_clip(klass, seed, window=3, n=8):
    # class 0 is a tight blob, class 1 a wide shell: separable by local shape
    scale = 0.05 if klass == 0 else 0.5
    frames, labels = [], []
    for t in range(window):
        rng = np.random.default_rng(1000 * klass + 10 * seed + t)
        frames.append(RadarFrame(
            rng.normal(0.0, scale, (n, 3)) + np.array([0.0, 3.0, 0.0]),
            rng.uniform(0.6, 3.0, n), t, t / 13.2))
    for t in range(window - 1):
        labels.append(FlowLabel(np.zeros((n, 3)), np.ones(n, bool),
                                np.zeros(n, np.int64), np.full(n, klass, np.int64)))
    labels.append(None)
    return TaskClip(frames, labels, klass)


class TestTraining:
    def make_cfg(self, **kw):
        defaults = dict(lr=3e-3, epochs=3, batch_clips=4, seed=0)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_history_and_log_schema(self, tmp_path):
        import json

        clips = [shape_clip(k, s) for k in (0, 1) for s in range(4)]
        log = tmp_path / "log.jsonl"
        model, hist = train_task_model(
            "har", clips, clips[:2], tiny_task(), self.make_cfg(), "raw",
            tmp_path / "har.ckpt", n_classes=2, log_path=log)
        assert len(hist) == 3
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert set(rows[0]) == {"epoch", "train_loss", "val_oa", "lr"}
        for row in hist:
            assert row["lr"] == pytest.approx(3e-3 * 0.9 ** row["epoch"])

    def test_loss_decreases(self, tmp_path):
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(6)]
        _, hist = train_task_model(
            "har", clips, clips[:2], tiny_task(), self.make_cfg(epochs=6), "raw",
            tmp_path / "har.ckpt", n_classes=2, log_path=tmp_path / "log.jsonl")
        assert hist[-1]["train_loss"] < hist[0]["train_loss"]

    def test_deterministic_checkpoints(self, tmp_path):
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(3)]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for path in (a, b):
            train_task_model("hp", clips, clips[:2], tiny_task(),
                             self.make_cfg(epochs=2), "raw", path, n_classes=N_SEGMENTS,
                             log_path=tmp_path / "log.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_inputs(self, tmp_path):
        clips = [shape_clip(0, 0)]
        cfg = self.make_cfg()
        with pytest.raises(ConfigError):
            train_task_model("pose", clips, clips, tiny_task(), cfg, "raw",
                             tmp_path / "x.ckpt", n_classes=2, log_path=tmp_path / "log.jsonl")
        with pytest.raises(ConfigError):
            train_task_model("har", clips, clips, tiny_task(), cfg, "seven",
                             tmp_path / "x.ckpt", n_classes=2, log_path=tmp_path / "log.jsonl")
        with pytest.raises(ConfigError):
            train_task_model("har", [], clips, tiny_task(), cfg, "raw",
                             tmp_path / "x.ckpt", n_classes=2, log_path=tmp_path / "log.jsonl")
        with pytest.raises(MissingFlowModel):
            train_task_model("har", clips, clips, tiny_task(), cfg, "s1",
                             tmp_path / "x.ckpt", n_classes=2, log_path=tmp_path / "log.jsonl")

    def test_checkpoint_round_trip(self, tmp_path):
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(3)]
        ckpt = tmp_path / "har.ckpt"
        model, _ = train_task_model("har", clips, clips[:2], tiny_task(),
                                    self.make_cfg(epochs=1), "raw", ckpt,
                                    n_classes=2, log_path=tmp_path / "log.jsonl")
        again, strategy, flow = load_task_model(ckpt)
        assert strategy == "raw" and flow is None
        a = evaluate(model, clips, "raw")
        b = evaluate(again, clips, "raw")
        assert a["oa"] == b["oa"]
        np.testing.assert_array_equal(a["confusion"], b["confusion"])

    def test_s2_checkpoint_restores_flow_model(self, tmp_path):
        flow = FlowNet(tiny_flow(clamp=10.0), seed=0)
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(2)]
        ckpt = tmp_path / "har_s2.ckpt"
        model, _ = train_task_model("har", clips, clips[:2], tiny_task(),
                                    self.make_cfg(epochs=1), "s2", ckpt,
                                    flow_model=flow, n_classes=2,
                                    log_path=tmp_path / "log.jsonl")
        again, strategy, flow2 = load_task_model(ckpt, task="har", strategy="s2")
        assert strategy == "s2"
        for (k1, t1), (k2, t2) in zip(sorted(flow.named_params().items()),
                                      sorted(flow2.named_params().items())):
            assert k1 == k2
            np.testing.assert_array_equal(t1.data, t2.data)
        a = evaluate(model, clips, "s2", flow)
        b = evaluate(again, clips, "s2", flow2)
        assert a["oa"] == b["oa"]

    def test_task_and_strategy_mismatch(self, tmp_path):
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(2)]
        ckpt = tmp_path / "har.ckpt"
        train_task_model("har", clips, clips[:2], tiny_task(),
                         self.make_cfg(epochs=1), "raw", ckpt, n_classes=2,
                         log_path=tmp_path / "log.jsonl")
        with pytest.raises(TaskMismatch):
            load_task_model(ckpt, task="hp")
        with pytest.raises(TaskMismatch):
            load_task_model(ckpt, strategy="s1")

    def test_rejects_foreign_checkpoint(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, {"w": np.zeros(2)}, config={"kind": "flow"})
        with pytest.raises(ConfigError):
            load_task_model(path)

    @staticmethod
    def save_task_checkpoint(path, model, strategy, flow=None):
        """`model` saved as `train_task_model` saves it, with `flow` for s2."""
        named = model.named_params()
        config = dict(model.config_dict(), strategy=strategy)
        if flow is not None:
            named.update({f"flow.{k}": t for k, t in flow.named_params().items()})
            config["flow"] = flow.config_dict()
        save_checkpoint(path, named, config=config)

    @pytest.mark.parametrize("task", ["har", "hp"])
    @pytest.mark.parametrize("strategy", ["raw", "s2"])
    def test_load_draws_nothing_and_holds_the_stored_bytes(self, tmp_path, monkeypatch,
                                                          task, strategy):
        flow = FlowNet(tiny_flow(), seed=1) if strategy == "s2" else None
        model = TASK_NETS[task](tiny_task(), strategy_feature_dim(strategy, flow),
                                n_classes=3, seed=2)
        self.save_task_checkpoint(tmp_path / "task.ckpt", model, strategy, flow)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        again, stored, flow_again = load_task_model(tmp_path / "task.ckpt")
        assert stored == strategy
        assert_same_params(again.named_params(), model.named_params())
        if flow is None:
            assert flow_again is None
        else:
            assert_same_params(flow_again.named_params(), flow.named_params())

    @pytest.mark.parametrize("change", MISFITS)
    def test_load_refuses_values_that_do_not_fit(self, tmp_path, change):
        # a flow entry in a raw checkpoint is one that no parameter reads
        model = HarNet(tiny_task(), in_features=1, n_classes=2, seed=0)
        path = tmp_path / "har.ckpt"
        self.save_task_checkpoint(path, model, "raw")
        values, config = load_checkpoint(path)
        save_checkpoint(path, misfit(values, change), config=config)
        with pytest.raises(ShapeMismatch if change == "misshapen" else ConfigError):
            load_task_model(path)

    @pytest.mark.parametrize("drop", ["task", "in_features", "flow", "strategy", "dtype"])
    def test_malformed_config_is_corrupt_file(self, tmp_path, drop):
        flow = FlowNet(tiny_flow(clamp=10.0), seed=0)
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(2)]
        ckpt = tmp_path / "har_s2.ckpt"
        train_task_model("har", clips, clips[:2], tiny_task(), self.make_cfg(epochs=1),
                         "s2", ckpt, flow_model=flow, n_classes=2,
                         log_path=tmp_path / "log.jsonl")
        values, config = load_checkpoint(ckpt)
        del config[drop]
        save_checkpoint(ckpt, values, config=config)
        with pytest.raises(CorruptFile, match="malformed checkpoint config"):
            load_task_model(ckpt)

    @pytest.mark.parametrize("key, value", [
        ("n_classes", 3.9), ("n_classes", "3"), ("in_features", True),
    ])
    def test_size_that_is_not_an_integer_is_corrupt_file(self, tmp_path, key, value):
        # int() would read each as the size the model was saved with
        model = HarNet(tiny_task(), in_features=1, n_classes=3, seed=0)
        path = tmp_path / "har.ckpt"
        self.save_task_checkpoint(path, model, "raw")
        values, config = load_checkpoint(path)
        save_checkpoint(path, values, config=dict(config, **{key: value}))
        with pytest.raises(CorruptFile, match="in_features and n_classes must be integers"):
            load_task_model(path)

    def test_dtype_other_than_float32_or_float64_is_corrupt_file(self, tmp_path):
        flow = FlowNet(tiny_flow(clamp=10.0), seed=0)
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(2)]
        ckpt = tmp_path / "har_s2.ckpt"
        train_task_model("har", clips, clips[:2], tiny_task(), self.make_cfg(epochs=1),
                         "s2", ckpt, flow_model=flow, n_classes=2,
                         log_path=tmp_path / "log.jsonl")
        values, config = load_checkpoint(ckpt)
        for dtype in ("float16", "complex64", "int64"):
            for bad in (dict(config, dtype=dtype),
                        dict(config, flow=dict(config["flow"], dtype=dtype))):
                save_checkpoint(ckpt, values, config=bad)
                with pytest.raises(CorruptFile, match="unsupported model dtype"):
                    load_task_model(ckpt)

    def test_header_bit_flips_load_the_same_model_or_raise(self, tmp_path):
        # one scale each: every flip that parses builds both models
        one_scale = dict(sa_radii=(0.5,), sa_samples=(2,))
        flow = FlowNet(tiny_flow(clamp=10.0, **one_scale), seed=0)
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(2)]
        ckpt = tmp_path / "har_s2.ckpt"
        train_task_model("har", clips, clips[:2], tiny_task(**one_scale),
                         self.make_cfg(epochs=1), "s2", ckpt, flow_model=flow, n_classes=2,
                         log_path=tmp_path / "log.jsonl")

        def load(path):
            model, strategy, flow_model = load_task_model(path)
            named = dict(model.named_params())
            named.update({f"flow.{k}": t for k, t in flow_model.named_params().items()})
            return strategy, param_signature(named)

        assert flip_header_bits(ckpt, load) > 0

    def test_hp_all_one_class_drives_argmax(self, tmp_path):
        clips = []
        for s in range(6):
            clip = make_clip(window=3, n=8, seed=10 * s)
            clip.labels = [make_label(8, 5 * s + t, segment=0)
                           for t in range(2)] + [None]
            clips.append(clip)
        model, _ = train_task_model("hp", clips, clips[:2], tiny_task(),
                                    self.make_cfg(lr=1e-2, epochs=5), "raw",
                                    tmp_path / "hp.ckpt", n_classes=N_SEGMENTS,
                                    log_path=tmp_path / "log.jsonl")
        preds, _ = predict(model, clips, "raw")
        assert np.mean(preds == 0) > 0.9


class TestEvaluation:
    def test_har_report(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=2, seed=0)
        clips = [shape_clip(k, s) for k in (0, 1) for s in range(2)]
        report = evaluate(model, clips, "raw")
        assert set(report) == {"oa", "confusion", "n_clips"}
        assert report["confusion"].sum() == report["n_clips"] == 4
        assert 0.0 <= report["oa"] <= 1.0

    @pytest.mark.parametrize("preds, truths", [([0, 2], [0, 1]), ([0, 1], [0, 2]),
                                               ([0, -1], [0, 1])])
    def test_har_report_refuses_classes_outside_the_model(self, preds, truths):
        model = HarNet(tiny_task(), in_features=1, n_classes=2)
        with pytest.raises(ConfigError, match=r"outside \[0, 2\)"):
            model.report(preds, truths)

    def test_hp_report(self):
        model = HpNet(tiny_task(), in_features=1, seed=0)
        clips = [make_clip(seed=s) for s in range(2)]
        report = evaluate(model, clips, "raw")
        assert set(report) == {"oa", "miou", "n_points"}
        assert report["n_points"] == 2 * 2 * 10  # 2 clips x 2 labeled frames

    def test_har_predicts_the_argmax_of_each_scorable_window(self):
        model = HarNet(tiny_task(), in_features=1, n_classes=3, seed=0)
        empty = RadarFrame(np.zeros((0, 3)), np.zeros(0), 0, 0.0)
        clips = [make_clip(seed=0, activity=2), TaskClip([empty] * 3, [None] * 3, 1),
                 make_clip(seed=5, activity=1)]
        preds, truths = predict(model, clips, "raw")
        with ad.no_grad():
            expected = [int(np.argmax(model.forward(c.frames, decorate_clip(
                c.frames, "raw", None).feats).data)) for c in (clips[0], clips[2])]
        assert preds.tolist() == expected
        assert truths.tolist() == [2, 1]
        assert preds.dtype == truths.dtype == np.int64

    def test_hp_predicts_valid_points_of_labelled_frames(self):
        model = HpNet(tiny_task(), in_features=1, seed=0)
        clip = make_clip(window=3, n=6)
        clip.labels[1] = make_label(6, 7, valid=[True, False, True, False, False, True])
        preds, truths = predict(model, [clip], "raw")
        assert len(preds) == 6 + 3  # the window's final frame carries no label
        np.testing.assert_array_equal(
            truths, np.concatenate([clip.labels[0].segment_label,
                                    clip.labels[1].segment_label[[0, 2, 5]]]))

    @pytest.mark.parametrize("task, message", [("har", "no scorable windows"),
                                               ("hp", "no valid labeled points")])
    def test_nothing_scored(self, task, message):
        model = TASK_NETS[task](tiny_task(), in_features=1, n_classes=3, seed=0)
        empty = RadarFrame(np.zeros((0, 3)), np.zeros(0), 0, 0.0)
        clip = (TaskClip([empty] * 2, [None] * 2, 0) if task == "har"
                else make_clip(window=2, n=4))
        if task == "hp":
            clip.labels[0] = make_label(4, valid=np.zeros(4, bool))
        preds, truths = predict(model, [clip], "raw")
        assert preds.shape == truths.shape == (0,)
        assert preds.dtype == truths.dtype == np.int64
        with pytest.raises(EmptyInput, match=message):
            evaluate(model, [clip], "raw")

    @pytest.mark.parametrize("task", ["har", "hp"])
    def test_decorations_cache_is_read_and_filled(self, task):
        model = TASK_NETS[task](tiny_task(), in_features=1,
                                n_classes=3 if task == "har" else N_SEGMENTS, seed=0)
        clips = [make_clip(seed=s) for s in range(2)]
        cache = {}
        a = evaluate(model, clips, "raw", decorations=cache)
        assert sorted(cache) == sorted(id(c) for c in clips)
        b = evaluate(model, clips, "raw", decorations=cache)
        c = evaluate(model, clips, "raw")
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
            np.testing.assert_array_equal(a[key], c[key])

    def test_confusion_csv(self):
        csv = confusion_matrix_csv(np.array([[3, 1], [0, 2]]), ["a", "b"])
        lines = csv.strip().splitlines()
        assert lines[0] == "truth\\prediction,a,b"
        assert lines[1] == "a,3,1"
        assert lines[2] == "b,0,2"
        with pytest.raises(LengthMismatch):
            confusion_matrix_csv(np.zeros((2, 2)), ["a"])


def limb_pose(t, delta=np.zeros(3)):
    kp = np.zeros((14, 3))
    kp[:] = np.array([0.0, 3.0, 0.0])
    kp[2] = (0.2, 3.0, 0.4)
    kp[3] = (-0.2, 3.0, 0.4)
    kp[4] = (0.3, 3.0, 0.1)
    kp[5] = (-0.3, 3.0, 0.1)
    kp[6] = (0.35, 3.0, -0.2)
    kp[7] = (-0.35, 3.0, -0.2)
    return kp + t * np.asarray(delta)


def bone_cloud(kp, bone_ids, per_bone=5, seed=0, spread=0.05):
    rng = np.random.default_rng(seed)
    pts = []
    for b in bone_ids:
        a, c = kp[BONES[b][0]], kp[BONES[b][1]]
        frac = np.linspace(0.1, 0.9, per_bone)[:, None]
        pts.append(a + frac * (c - a) + rng.normal(0, spread, (per_bone, 3)))
    return np.concatenate(pts)


class TestTracking:
    BONES_TRACKED = (3, 4)

    def make_state(self, kp=None):
        kp = limb_pose(0) if kp is None else kp
        return TrackState(self.BONES_TRACKED,
                          bone_endpoints(kp, self.BONES_TRACKED))

    def test_pure_translation_is_exact(self):
        kp = limb_pose(0)
        pts = bone_cloud(kp, self.BONES_TRACKED)
        delta = np.array([0.01, -0.005, 0.02])
        state = track_step(pts, np.tile(delta, (len(pts), 1)), self.make_state(kp))
        np.testing.assert_allclose(
            state.endpoints, bone_endpoints(kp, self.BONES_TRACKED) + delta,
            atol=1e-9)
        assert state.fallback_bones == ()
        assert state.tracking_length == 1

    def test_rigid_rotation_is_exact(self):
        from milliflow.geometry import axis_angle_rotation

        kp = limb_pose(0)
        rot = axis_angle_rotation(np.array([0.0, 0.0, 1.0]), 0.2)
        center = np.array([0.0, 3.0, 0.0])
        pts = bone_cloud(kp, self.BONES_TRACKED)
        moved = (pts - center) @ rot.T + center
        state = track_step(pts, moved - pts, self.make_state(kp))
        expected = (bone_endpoints(kp, self.BONES_TRACKED) - center) @ rot.T + center
        np.testing.assert_allclose(state.endpoints, expected, atol=1e-9)

    def test_zero_flow_is_static(self):
        kp = limb_pose(0)
        pts = bone_cloud(kp, self.BONES_TRACKED)
        state = track_step(pts, np.zeros_like(pts), self.make_state(kp))
        np.testing.assert_allclose(
            state.endpoints, bone_endpoints(kp, self.BONES_TRACKED), atol=1e-12)

    def test_bones_move_independently(self):
        kp = limb_pose(0)
        pts3 = bone_cloud(kp, (3,), seed=1)
        pts4 = bone_cloud(kp, (4,), seed=2)
        pts = np.concatenate([pts3, pts4])
        d3, d4 = np.array([0.02, 0, 0]), np.array([0, 0, -0.03])
        flows = np.concatenate([np.tile(d3, (len(pts3), 1)),
                                np.tile(d4, (len(pts4), 1))])
        state = track_step(pts, flows, self.make_state(kp))
        init = bone_endpoints(kp, self.BONES_TRACKED)
        np.testing.assert_allclose(state.endpoints[0], init[0] + d3, atol=1e-9)
        np.testing.assert_allclose(state.endpoints[1], init[1] + d4, atol=1e-9)

    def test_too_few_points_falls_back_to_translation(self):
        kp = limb_pose(0)
        init = bone_endpoints(kp, self.BONES_TRACKED)
        pts = np.array([0.5 * (init[0, 0] + init[0, 1]),
                        0.6 * init[0, 0] + 0.4 * init[0, 1]])
        delta = np.array([0.01, 0.0, 0.0])
        state = track_step(pts, np.tile(delta, (2, 1)), self.make_state(kp))
        np.testing.assert_allclose(state.endpoints[0], init[0] + delta, atol=1e-12)
        assert 3 in state.fallback_bones
        assert 4 in state.fallback_bones  # no points at all on the other bone

    def test_collinear_points_fall_back(self):
        kp = limb_pose(0)
        init = bone_endpoints(kp, self.BONES_TRACKED)
        frac = np.linspace(0.1, 0.9, 5)[:, None]
        pts = init[0, 0] + frac * (init[0, 1] - init[0, 0])  # exactly on the axis
        delta = np.array([0.0, 0.02, 0.0])
        state = track_step(pts, np.tile(delta, (5, 1)), self.make_state(kp))
        np.testing.assert_allclose(state.endpoints[0], init[0] + delta, atol=1e-12)
        assert 3 in state.fallback_bones

    def test_out_of_gate_points_ignored(self):
        kp = limb_pose(0)
        far = np.array([[2.5, 3.0, 1.5], [2.6, 3.0, 1.4], [2.4, 3.0, 1.6]])
        state = track_step(far, np.full((3, 3), 5.0), self.make_state(kp))
        np.testing.assert_allclose(
            state.endpoints, bone_endpoints(kp, self.BONES_TRACKED), atol=1e-12)
        assert set(state.fallback_bones) == {3, 4}

    def test_state_validation(self):
        with pytest.raises(LengthMismatch):
            TrackState((3, 4), np.zeros((1, 2, 3)))
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.nan
        with pytest.raises(DegenerateInput):
            TrackState((3, 4), bad)
        with pytest.raises(LengthMismatch):
            track_step(np.zeros((2, 3)), np.zeros((3, 3)), self.make_state())

    def test_track_clip_trajectory(self):
        kp = limb_pose(0)
        frames = [RadarFrame(bone_cloud(kp, self.BONES_TRACKED, seed=t),
                             np.ones(10), t, t / 13.2) for t in range(5)]
        flows = [np.zeros((10, 3))] * 4
        traj = track_clip(frames, flows, self.BONES_TRACKED,
                          bone_endpoints(kp, self.BONES_TRACKED))
        assert [s.tracking_length for s in traj] == [0, 1, 2, 3, 4]

    def test_track_clip_validation(self):
        kp = limb_pose(0)
        frames = [RadarFrame(np.zeros((1, 3)), np.ones(1), t, 0.0)
                  for t in range(6)]
        init = bone_endpoints(kp, self.BONES_TRACKED)
        with pytest.raises(LengthMismatch):
            track_clip(frames[:3], [np.zeros((1, 3))], self.BONES_TRACKED, init)

    @given(subject=st.integers(0, 3),
           target=st.sampled_from([(a, b) for a, bones in TRACK_TARGETS.items()
                                   for b in bones]),
           t=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_exact_flow_carries_a_bone_onto_the_next_pose(self, subject, target, t):
        # one bone's reflectors only: a whole limb mixes the bone-frame
        # motions of neighbouring bones at their shared joint
        activity, bone = target
        model, poses, local = reflector_motion(subject, activity)
        refl = place_reflectors(model, poses[t], local)
        on_bone = refl.bone_index == bone
        frame = RadarFrame(refl.positions[on_bone], np.ones(on_bone.sum()), t, 0.0,
                           refl.bone_index[on_bone])
        flows = ground_truth_flow(frame, poses[t], poses[t + 1], model).flows
        state = TrackState((bone,), bone_endpoints(poses[t].keypoints, (bone,)))
        state = track_step(frame.points, flows, state)
        assert state.fallback_bones == ()
        np.testing.assert_allclose(state.endpoints,
                                   bone_endpoints(poses[t + 1].keypoints, (bone,)),
                                   rtol=0, atol=1e-9)


def tracking_sequence(n_frames=10, delta=(0.004, 0.0, 0.006), seed=0,
                      activity="ArmSwing"):
    """Whole body translating by delta per frame; labels carry the exact flow."""
    delta = np.asarray(delta)
    bone_ids = (3, 4, 5, 6, 9, 10, 11, 12)
    frames, poses, obs, labels = [], [], [], []
    for t in range(n_frames):
        kp = limb_pose(t, delta)
        pts = bone_cloud(kp, bone_ids, per_bone=4, seed=seed + t)
        frames.append(RadarFrame(pts, np.ones(len(pts)), t, t / 13.2))
        poses.append(SkeletonPose(kp))
        obs.append(ObservedKeypoints(kp, np.ones(14)))
    for t in range(n_frames - 1):
        n = len(frames[t])
        labels.append(FlowLabel(np.tile(delta, (n, 1)), np.ones(n, bool),
                                np.zeros(n, np.int64), np.zeros(n, np.int64)))
    return Sequence(0, activity, 0, frames, poses, obs, labels)


class TestEvaluateTracking:
    def test_exact_flows_track_exactly(self):
        report = evaluate_tracking([tracking_sequence()])
        assert report["n_clips"] == 2
        for length in (1, 2, 3, 4):
            assert report["mje"]["ArmSwing"][length] == pytest.approx(0.0, abs=1e-9)

    def test_untracked_activities_skipped(self):
        seqs = [tracking_sequence(activity="Bowing")]
        with pytest.raises(EmptyInput):
            evaluate_tracking(seqs)

    @pytest.mark.parametrize("named", [["ArmSwing", "ArmSwng"], ["Bowing"]])
    def test_named_activity_without_tracked_bones_refused(self, named):
        with pytest.raises(ConfigError, match=named[-1]) as e:
            evaluate_tracking([tracking_sequence()], activities=named)
        assert "trackable: ArmSwing, LegSwing, ArmLegSwing" in str(e.value)

    def test_activity_filter(self):
        seqs = [tracking_sequence(), tracking_sequence(activity="LegSwing", seed=5)]
        report = evaluate_tracking(seqs, activities=["LegSwing"])
        assert list(report["mje"]) == ["LegSwing"]

    def test_model_flows_report_latency(self):
        model = FlowNet(tiny_flow(), seed=0)
        report = evaluate_tracking([tracking_sequence()], flow_model=model)
        assert report["latency_ms"] > 0.0
        # the model is untrained, so drift is nonzero but finite
        assert all(np.isfinite(v) for v in report["mje"]["ArmSwing"].values())

    def test_clip_length_validation(self):
        with pytest.raises(ConfigError):
            evaluate_tracking([tracking_sequence()], clip_length=7)

    def test_csv_layout(self):
        report = evaluate_tracking([tracking_sequence()])
        csv = mje_table_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "activity,tracking_length,mje"
        assert len(lines) == 5
        # a clip of three frames tracks, and so reports, lengths 1 and 2 only
        trimmed = mje_table_csv(evaluate_tracking([tracking_sequence()], clip_length=3))
        trimmed_lines = trimmed.strip().splitlines()
        assert trimmed_lines[0] == "activity,tracking_length,mje"
        assert [line.split(",")[1] for line in trimmed_lines[1:]] == ["1", "2"]
