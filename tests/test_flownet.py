import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from helpers import check_param_grads, jitter_params

from milliflow import autodiff as ad
from milliflow.autodiff import Tensor
from milliflow.config import NetConfig, TrainConfig
from milliflow.dataio import Sample
from milliflow.errors import (
    ConfigError, CorruptFile, EmptyFrame, LengthMismatch, NonFiniteLoss, NoValidPoints,
)
from milliflow.downstream import decorate_clip
from milliflow.flownet import (
    FlowNet,
    clip_loss,
    evaluate_baseline,
    evaluate_model,
    fit,
    flow_loss,
    infer_sequence,
    load_flow_model,
    predict_clip,
    train_flow_model,
)
from milliflow.labeling import FlowLabel
from milliflow.layers import load_checkpoint, save_checkpoint
from milliflow.radar import RadarFrame


def tiny_net(**kw):
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


def make_frame(n, seed=0, offset=(0.0, 3.0, 0.0)):
    rng = np.random.default_rng(seed)
    return RadarFrame(
        points=rng.uniform(-0.8, 0.8, (n, 3)) + np.asarray(offset),
        intensities=rng.uniform(0.6, 3.0, n),
        frame_index=0,
        timestamp=0.0,
    )


def make_label(n, seed=0, flow_scale=0.05, valid=None):
    rng = np.random.default_rng(seed)
    if valid is None:
        valid = np.ones(n, dtype=bool)
    return FlowLabel(
        flows=rng.normal(0.0, flow_scale, (n, 3)),
        valid_mask=np.asarray(valid, dtype=bool),
        bone_assignment=np.zeros(n, dtype=np.int64),
        segment_label=np.zeros(n, dtype=np.int64),
    )


def make_sample(n=12, seed=0, **label_kw):
    return Sample(
        source=make_frame(n, seed),
        target=make_frame(n, seed + 1),
        label=make_label(n, seed + 2, **label_kw),
    )


class TestForward:
    def test_default_dimensions(self):
        model = FlowNet(NetConfig(), seed=0)
        src, tgt = make_frame(128, 0), make_frame(128, 1)
        flows, state, final = model.forward(src, tgt, model.initial_state())
        assert flows.shape == (128, 3)
        assert final.shape == (128, 512)
        assert state.h.shape == (256,)

    def test_cost_volume_weight_widths_follow_config(self):
        model = FlowNet(tiny_net(cv_weight_hidden=(5,)), seed=0)
        for mlp in (model.cv.weight_mlp1, model.cv.weight_mlp2):
            assert [w.shape for w in mlp.weights] == [(3, 5), (5, 1)]
        flows, _, _ = model.forward(make_frame(6), make_frame(6, 1), model.initial_state())
        assert flows.shape == (6, 3)

    def test_clamp_binds(self):
        model = FlowNet(tiny_net(), seed=0)
        # blow up the regressor so raw outputs exceed the bound everywhere
        for w in model.regressor.weights:
            w.data *= 1e4
        src, tgt = make_frame(10, 0), make_frame(10, 1)
        flows, _, _ = model.forward(src, tgt, model.initial_state())
        assert np.all(np.abs(flows.data) <= 0.1)
        assert np.max(np.abs(flows.data)) == pytest.approx(0.1)

    def test_outputs_within_clamp(self):
        model = FlowNet(tiny_net(), seed=1)
        flows, _, _ = model.forward(make_frame(20, 2), make_frame(25, 3),
                                    model.initial_state())
        assert np.all(np.abs(flows.data) <= 0.1)

    def test_empty_frames_rejected(self):
        model = FlowNet(tiny_net(), seed=0)
        empty, full = make_frame(0), make_frame(5)
        with pytest.raises(EmptyFrame):
            model.forward(empty, full, model.initial_state())
        with pytest.raises(EmptyFrame):
            model.forward(full, empty, model.initial_state())

    def test_single_point(self):
        model = FlowNet(tiny_net(), seed=0)
        flows, _, _ = model.forward(make_frame(1), make_frame(1, 1),
                                    model.initial_state())
        assert flows.shape == (1, 3)

    def test_permutation_equivariance(self):
        model = FlowNet(tiny_net(), seed=3, dtype=np.float64)
        src, tgt = make_frame(15, 4), make_frame(15, 5)
        flows, _, _ = model.forward(src, tgt, model.initial_state())
        rng = np.random.default_rng(6)
        perm = rng.permutation(15)
        src_p = RadarFrame(src.points[perm], src.intensities[perm], 0, 0.0)
        flows_p, _, _ = model.forward(src_p, tgt, model.initial_state())
        np.testing.assert_allclose(flows_p.data, flows.data[perm], atol=1e-9)

    def test_state_advances_and_resets(self):
        model = FlowNet(tiny_net(), seed=0)
        src, tgt = make_frame(8), make_frame(8, 1)
        state = model.initial_state()
        for expected in (1, 2, 3, 4, 0):
            _, state, _ = model.forward(src, tgt, state)
            assert state.steps_since_reset == expected % 5
        assert np.all(state.h.data == 0.0)

    def test_state_changes_output(self):
        # clamped flows can saturate identically, so compare the per-point
        # features that carry the recurrent state
        model = FlowNet(tiny_net(), seed=0)
        src, tgt = make_frame(8), make_frame(8, 1)
        _, state, final1 = model.forward(src, tgt, model.initial_state())
        _, _, final2 = model.forward(src, tgt, state)
        assert not np.allclose(final1.data, final2.data)

    def test_ablated_variant_ignores_state(self):
        model = FlowNet(tiny_net(temporal=False), seed=0)
        src, tgt = make_frame(8), make_frame(8, 1)
        flows1, state, _ = model.forward(src, tgt, model.initial_state())
        assert np.all(state.h.data == 0.0)
        flows2, _, _ = model.forward(src, tgt, state)
        np.testing.assert_array_equal(flows1.data, flows2.data)


class TestLoss:
    def test_spec_weighting(self):
        # one large-flow point off by 0.02, one small-flow point off by 0.01
        gt = np.array([[0.15, 0.0, 0.0], [0.05, 0.0, 0.0]])
        pred = gt + np.array([[0.0, 0.02, 0.0], [0.0, 0.01, 0.0]])
        label = FlowLabel(gt, np.ones(2, bool), np.zeros(2, np.int64),
                          np.zeros(2, np.int64))
        loss = flow_loss(Tensor(pred), label)
        assert float(loss.data) == pytest.approx(2 * 0.02 + 1 * 0.01, abs=1e-9)

    def test_exact_prediction_zero_loss(self):
        label = make_label(6, seed=1)
        loss = flow_loss(Tensor(label.flows.copy()), label)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_threshold_boundary_counts_as_large(self):
        gt = np.array([[0.1, 0.0, 0.0]])
        pred = gt + np.array([[0.0, 0.03, 0.0]])
        label = FlowLabel(gt, np.ones(1, bool), np.zeros(1, np.int64),
                          np.zeros(1, np.int64))
        assert float(flow_loss(Tensor(pred), label).data) == pytest.approx(2 * 0.03)

    def test_only_small_population(self):
        gt = np.full((3, 3), 0.01)
        pred = gt.copy()
        pred[:, 0] += 0.02
        label = FlowLabel(gt, np.ones(3, bool), np.zeros(3, np.int64),
                          np.zeros(3, np.int64))
        assert float(flow_loss(Tensor(pred), label).data) == pytest.approx(0.02)

    def test_all_masked_raises(self):
        label = make_label(4, valid=np.zeros(4, bool))
        with pytest.raises(NoValidPoints):
            flow_loss(Tensor(np.zeros((4, 3))), label)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            flow_loss(Tensor(np.zeros((3, 3))), make_label(4))

    def test_masked_points_zero_gradient(self):
        valid = np.array([True, False, True, False])
        label = make_label(4, seed=2, valid=valid)
        pred = Tensor(np.zeros((4, 3)), requires_grad=True)
        flow_loss(pred, label).backward()
        np.testing.assert_array_equal(pred.grad[~valid], 0.0)
        assert np.any(pred.grad[valid] != 0.0)

    def test_masked_label_perturbation_no_effect(self):
        valid = np.array([True, False, True])
        label = make_label(3, seed=3, valid=valid)
        pred = np.random.default_rng(0).normal(0, 0.05, (3, 3))
        base = float(flow_loss(Tensor(pred), label).data)
        bumped = FlowLabel(label.flows + (~valid)[:, None] * 123.0,
                           label.valid_mask, label.bone_assignment,
                           label.segment_label)
        assert float(flow_loss(Tensor(pred), bumped).data) == base

    def test_gradient_matches_fd(self):
        label = make_label(5, seed=4)
        pred = Tensor(np.random.default_rng(5).normal(0, 0.05, (5, 3)),
                      requires_grad=True)
        check_param_grads(lambda: flow_loss(pred, label), {"pred": pred})


class TestModelGradients:
    def test_full_model_fd_through_clip(self):
        # two chained samples exercise the recurrent path, so the reset gate
        # sees a nonzero hidden state and every parameter receives gradient
        model = FlowNet(tiny_net(), seed=7, dtype=np.float64)
        named = model.named_params()
        rng = np.random.default_rng(8)
        jitter_params(named, rng)
        clip = [make_sample(n=6, seed=s) for s in (0, 10)]
        check_param_grads(lambda: clip_loss(model, clip), named,
                          max_entries=2, seed=9)

    def test_ablated_model_fd(self):
        model = FlowNet(tiny_net(temporal=False), seed=7, dtype=np.float64)
        named = {k: t for k, t in model.named_params().items()
                 if not k.startswith("gru.")}
        rng = np.random.default_rng(8)
        jitter_params(named, rng)
        sample = make_sample(n=6, seed=0)
        check_param_grads(lambda: clip_loss(model, [sample]), named,
                          max_entries=2, seed=11)


class TestClipLoss:
    def test_mean_over_samples(self):
        model = FlowNet(tiny_net(), seed=0, dtype=np.float64)
        samples = [make_sample(n=8, seed=s) for s in (0, 20)]
        state = model.initial_state()
        manual = []
        for s in samples:
            flows, state, _ = model.forward(s.source, s.target, state)
            manual.append(float(flow_loss(flows, s.label).data))
        got = clip_loss(model, samples)
        assert float(got.data) == pytest.approx(np.mean(manual), rel=1e-12)

    def test_all_masked_clip_is_none(self):
        model = FlowNet(tiny_net(), seed=0)
        clip = [make_sample(n=4, seed=0, valid=np.zeros(4, bool))]
        assert clip_loss(model, clip) is None

    def test_empty_frame_sample_skipped(self):
        model = FlowNet(tiny_net(), seed=0, dtype=np.float64)
        good = make_sample(n=8, seed=0)
        broken = Sample(source=make_frame(0), target=make_frame(8, 1),
                        label=make_label(0))
        lone = clip_loss(model, [good])
        both = clip_loss(model, [broken, good])
        assert float(both.data) == pytest.approx(float(lone.data))


def constant_flow_clips(n_clips, v, n_points=16, clip_len=2):
    clips = []
    for c in range(n_clips):
        clip = []
        for s in range(clip_len):
            seed = 100 * c + s
            src = make_frame(n_points, seed)
            tgt = make_frame(n_points, seed + 50)
            label = FlowLabel(
                flows=np.tile(v, (n_points, 1)),
                valid_mask=np.ones(n_points, bool),
                bone_assignment=np.zeros(n_points, np.int64),
                segment_label=np.zeros(n_points, np.int64),
            )
            clip.append(Sample(source=src, target=tgt, label=label))
        clips.append(clip)
    return clips


class TestTraining:
    def make_cfgs(self, **train_kw):
        # at random init the tiny model overshoots the flow clamp, which
        # blocks all gradient; widen it so the optimizer has something to do
        defaults = dict(lr=1e-2, epochs=2, batch_clips=4, seed=0)
        defaults.update(train_kw)
        return tiny_net(clamp=10.0), TrainConfig(**defaults)

    def test_loss_decreases_and_log_schema(self, tmp_path):
        v = np.array([0.02, -0.01, 0.03])
        clips = constant_flow_clips(10, v)
        net_cfg, train_cfg = self.make_cfgs()
        ckpt = tmp_path / "flow.ckpt"
        log = tmp_path / "train.jsonl"
        model, history = train_flow_model(clips, clips[:3], net_cfg, train_cfg,
                                          ckpt, log_path=log)
        assert history[1]["train_loss"] < history[0]["train_loss"]
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(rows) == len(history)
        assert set(rows[0]) == {"epoch", "train_loss", "val_epe3d", "lr"}
        assert ckpt.exists()

    def test_lr_schedule(self, tmp_path):
        clips = constant_flow_clips(4, np.array([0.01, 0.0, 0.0]))
        net_cfg, train_cfg = self.make_cfgs(epochs=3, lr=1e-3)
        _, history = train_flow_model(clips, clips[:1], net_cfg, train_cfg,
                                      tmp_path / "c.ckpt")
        for row in history:
            assert row["lr"] == pytest.approx(1e-3 * 0.9 ** row["epoch"], abs=1e-12)

    def test_deterministic_checkpoints(self, tmp_path):
        clips = constant_flow_clips(6, np.array([0.02, 0.0, -0.01]))
        net_cfg, train_cfg = self.make_cfgs()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train_flow_model(clips, clips[:2], net_cfg, train_cfg, a)
        train_flow_model(clips, clips[:2], net_cfg, train_cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_early_stopping(self, tmp_path):
        clips = constant_flow_clips(4, np.array([0.01, 0.0, 0.0]))
        net_cfg, train_cfg = self.make_cfgs(lr=0.0, epochs=50, patience=1)
        _, history = train_flow_model(clips, clips[:1], net_cfg, train_cfg,
                                      tmp_path / "c.ckpt")
        assert len(history) == 2  # epoch 0 saves, epoch 1 exhausts patience

    def test_argmin_sanity_constant_labels(self):
        # >= 50 optimizer steps toward a constant flow target must bring the
        # mean prediction onto it from where the untrained model starts: every
        # epoch ends closer than the untrained model, and the last epoch ends
        # within a quarter of its distance.  Strict epoch-over-epoch decrease
        # is not asserted: fixed-lr Adam reaches the noise floor of the
        # non-smooth EPE loss within about 10 steps and then oscillates there.
        from milliflow.layers import Adam

        v = np.array([0.02, -0.01, 0.03])
        clips = constant_flow_clips(10, v, n_points=12, clip_len=1)
        model = FlowNet(tiny_net(clamp=10.0), seed=0)
        named = model.named_params()
        opt = Adam(named, lr=1e-2)

        def mean_flow_dist():
            flows = []
            for clip in clips:
                state = model.initial_state()
                with ad.no_grad():
                    f, state, _ = model.forward(clip[0].source, clip[0].target, state)
                flows.append(f.data.mean(axis=0))
            return float(np.linalg.norm(np.mean(flows, axis=0) - v))

        start = mean_flow_dist()
        dists = []
        for epoch in range(5):
            for clip in clips:
                opt.zero_grad()
                loss = clip_loss(model, clip)
                loss.backward()
                opt.step()
            dists.append(mean_flow_dist())
        assert all(d < start for d in dists)
        assert dists[-1] < 0.25 * start

    def test_rejects_empty_inputs(self, tmp_path):
        net_cfg, train_cfg = self.make_cfgs()
        clips = constant_flow_clips(2, np.zeros(3))
        with pytest.raises(ConfigError):
            train_flow_model([], clips, net_cfg, train_cfg, tmp_path / "c.ckpt")
        with pytest.raises(ConfigError):
            train_flow_model(clips, [], net_cfg, train_cfg, tmp_path / "c.ckpt")

    def test_max_clips_per_epoch_changes_work(self, tmp_path):
        clips = constant_flow_clips(8, np.array([0.01, 0.0, 0.0]))
        net_cfg, _ = self.make_cfgs()
        capped = TrainConfig(lr=1e-2, epochs=1, batch_clips=4, seed=0,
                             max_clips_per_epoch=2)
        _, history = train_flow_model(clips, clips[:1], net_cfg, capped,
                                      tmp_path / "c.ckpt")
        assert len(history) == 1

    def test_checkpoint_round_trip(self, tmp_path):
        clips = constant_flow_clips(4, np.array([0.02, 0.0, 0.0]))
        net_cfg, train_cfg = self.make_cfgs(epochs=1)
        ckpt = tmp_path / "flow.ckpt"
        model, _ = train_flow_model(clips, clips[:1], net_cfg, train_cfg, ckpt)
        again = load_flow_model(ckpt)
        assert again.cfg == model.cfg
        src, tgt = make_frame(9, 1), make_frame(9, 2)
        with ad.no_grad():
            a, _, _ = model.forward(src, tgt, model.initial_state())
            b, _, _ = again.forward(src, tgt, again.initial_state())
        np.testing.assert_array_equal(a.data, b.data)

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, {"w": np.zeros(3)}, config={"kind": "other"})
        with pytest.raises(ConfigError):
            load_flow_model(path)

    @pytest.mark.parametrize("config", [
        {"kind": "flow"},
        {"kind": "flow", "net": "wide"},
        {"kind": "flow", "net": {"sa_radii": [0.1]}},
        {"kind": "flow", "net": {}, "dtype": "no-such-type"},
    ])
    def test_load_rejects_malformed_config(self, tmp_path, config):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, {"w": np.zeros(3)}, config=config)
        with pytest.raises(CorruptFile, match="malformed checkpoint config"):
            load_flow_model(path)


class TestFit:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_stops_before_the_step(self, tmp_path, bad):
        clips = constant_flow_clips(4, np.array([0.01, 0.0, 0.0]))
        model = FlowNet(tiny_net(clamp=10.0), seed=0)
        named = model.named_params()
        ckpt = tmp_path / "c.ckpt"
        seen = {}

        def loss_fn(clip):
            # epoch 0 is finite; the first loss of epoch 1 is not
            seen["calls"] = seen.get("calls", 0) + 1
            loss = clip_loss(model, clip)
            if seen["calls"] <= len(clips):
                return loss
            seen["checkpoint"] = ckpt.read_bytes()
            seen["params"] = {k: t.data.copy() for k, t in named.items()}
            return ad.mul(loss, bad)

        with pytest.raises(NonFiniteLoss, match="epoch 1"):
            fit(named, clips, clips[:1], loss_fn,
                lambda c: evaluate_model(model, c)["epe3d"]["all"],
                TrainConfig(lr=1e-2, epochs=3, batch_clips=2, seed=0), ckpt,
                model.config_dict(), "val_epe3d")
        assert ckpt.read_bytes() == seen["checkpoint"]
        for k, t in named.items():
            assert t.grad is None, k  # no backward ran on the bad loss
            np.testing.assert_array_equal(t.data, seen["params"][k])

    def test_restores_best_epoch_and_logs_rows(self, tmp_path):
        # validation scores 3, 1, 2: epoch 1 is the best, and the returned
        # parameters are the ones checkpointed there
        clips = constant_flow_clips(2, np.array([0.01, 0.0, 0.0]))
        model = FlowNet(tiny_net(clamp=10.0), seed=0)
        named = model.named_params()
        ckpt, log = tmp_path / "c.ckpt", tmp_path / "log.jsonl"
        scores, snapshots = iter([3.0, 1.0, 2.0]), []

        def validate(c):
            snapshots.append({k: t.data.copy() for k, t in named.items()})
            return next(scores)

        history = fit(named, clips, clips, lambda clip: clip_loss(model, clip),
                      validate, TrainConfig(lr=1e-2, epochs=3, batch_clips=2, seed=0),
                      ckpt, {"kind": "test"}, "val_score", log_path=log)
        assert [row["val_score"] for row in history] == [3.0, 1.0, 2.0]
        assert [json.loads(line) for line in log.read_text().splitlines()] == history
        for k, t in named.items():
            np.testing.assert_array_equal(t.data, snapshots[1][k].astype(t.dtype))
        assert load_checkpoint(ckpt)[1] == {"kind": "test"}


class TestInferSequence:
    def test_six_frames_five_flows_with_reset(self):
        model = FlowNet(tiny_net(), seed=0)
        frames = [make_frame(8, s) for s in range(6)]
        records, state = infer_sequence(model, frames)
        assert len(records) == 5
        assert state.steps_since_reset == 0
        assert np.all(state.h.data == 0.0)
        for rec, frame in zip(records, frames[:-1]):
            assert rec["flows"].shape == (len(frame), 3)
            assert rec["latency"] > 0.0
            assert not rec["placeholder"]

    def test_empty_frame_placeholder(self):
        model = FlowNet(tiny_net(), seed=0)
        frames = [make_frame(8, 0), make_frame(0), make_frame(8, 2)]
        records, _ = infer_sequence(model, frames)
        assert records[0]["placeholder"] and records[1]["placeholder"]
        assert records[0]["flows"].shape == (8, 3)
        np.testing.assert_array_equal(records[0]["flows"], 0.0)
        assert records[1]["flows"].shape == (0, 3)

    def test_pure_across_calls(self):
        model = FlowNet(tiny_net(), seed=0)
        frames = [make_frame(8, s) for s in range(3)]
        a, _ = infer_sequence(model, frames)
        b, _ = infer_sequence(model, frames)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra["flows"], rb["flows"])

    def test_needs_two_frames(self):
        model = FlowNet(tiny_net(), seed=0)
        with pytest.raises(ConfigError):
            infer_sequence(model, [make_frame(4)])


class TestBaselinesAndEvaluation:
    def test_zero_baseline_epe_is_mean_flow_norm(self):
        clips = constant_flow_clips(2, np.array([0.03, 0.04, 0.0]))
        report = evaluate_baseline(clips, "zero")
        assert report["epe3d"]["all"] == pytest.approx(0.05)

    def test_nearest_baseline_recovers_pure_translation(self):
        v = np.array([0.02, 0.01, -0.01])
        clips = []
        src = make_frame(10, 3)
        tgt = RadarFrame(src.points + v, src.intensities, 1, 0.1)
        label = FlowLabel(np.tile(v, (10, 1)), np.ones(10, bool),
                          np.zeros(10, np.int64), np.zeros(10, np.int64))
        clips.append([Sample(source=src, target=tgt, label=label)])
        report = evaluate_baseline(clips, "nearest")
        assert report["epe3d"]["all"] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_baseline(self):
        clips = constant_flow_clips(1, np.zeros(3))
        with pytest.raises(ConfigError):
            evaluate_baseline(clips, "median")

    def test_oracle_baseline_is_exact(self):
        clips = constant_flow_clips(2, np.array([0.02, 0.0, -0.01]))
        report = evaluate_baseline(clips, "oracle")
        assert report["epe3d"]["all"] == 0.0
        assert report["acc3d"]["strict"] == 1.0

    def test_evaluate_model_shape(self):
        model = FlowNet(tiny_net(), seed=0)
        clips = constant_flow_clips(2, np.array([0.01, 0.0, 0.0]))
        report = evaluate_model(model, clips)
        assert set(report) >= {"epe3d", "acc3d", "n_frames"}
        assert report["n_frames"] == 4


def copied(frame):
    return RadarFrame(frame.points.copy(), frame.intensities.copy(),
                      frame.frame_index, frame.timestamp)


def chained_clip(n_samples=5, n=10, seed=0):
    """Samples whose target equals the next sample's source as a distinct
    object, as `pair_samples` builds them."""
    frames = [make_frame(n, seed + t) for t in range(n_samples + 1)]
    return [Sample(source=copied(frames[t]), target=copied(frames[t + 1]),
                   label=make_label(n, seed + 50 + t)) for t in range(n_samples)]


class CountingEncoder:
    def __init__(self, encoder):
        self.encoder, self.calls = encoder, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.encoder(*args, **kwargs)


def without_reuse(monkeypatch):
    """From here on `FlowNet.forward` encodes every source afresh."""
    encoded = FlowNet._encoded
    monkeypatch.setattr(FlowNet, "_encoded", lambda self, frame, cached=None: encoded(self, frame))


class TestEncodingReuse:
    """The previous target's encoding serves as the next source's: outputs
    are bitwise those of encoding every frame afresh."""

    def test_predict_clip(self, monkeypatch):
        model = FlowNet(tiny_net(), seed=0)
        clip = chained_clip()
        model.local = CountingEncoder(model.local)
        reused = predict_clip(model, clip)
        assert model.local.calls == len(clip) + 1
        without_reuse(monkeypatch)
        fresh = predict_clip(model, clip)
        assert model.local.calls == len(clip) + 1 + 2 * len(clip)
        for a, b in zip(reused, fresh, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_infer_sequence_with_empty_frame(self, monkeypatch):
        model = FlowNet(tiny_net(), seed=0)
        frames = [make_frame(9, s) for s in range(9)]
        frames[3] = make_frame(0)
        model.local = CountingEncoder(model.local)
        reused, _ = infer_sequence(model, frames)
        # pairs (0,1) and (4,5) encode both frames; (1,2), (5,6), (6,7) and
        # (7,8) reuse their source, the last one across the state reset
        assert model.local.calls == 2 + 1 + 2 + 1 + 1 + 1
        without_reuse(monkeypatch)
        fresh, _ = infer_sequence(model, frames)
        for a, b in zip(reused, fresh, strict=True):
            assert a["placeholder"] == b["placeholder"]
            np.testing.assert_array_equal(a["flows"], b["flows"])

    @pytest.mark.parametrize("strategy", ["s1", "s2"])
    def test_decorate_clip(self, monkeypatch, strategy):
        model = FlowNet(tiny_net(), seed=0)
        frames = [make_frame(8, s) for s in range(5)]
        reused = decorate_clip(frames, strategy, model)
        without_reuse(monkeypatch)
        fresh = decorate_clip(frames, strategy, model)
        for a, b in zip(reused.feats, fresh.feats, strict=True):
            np.testing.assert_array_equal(a.data, b.data)
        if strategy == "s2":
            for a, b in zip(reused.pair_flows, fresh.pair_flows, strict=True):
                np.testing.assert_array_equal(a.data, b.data)

    def test_clip_loss_gradients(self, monkeypatch):
        model = FlowNet(tiny_net(), seed=7, dtype=np.float64)
        named = model.named_params()
        jitter_params(named, np.random.default_rng(8))
        clip = chained_clip(n_samples=3, n=8)

        def grads():
            model_grads = {}
            for t in named.values():
                t.zero_grad()
            loss = clip_loss(model, clip)
            loss.backward()
            for name, t in named.items():
                model_grads[name] = t.grad.copy()
            return float(loss.data), model_grads

        loss_reused, reused = grads()
        without_reuse(monkeypatch)
        loss_fresh, fresh = grads()
        assert loss_reused == loss_fresh
        scale = max(np.abs(g).max() for g in fresh.values())
        for name in named:
            np.testing.assert_allclose(reused[name], fresh[name], rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("field", ["points", "intensities"])
    def test_one_ulp_difference_recomputes(self, field):
        model = FlowNet(tiny_net(), seed=0)
        f0, f1, f2 = (make_frame(8, s) for s in range(3))
        _, state, _ = model.forward(f0, f1, model.initial_state())
        nudged = copied(f1)
        values = getattr(nudged, field).reshape(-1)
        values[0] = np.nextafter(np.float32(values[0]), np.float32(np.inf))
        model.local = CountingEncoder(model.local)
        flows, _, final = model.forward(nudged, f2, state)
        assert model.local.calls == 2
        want, _, want_final = model.forward(nudged, f2, dataclasses.replace(state, target=None))
        np.testing.assert_array_equal(flows.data, want.data)
        np.testing.assert_array_equal(final.data, want_final.data)

    def test_grad_mode_change_recomputes(self):
        model = FlowNet(tiny_net(), seed=0)
        f0, f1, f2 = (make_frame(8, s) for s in range(3))
        with ad.no_grad():
            _, state, _ = model.forward(f0, f1, model.initial_state())
        model.local = CountingEncoder(model.local)
        model.forward(f1, f2, state)
        assert model.local.calls == 2

    def test_entry_survives_reset(self):
        model = FlowNet(tiny_net(), seed=0)
        clip = chained_clip(n_samples=6, n=8)
        state = model.initial_state()
        for sample in clip[:5]:
            _, state, _ = model.forward(sample.source, sample.target, state)
        assert state.steps_since_reset == 0
        assert state.target is not None
        model.local = CountingEncoder(model.local)
        model.forward(clip[5].source, clip[5].target, state)
        assert model.local.calls == 1


class TestTapeLifetime:
    def test_clip_tape_freed_without_collector(self):
        model = FlowNet(tiny_net(), seed=0)
        clip = chained_clip(n_samples=3, n=8)
        gc.collect()
        gc.disable()
        try:
            loss = clip_loss(model, clip)
            node = loss
            for _ in range(15):  # deep inside the last pair's forward
                node = node._parents[0]
            interior = weakref.ref(node)
            del node
            loss.backward()
            assert interior() is not None
            del loss
            assert interior() is None
        finally:
            gc.enable()
