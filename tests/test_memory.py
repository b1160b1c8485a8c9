"""Memory guards under `tracemalloc`, which numpy reports its array buffers
to: a radar frame's heatmap and CFAR hold only block-sized temporaries
beside the heatmap, and a pipeline frame's only those of the range bins it
keeps, a checkpoint is written and read without a second copy
of the parameters, and `fit` returns holding its parameters and nothing of
their size besides."""

import contextlib
import gc
import tracemalloc

import numpy as np
from test_flownet import constant_flow_clips, tiny_net

from milliflow import pipeline
from milliflow.config import NetConfig, TrainConfig
from milliflow.flownet import FlowNet, clip_loss, fit, load_flow_model
from milliflow.layers import save_checkpoint
from milliflow.radar import RadarConfig, cfar_detect, heatmap

# what a tiny model's `fit` may hold besides its parameters' buffers: the
# Python objects of the model and its tensors, the history and numpy's caches
FIT_SLACK = 256 * 1024


@contextlib.contextmanager
def traced():
    """(current bytes, peak bytes) read at the end of the block, counted from
    its start."""
    gc.collect()
    tracemalloc.start()
    figures = []
    try:
        start, _ = tracemalloc.get_traced_memory()
        yield figures
        gc.collect()
        now, peak = tracemalloc.get_traced_memory()
        figures += [now - start, peak - start]
    finally:
        tracemalloc.stop()


def test_checkpoint_write_holds_one_parameter_at_a_time(tmp_path):
    # each array goes to the file as it is converted to float64, so the
    # largest one, 576 x 512, bounds the peak rather than the whole blob
    named = FlowNet(NetConfig(), seed=0).named_params()
    path = tmp_path / "model.ckpt"
    with traced() as figures:
        save_checkpoint(path, named, config={"kind": "flow"})
    _, peak = figures
    size = path.stat().st_size
    assert size > 8 * sum(t.size for t in named.values())
    assert peak < size / 4, (peak, size)


def test_radar_frame_holds_no_full_spectrum():
    # the heatmap, the (az, el) spectrum its azimuth pass starts from (of the
    # heatmap's bytes) and block temporaries; the whole padded complex
    # spectrum alone is twice the heatmap, and CA-CFAR's whole-array
    # temporaries three more of it
    cfg = RadarConfig()
    rng = np.random.default_rng(0)
    shape = (cfg.n_az, cfg.n_el, cfg.n_freq_steps)
    cube = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    with traced() as figures:
        detections = cfar_detect(heatmap(cube, cfg), cfg.cfar)
    _, peak = figures
    hm_bytes = 8 * cfg.pad_factor ** 3 * cfg.n_az * cfg.n_el * cfg.n_freq_steps
    assert len(detections) > 0
    assert peak < 3 * hm_bytes, (peak, hm_bytes)


def test_pipeline_frame_holds_only_its_range_cut():
    # the bound above, scaled by the share of range bins the pipeline keeps:
    # a frame that went back to the whole range would peak at about 2.5
    # heatmaps against this 1.4
    cfg = RadarConfig()
    rng = np.random.default_rng(0)
    shape = (cfg.n_az, cfg.n_el, cfg.n_freq_steps)
    cube = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    _, n_range = pipeline.range_cut(cfg)
    with traced() as figures:
        detections = cfar_detect(heatmap(cube, cfg, n_range=n_range), cfg.cfar)
    _, peak = figures
    hm_bytes = 8 * cfg.pad_factor ** 3 * cfg.n_az * cfg.n_el * cfg.n_freq_steps
    assert len(detections) > 0
    assert peak < 3 * hm_bytes * n_range / (cfg.pad_factor * cfg.n_freq_steps), (peak, hm_bytes)


def test_checkpoint_read_holds_one_stored_array_at_a_time(tmp_path):
    # each stored float64 array is cast into its float32 parameter before the
    # next is read, so the largest one, 576 x 512, bounds the peak beside the
    # model, rather than the whole float64 blob
    model = FlowNet(NetConfig(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.named_params(), config=model.config_dict())
    param_bytes = sum(t.data.nbytes for t in model.named_params().values())
    largest = 8 * max(t.size for t in model.named_params().values())
    del model
    with traced() as figures:
        loaded = load_flow_model(path)
    _, peak = figures
    assert sum(t.data.nbytes for t in loaded.named_params().values()) == param_bytes
    assert peak <= param_bytes + largest + FIT_SLACK, (peak, param_bytes)


def test_fit_returns_holding_only_its_parameters(tmp_path):
    clips = constant_flow_clips(2, np.array([0.01, 0.0, 0.0]))
    with traced() as figures:
        # wide enough that its parameters' 3 MB dwarf the slack
        model = FlowNet(tiny_net(clamp=10.0, embed_mlp=(4096, 6)), seed=0, dtype=np.float64)
        named = model.named_params()
        fit(named, clips, clips[:1], lambda clip: clip_loss(model, clip), lambda c: 0.0,
            TrainConfig(lr=1e-2, epochs=1, batch_clips=2, seed=0), tmp_path / "c.ckpt",
            model.config_dict(), "val_score", log_path=tmp_path / "log.jsonl")
    held, _ = figures
    param_bytes = sum(t.data.nbytes for t in named.values())
    assert param_bytes > 8 * FIT_SLACK
    assert held <= param_bytes + FIT_SLACK, (held, param_bytes)
