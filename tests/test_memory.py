"""Memory guards on training, under `tracemalloc`, which numpy reports its
array buffers to: a checkpoint is written without a second copy of the
parameters, and `fit` returns holding its parameters and nothing of their
size besides."""

import contextlib
import gc
import tracemalloc

import numpy as np
from test_flownet import constant_flow_clips, tiny_net

from milliflow.config import NetConfig, TrainConfig
from milliflow.flownet import FlowNet, clip_loss, fit
from milliflow.layers import save_checkpoint

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
