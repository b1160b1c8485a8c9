"""Golden input hashes: the network inputs built from labelled sequences.

Two generated and labelled sequences, plus a copy of one whose third frame
preprocessing empties, go through every path from a sequence to network
inputs: flow clips (`make_clips(pair_samples(...))`), task windows
(`task_clips`), their decorations for each strategy, flow prediction and
the training loss over flow clips, and body-part tracking with oracle and
model flows.  Points, intensities, frame indices, timestamps and label arrays
are hashed; `prov_bone` is left out, because no network input reads it.  A
change that moves these hashes changes what the networks see; re-record them
only together with an explanation of why.  Recorded with numpy 2.4.6 on
x86-64 (a different numpy build may round a matrix product differently).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from test_golden_training import tiny_net, tiny_task

from milliflow import autodiff as ad
from milliflow.autodiff import Tensor
from milliflow.config import GenConfig, RunConfig
from milliflow.dataio import Sample, Sequence, make_clips, pair_samples
from milliflow.downstream import (
    DecoratedClip, TaskClip, decorate_clip, evaluate_tracking, task_clips,
)
from milliflow.flownet import FlowNet, clip_loss, predict_clip
from milliflow.labeling import FlowLabel
from milliflow.pipeline import generate_sequence, label_sequence
from milliflow.radar import RadarFrame

FRAMES = 11
EMPTIED_FRAME = 2


def _update(h, obj):
    if obj is None:
        h.update(b"None;")
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, Tensor):
        _update(h, obj.data)
    elif isinstance(obj, RadarFrame):
        for part in (obj.points, obj.intensities, obj.frame_index, obj.timestamp):
            _update(h, part)
    elif isinstance(obj, FlowLabel):
        for part in (obj.flows, obj.valid_mask, obj.bone_assignment, obj.segment_label):
            _update(h, part)
    elif isinstance(obj, (Sample, TaskClip, DecoratedClip)):
        for f in dataclasses.fields(obj):
            _update(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)};".encode())
        for item in obj:
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)};".encode())
        for key in sorted(obj):
            _update(h, key)
            _update(h, obj[key])
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode() + b";")
    elif isinstance(obj, (bool, int, np.integer, str)):
        h.update(f"{type(obj).__name__}:{obj};".encode())
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


@pytest.fixture(scope="module")
def sequences() -> list:
    cfg = RunConfig(gen=GenConfig(n_subjects=2, n_scenes=1, frames_per_sequence=FRAMES))
    seqs = []
    for subject, partition in ((0, "test"), (1, "train")):
        seq = generate_sequence(cfg, subject, "ArmSwing", 0)
        seq.labels = label_sequence(seq, partition)
        seqs.append(seq)
    # a copy of the first sequence whose third frame loses every point
    base = seqs[0]
    frames = list(base.frames)
    frames[EMPTIED_FRAME] = dataclasses.replace(
        frames[EMPTIED_FRAME], intensities=np.zeros_like(frames[EMPTIED_FRAME].intensities))
    seqs.append(Sequence(base.subject_id, base.activity_id, 1, frames, base.poses,
                         base.observed_kps, base.labels))
    return seqs


@pytest.fixture(scope="module")
def flow_model() -> FlowNet:
    return FlowNet(tiny_net(), seed=3)


def flow_clips(sequences, mode: str, seed: int) -> list:
    return [clip for seq in sequences for clip in make_clips(pair_samples(seq, mode, seed))]


GOLDEN = {
    "flow_clips/train/0":
        "094eddc406e55009c479059ff6190188c149f510014f55e276427ab78249f43e",
    "flow_clips/train/3":
        "14aae04e0382f94190840e8c23e0ed2db931ad83e141bba5ef0c268d48290a6b",
    "flow_clips/test/0":
        "038abb6ae024cda4d1d56c449c6c53913f31df1ed0838353af5273043980b151",
    "flow_clips/test/3":
        "038abb6ae024cda4d1d56c449c6c53913f31df1ed0838353af5273043980b151",
    "task_clips/train":
        "d862faccaa5aa3a16ca0e1ba2a5d91e4146e0854e9850820b1c3781109950cdc",
    "task_clips/test":
        "62e6d50b02fbcf0e414fe042207150102d23f337d926138eaa4ace6d7126766c",
    "decorate_clip/raw":
        "97f36660d86149388a660b534f7752c500d002e86d9292087f1dc4d6dc829a5b",
    "decorate_clip/s1":
        "12542526ee9659dce507963cf5a66fe9de0fd1d3f03accf919883f3174bb1d51",
    "decorate_clip/s2":
        "4a743a88c643d7a3fae63f442088b79ce0e03fd40d0fc59e96b96161f7728d5a",
    "predict_clip":
        "d5791f10c1420294d454c22cf45b39ee1c2646028e91e05838949884e4f9200c",
    "clip_loss":
        "e52b48c274318b07b1b6be4a09c1f81b86ad5c565ddb52dc81ea896923129db5",
    "clip_loss/grad":
        "b710b3bf6e2c7c403ebe6b907d57dc59389cf2f8a66a7405c6fec64452b6c0ce",
    "evaluate_tracking/oracle":
        "afde7972becac2ed36fd517a67e3def25bbc058ecc5b4aa2366c369b58ad8264",
    "evaluate_tracking/model":
        "04493cacb7f6e897ef122e39acb051c2e4f722c224fc913c8e844a8eb297fd2b",
}


@pytest.mark.parametrize("mode", ["train", "test"])
@pytest.mark.parametrize("seed", [0, 3])
def test_flow_clips(sequences, mode, seed):
    clips = flow_clips(sequences, mode, seed)
    assert len(clips) == 5
    assert digest(clips) == GOLDEN[f"flow_clips/{mode}/{seed}"]


@pytest.mark.parametrize("mode", ["train", "test"])
def test_task_clips(sequences, mode):
    clips = task_clips(sequences, tiny_task(), mode, seed=3)
    assert len(clips) == 9
    assert any(len(f) == 0 for clip in clips for f in clip.frames)
    assert digest(clips) == GOLDEN[f"task_clips/{mode}"]


@pytest.mark.parametrize("strategy", ["raw", "s1", "s2"])
def test_decorations(sequences, flow_model, strategy):
    clips = task_clips(sequences, tiny_task(), "test")
    decorated = [decorate_clip(clip.frames, strategy, flow_model) for clip in clips]
    assert digest(decorated) == GOLDEN[f"decorate_clip/{strategy}"]


def test_predictions(sequences, flow_model):
    flows = [predict_clip(flow_model, clip) for clip in flow_clips(sequences, "test", 0)]
    assert digest(flows) == GOLDEN["predict_clip"]


def test_losses_and_gradients(sequences, flow_model):
    named = flow_model.named_params()
    losses, grads = [], []
    for clip in flow_clips(sequences, "train", 0):
        for t in named.values():
            t.zero_grad()
        loss = clip_loss(flow_model, clip)
        losses.append(loss)
        if loss is not None:
            loss.backward()
            grads.append({k: t.grad for k, t in named.items()})
    assert len(grads) > 0
    assert digest(losses) == GOLDEN["clip_loss"]
    assert digest(grads) == GOLDEN["clip_loss/grad"]


def test_tracking(sequences, flow_model):
    oracle = evaluate_tracking(sequences)
    assert oracle["n_clips"] == 6
    assert "latency_ms" not in oracle
    with ad.no_grad():
        model = evaluate_tracking(sequences, flow_model=flow_model)
    assert model.pop("latency_ms") > 0
    assert digest(oracle) == GOLDEN["evaluate_tracking/oracle"]
    assert digest(model) == GOLDEN["evaluate_tracking/model"]
