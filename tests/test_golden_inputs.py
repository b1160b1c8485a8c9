"""Golden input hashes: the network inputs built from labelled sequences.

Two generated and labelled sequences, plus a copy of one whose third frame
preprocessing empties, go through every path from a sequence to network
inputs: flow clips (`make_clips(pair_samples(...))`), task windows
(`task_clips`), their decorations for each strategy, flow prediction and
the training loss over flow clips, and body-part tracking with oracle and
model flows.  Points, intensities, frame indices, timestamps and label arrays
are hashed; `prov_bone` is left out, because no network input reads it.  A
change that moves these hashes changes what the networks see; re-record them
only together with an explanation of why.

The hashes of network outputs (`decorate_clip/s1` and `s2`, `predict_clip`,
`clip_loss/grad`, `evaluate_tracking/model`) were re-recorded once, when
the networks stopped computing ball-query padding and rows that every point
shares (ragged set abstraction, row-block first layers, one 2-D GEMM per
product).  The functions are the same, summed in another order, so the
bytes moved within rounding; `test_network_oracle.py` holds the new forms
to the old ones to 1e-12 in float64.  The input hashes held.

`clip_loss/grad` alone was re-recorded once more, when each MLP and each
recurrent gate became one tape node (`ad.mlp`, in place of `linear`,
`matmul_rows`, `take`, `add` and `relu` nodes).  One call's gradients keep
their bytes, but for a first-layer bias now summed over several broadcast
axes at once; and where a tensor has several consumers, their gradients are
summed in the tape's topological order, which moved with the node count.
So the bytes moved within rounding.  Every forward and input hash held.

`clip_loss` and `clip_loss/grad` were re-recorded once more, when the flow
network began to compute each distinct point of a frame once.  Train-mode
frames are drawn with replacement, so most rows have twins; the per-point
layers now run on fewer rows, whose matrix products round differently, and
the attention pools weigh each distinct point by its count.  The functions
are the same, so the bytes moved within rounding; `test_network_oracle.py`
holds the new form to the all-rows form to 1e-12 in float64 on such frames.
Test-mode frames have no twins: every test-mode hash held.

The train-mode hashes (`flow_clips/train`, `task_clips/train`, `clip_loss`
and `clip_loss/grad`) were re-recorded once more, when train and val
preprocessing stopped drawing a frame's rows with replacement: a frame now
keeps each of its survivors once, and draws without replacement only above
`SAMPLE_SIZE`.  No frame of these sequences keeps more than `SAMPLE_SIZE`
points, so the train-mode clips are now the test-mode clips, at either
seed, and the loss and its gradients are those of other inputs.  Every
test-mode hash held.

Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, on its AVX-512
(SkylakeX) kernels.  The bytes depend on the BLAS kernel: an OpenBLAS built
with DYNAMIC_ARCH picks its core type at run time, and under
`OPENBLAS_CORETYPE=Haswell` or `Prescott` the generated sequences and the
network's matrix products round differently, so every hash but the raw
decorations' moves.
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
from milliflow.skeleton import IN_SET_ACTIVITIES

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
    elif isinstance(obj, TaskClip):
        # the class's name in the catalogue follows the class, as the clip's
        # field of that name did when these hashes were recorded
        for part in (obj.frames, obj.labels, obj.activity, IN_SET_ACTIVITIES[obj.activity]):
            _update(h, part)
    elif isinstance(obj, (Sample, DecoratedClip)):
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
        "038abb6ae024cda4d1d56c449c6c53913f31df1ed0838353af5273043980b151",
    "flow_clips/train/3":
        "038abb6ae024cda4d1d56c449c6c53913f31df1ed0838353af5273043980b151",
    "flow_clips/test/0":
        "038abb6ae024cda4d1d56c449c6c53913f31df1ed0838353af5273043980b151",
    "flow_clips/test/3":
        "038abb6ae024cda4d1d56c449c6c53913f31df1ed0838353af5273043980b151",
    "task_clips/train":
        "62e6d50b02fbcf0e414fe042207150102d23f337d926138eaa4ace6d7126766c",
    "task_clips/test":
        "62e6d50b02fbcf0e414fe042207150102d23f337d926138eaa4ace6d7126766c",
    "decorate_clip/raw":
        "97f36660d86149388a660b534f7752c500d002e86d9292087f1dc4d6dc829a5b",
    "decorate_clip/s1":
        "a828332270314668eddb377d55eb60d49d5a0193cafde8d1aa72e7ce78543acb",
    "decorate_clip/s2":
        "5cebf4a55900b5edaa3bbcf132401903722b5fd417ba98663098c54640a0bb54",
    "predict_clip":
        "ce4d221810d13510a304184202380060100e30fdfc8d345619e56cbaf5c04dfc",
    "clip_loss":
        "37d05d04fcc658aee8fe6e138ad5bb25fa35cd6039519079f0b16b102c18cecc",
    "clip_loss/grad":
        "014020ef48486f79819b3b38aa859a08624f92b29c7522f13e4e849596d80cbf",
    "evaluate_tracking/oracle":
        "afde7972becac2ed36fd517a67e3def25bbc058ecc5b4aa2366c369b58ad8264",
    "evaluate_tracking/model":
        "efcb8c2210aaf944d1ccaadd88e13e64fd1fad03fa5f8f7754010e0ae3479aab",
}


@pytest.mark.parametrize("mode", ["train", "test"])
@pytest.mark.parametrize("seed", [0, 3])
def test_flow_clips(sequences, mode, seed):
    clips = flow_clips(sequences, mode, seed)
    assert len(clips) == 5
    assert digest(clips) == GOLDEN[f"flow_clips/{mode}/{seed}"]


@pytest.mark.parametrize("mode", ["train", "test"])
def test_task_clips(sequences, mode):
    clips = task_clips(sequences, tiny_task(), mode, catalogue=IN_SET_ACTIVITIES, seed=3)
    assert len(clips) == 9
    assert any(len(f) == 0 for clip in clips for f in clip.frames)
    assert digest(clips) == GOLDEN[f"task_clips/{mode}"]


@pytest.mark.parametrize("strategy", ["raw", "s1", "s2"])
def test_decorations(sequences, flow_model, strategy):
    clips = task_clips(sequences, tiny_task(), "test", catalogue=IN_SET_ACTIVITIES)
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
