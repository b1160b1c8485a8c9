"""Golden training hashes: tiny seeded runs of the flow and task trainers,
with the checkpoint and the JSONL training log hashed byte for byte.

The runs cover the training loop's branches: the seeded validation subsample,
gradient averaging over a batch of two clips, clips that contribute no loss,
the per-epoch learning-rate decay, best-on-validation checkpoints and early
stopping, for the flow network and for the activity (raw, s1) and parsing
(s2, joint with the flow network) networks.  The s1 and s2 checkpoints hold
their flow model's parameters too, under `flow.` names.  A change that moves
these bytes changes what training computes or stores; re-record the hashes
only together with an explanation of why.

Every hash here was re-recorded once (the logs of `har-raw` and `har-s1`
held), when the networks stopped computing ball-query padding and rows that
every point shares (ragged set abstraction, row-block first layers, one 2-D
GEMM per product).  The functions are the same, summed in another order, so
the bytes moved within rounding; `test_network_oracle.py` holds the new
forms to the old ones to 1e-12 in float64.

Every hash here, and `HAR_S1_TASK_ONLY`, was re-recorded once more when
each MLP and each recurrent gate became one tape node (`ad.mlp`, in place
of `linear`, `matmul_rows`, `take`, `add` and `relu` nodes).  One call's
gradients keep their bytes, but for a first-layer bias now summed over
several broadcast axes at once; and where a tensor has several consumers,
their gradients are summed in the tape's topological order, which moved
with the node count.  Training follows its gradients, so every checkpoint
and log moved within rounding.

Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, on its AVX-512
(SkylakeX) kernels.  The bytes depend on the BLAS kernel: an OpenBLAS built
with DYNAMIC_ARCH picks its core type at run time, and under
`OPENBLAS_CORETYPE=Haswell` or `Prescott` the network's matrix products
round differently, so these hashes move.
"""

import hashlib
import json

import numpy as np
import pytest

from milliflow.config import NetConfig, TaskConfig, TrainConfig
from milliflow.dataio import Sample
from milliflow.downstream import TaskClip, train_task_model
from milliflow.flownet import FlowNet, train_flow_model
from milliflow.labeling import FlowLabel
from milliflow.layers import load_checkpoint, save_checkpoint
from milliflow.radar import RadarFrame

N_POINTS = 9


def tiny_net() -> NetConfig:
    # a clamp wide enough that the untrained head does not saturate it
    return NetConfig(sa_radii=(0.5, 1.0), sa_samples=(2, 3), sa_mlp=(8, 8),
                     post_sa_mlp=(8, 8), attention_hidden=4, cv_k=2, cv_dcost=6,
                     embed_mlp=(8, 6), gru_hidden=12, regressor=(8, 3), clamp=10.0)


def tiny_task() -> TaskConfig:
    return TaskConfig(sa_radii=(0.5, 1.0), sa_samples=(2, 3), sa_mlp=(8, 8),
                      post_sa_mlp=(8, 8), attention_hidden=4, fps_centroids=4,
                      stage2_radius=1.0, stage2_samples=4, stage2_mlp=(8, 8),
                      lstm_hidden=6, gru_hidden=6, classifier=(8,), window=3)


def frame(seed: int, index: int, scale: float = 0.4) -> RadarFrame:
    rng = np.random.default_rng(seed)
    return RadarFrame(rng.normal(0.0, scale, (N_POINTS, 3)) + [0.0, 3.0, 0.0],
                      rng.uniform(0.6, 3.0, N_POINTS), index, index / 13.2)


def label(seed: int, valid: bool = True, segment: int | None = None) -> FlowLabel:
    rng = np.random.default_rng(seed)
    segments = (np.full(N_POINTS, segment) if segment is not None
                else rng.integers(0, 3, N_POINTS))
    return FlowLabel(rng.normal(0.0, 0.05, (N_POINTS, 3)),
                     np.full(N_POINTS, valid), np.zeros(N_POINTS, np.int64),
                     segments.astype(np.int64))


def flow_clip(seed: int, valid: bool = True, pairs: int = 3) -> list:
    return [Sample(frame(100 * seed + t, t), frame(100 * seed + t + 1, t + 1),
                   label(100 * seed + 50 + t, valid), clip_position=t)
            for t in range(pairs)]


def task_clip(seed: int, klass: int, valid: bool = True) -> TaskClip:
    # class 0 a tight blob, class 1 a wide shell
    scale = 0.1 if klass == 0 else 0.5
    frames = [frame(100 * seed + t, t, scale) for t in range(3)]
    labels = [label(100 * seed + 50 + t, valid, segment=None if klass else 0)
              for t in range(2)]
    return TaskClip(frames, labels + [None], klass)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_flow(root):
    # the last training clip has no valid label, so it contributes no loss
    train = [flow_clip(s) for s in range(5)] + [flow_clip(5, valid=False)]
    val = [flow_clip(s) for s in range(20, 23)]
    cfg = TrainConfig(lr=1e-2, epochs=3, batch_clips=2, seed=3, max_val_clips=2)
    train_flow_model(train, val, tiny_net(), cfg, root / "run.ckpt",
                     log_path=root / "run.log.jsonl")


def run_task(task: str, strategy: str, root):
    train = [task_clip(s, s % 2) for s in range(5)]
    if task == "hp":
        train.append(task_clip(5, 1, valid=False))  # no valid point: no loss
    val = [task_clip(s, s % 2) for s in range(20, 23)]
    flow = None if strategy == "raw" else FlowNet(tiny_net(), seed=1)
    cfg = TrainConfig(lr=5e-3, epochs=3, batch_clips=2, seed=4, max_val_clips=2,
                      patience=1)
    train_task_model(task, train, val, tiny_task(), cfg, strategy,
                     root / "run.ckpt", flow_model=flow,
                     n_classes=2 if task == "har" else 3,
                     log_path=root / "run.log.jsonl")


RUNS = {
    "flow": run_flow,
    "har-raw": lambda root: run_task("har", "raw", root),
    "har-s1": lambda root: run_task("har", "s1", root),
    "hp-s2": lambda root: run_task("hp", "s2", root),
}

# (checkpoint SHA-256, log SHA-256) per run
GOLDEN = {
    "flow": ("c3263ee07d3590ce2cde2a0fc792aa86cd1d8fccde2f128f385043501e49e2a1",
             "04f5efa0bb0e69584c9694f8dbaccc2e58a9915bd65362830ac3177e9e227501"),
    "har-raw": ("aa8328bd512a2223a25e0182afc0583c8d7c3b290b0fa45b3929ff4fd72c1409",
                "c2328c4f887bf0a369096be9a49cb8c5fcd97144065494a04ce6fa37377a0582"),
    "har-s1": ("8e510d06a075a1b6f9705824d7ec6f03404466eefd62d9f995e1979c8ccd06e5",
               "a3fbf2b7bbc59992d1d5365c1b7f4ae45c822296cc79b7a41df015d7f9ff2c6b"),
    "hp-s2": ("8d140d25649fc5469e2e51b0c9086df275ab56fb8d6202af670ca165ad95e40e",
              "cb50debad7a3fa8054d8d2ffe26ff4934d989bbf3d8f57687befd444396ac1dd"),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_training_bytes_unchanged(tmp_path, run):
    RUNS[run](tmp_path)
    got = (sha256(tmp_path / "run.ckpt"), sha256(tmp_path / "run.log.jsonl"))
    assert got == GOLDEN[run]


# the har-s1 checkpoint from before s1 checkpoints stored their frozen flow model
HAR_S1_TASK_ONLY = "115374ed60b2512585393303ad6b3afdc94e220eb6f3a5c967d62164254e413e"


def test_s1_checkpoint_adds_only_its_frozen_flow_model(tmp_path):
    run_task("har", "s1", tmp_path)
    values, config = load_checkpoint(tmp_path / "run.ckpt")
    frozen = FlowNet(tiny_net(), seed=1)
    assert config.pop("flow") == json.loads(json.dumps(frozen.config_dict()))
    for name, t in frozen.named_params().items():
        assert values.pop(f"flow.{name}").tobytes() == t.data.astype("<f8").tobytes()
    save_checkpoint(tmp_path / "task_only.ckpt", values, config=config)
    assert sha256(tmp_path / "task_only.ckpt") == HAR_S1_TASK_ONLY
