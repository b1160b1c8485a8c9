"""Golden task-output hashes: what the activity (HAR) and parsing (HP)
networks compute on the golden-inputs sequences.

Seeded tiny `HarNet` and `HpNet` score the task windows of the
`test_golden_inputs` sequences, one of whose frames preprocessing empties,
with each feature strategy.  `predict` and `evaluate` are hashed on the
test windows; `clip_loss` and the gradients it sends to the task (and, for
s2, the flow) parameters are hashed on the train windows.  A change that
moves these hashes changes what the task networks compute; re-record them
only together with an explanation of why.

The `clip_loss` hashes were re-recorded once, when the networks stopped
computing ball-query padding and rows that every point shares (ragged set
abstraction, row-block first layers, one 2-D GEMM per product).  The
functions are the same, summed in another order, so the bytes moved within
rounding; `test_network_oracle.py` holds the new forms to the old ones to
1e-12 in float64.  The predicted classes and `evaluate`'s scores held.

The `clip_loss/grad` hashes alone were re-recorded once more, when each MLP
and each recurrent gate became one tape node (`ad.mlp`, in place of
`linear`, `matmul_rows`, `take`, `add` and `relu` nodes).  One call's
gradients keep their bytes, but for a first-layer bias now summed over
several broadcast axes at once; and where a tensor has several consumers,
their gradients are summed in the tape's topological order, which moved
with the node count.  So the bytes moved within rounding.  The
`clip_loss`, `predict` and `evaluate` hashes held.

The s1 and s2 `clip_loss` and `clip_loss/grad` hashes moved once more, when
the flow network began to compute each distinct point of a frame once: the
train windows' frames are drawn with replacement, so the flows and
features that decorate them, and the flow gradients of s2, moved within
rounding (`test_golden_inputs` gives the reason).  `clip_loss/har/s1` held.
The raw hashes, and every `predict` and `evaluate` hash, held.

Every `clip_loss` and `clip_loss/grad` hash moved once more, when the task
networks began to encode each distinct row of a frame once, through the
flow network's `encode`: the train windows' frames are drawn with
replacement, so most rows have twins, equal in the point and in every
feature column.  Each MLP and pool now runs on a frame's distinct rows,
the attention pool weighs each by its count and HpNet gives each row its
distinct row's scores: the same functions, summed in another order, so the
bytes moved within rounding (at most 3e-6 of the largest gradient of a
clip, in float32).  `test_network_oracle.py` holds both networks on
resampled frames to their every-row forms to 1e-12 in float64.  Every
`predict` and `evaluate` hash held: test windows keep every survivor of a
frame, without twins.

Every `clip_loss` and `clip_loss/grad` hash moved once more, when train and
val preprocessing stopped drawing a frame's rows with replacement: the
train windows' frames now keep each of their survivors once, so the losses
are those of other inputs (`test_golden_inputs` gives the reason).  Every
`predict` and `evaluate` hash held.

Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, on its AVX-512
(SkylakeX) kernels.  The bytes depend on the BLAS kernel: an OpenBLAS built
with DYNAMIC_ARCH picks its core type at run time, and under
`OPENBLAS_CORETYPE=Haswell` or `Prescott` the inputs and the network's
matrix products round differently, so the `clip_loss` hashes move (the
predicted classes and `evaluate`'s scores held).
"""

import pytest

from test_golden_inputs import digest, flow_model, sequences  # noqa: F401
from test_golden_training import tiny_task

from milliflow.downstream import (
    TASK_NETS, clip_loss, decorate_clip, evaluate, predict, strategy_feature_dim, task_clips,
)
from milliflow.labeling import N_SEGMENTS
from milliflow.skeleton import IN_SET_ACTIVITIES

N_CLASSES = {"har": len(IN_SET_ACTIVITIES), "hp": N_SEGMENTS}

GOLDEN = {
    "predict/har/raw":
        "1f93ac4775ef6863a73527b42ec8743cc8d9bc754357210bdc18dcce8c0fd7f8",
    "predict/har/s1":
        "20e6ac18b21754b56e462e6b3d362024ae5812dc2e3ae32d0206eca694ee3c03",
    "predict/har/s2":
        "f6173283a0019b814fc4554409dfff357c8cf1ca67e2ad04b22a0e6e60a989aa",
    "predict/hp/raw":
        "88d20e88e2ab91cd1a75f595b7170b244f23663fd7aab03b6e05519c8f25e712",
    "predict/hp/s1":
        "3343f2bf48a50245740fd730829fd10a9472735e9e997373ba92e896953a82a9",
    "predict/hp/s2":
        "0bcb35fa19d26ff37c1b15699ecadb190fb0b19eae47f80d40fb63b3b02a96f3",
    "evaluate/har/raw":
        "3d686a4e1dee75c83869f920dd4966d4e4746dac7887b3bb666607e8eea17a73",
    "evaluate/har/s1":
        "8c16a10c4375e6d4f352005ac33afdfc6fa3335ce6cc8bbcd68fe10c6fc76e33",
    "evaluate/har/s2":
        "cab01b60cbff2b9f71bf9a1df6d81eb9632d8a0c7d6160c15d15568fa3ea3f02",
    "evaluate/hp/raw":
        "26481d3055a2355653d897a753c7fb9a6ec19010e18d1130c2db4442019923e1",
    "evaluate/hp/s1":
        "93721f4da0927cd018ae575df733a9d2d86a31bcf1e7be70cc6da42ae6879f9d",
    "evaluate/hp/s2":
        "735bfa5b62235a65b6d7a2729185a58777f1f4f85ea9cced63e1f668c6f543b0",
    "clip_loss/har/raw":
        "c5ded69ec57e019144128c52f496c5d397313b2dfb8e61a55e10454dd72b7d16",
    "clip_loss/har/s1":
        "82fb171360c4b5ccd23242dd3b093a84cf15446c5064c8c1f22b77de787f2064",
    "clip_loss/har/s2":
        "8c4706ad5465bf53190095f677781e01cc41efc8217121ce7e3426cc7b581e30",
    "clip_loss/hp/raw":
        "7a3c3e74d9b7c2e174788678c8b8bbd2f27c3628cb1704da0b4470ec751cc499",
    "clip_loss/hp/s1":
        "5a0251069a7dab150515b6a01b0747277279f8d34c94311a1c6b1c113944cfe5",
    "clip_loss/hp/s2":
        "72bb43103af54f6bedc9879145dd2be8a54600cd12cefb9eb3e50c7aa7769fd7",
    "clip_loss/grad/har/raw":
        "e2f98a3f20e4aefabd98465355203d6e4a97bfac1203ee6b1eb2010ad43ddae7",
    "clip_loss/grad/har/s1":
        "9b703bbd587d5564f113279dfdbf16cf4dc1c7f24e0533e20713c60b252f0694",
    "clip_loss/grad/har/s2":
        "0e58677977b90dd35cb52095bebddb3ea89125a6a284439f20e7c9e7c368ec90",
    "clip_loss/grad/hp/raw":
        "853d2bc7f95a597a5440797aeb573cb1049b1ff1b791470362ecbf4a18622a3f",
    "clip_loss/grad/hp/s1":
        "349c6a629e36330ddddff03bf8c80701ae2ddacf092fdc3aa46c87c6ca0e1cdd",
    "clip_loss/grad/hp/s2":
        "bc5ca7aa5c3f4a6a8823cf07ee82c7603b150ab7ebaa22efdb1f92d1e00cc30d",
}


def task_model(task, strategy, flow_model):
    flow = None if strategy == "raw" else flow_model
    return TASK_NETS[task](tiny_task(), strategy_feature_dim(strategy, flow),
                           n_classes=N_CLASSES[task], seed=1), flow


@pytest.mark.parametrize("task", ["har", "hp"])
@pytest.mark.parametrize("strategy", ["raw", "s1", "s2"])
def test_predict_and_evaluate(sequences, flow_model, task, strategy):  # noqa: F811
    model, flow = task_model(task, strategy, flow_model)
    clips = task_clips(sequences, tiny_task(), "test", catalogue=IN_SET_ACTIVITIES)
    preds, truths = predict(model, clips, strategy, flow)
    report = evaluate(model, clips, strategy, flow)
    assert len(preds) == len(truths) == report["n_clips" if task == "har" else "n_points"]
    assert digest([preds, truths]) == GOLDEN[f"predict/{task}/{strategy}"]
    assert digest(report) == GOLDEN[f"evaluate/{task}/{strategy}"]


@pytest.mark.parametrize("task", ["har", "hp"])
@pytest.mark.parametrize("strategy", ["raw", "s1", "s2"])
def test_clip_losses_and_gradients(sequences, flow_model, task, strategy):  # noqa: F811
    model, flow = task_model(task, strategy, flow_model)
    named = model.named_params()
    if strategy == "s2":
        named.update({f"flow.{k}": t for k, t in flow.named_params().items()})
    losses, grads = [], []
    for clip in task_clips(sequences, tiny_task(), "train", catalogue=IN_SET_ACTIVITIES,
                           seed=3):
        for t in named.values():
            t.zero_grad()
        loss = clip_loss(model, clip, decorate_clip(clip.frames, strategy, flow), flow)
        losses.append(loss)
        if loss is not None:
            loss.backward()
            grads.append({k: t.grad for k, t in named.items()})
    assert len(grads) > 0
    assert digest(losses) == GOLDEN[f"clip_loss/{task}/{strategy}"]
    assert digest(grads) == GOLDEN[f"clip_loss/grad/{task}/{strategy}"]
