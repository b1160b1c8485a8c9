"""The networks against their first-written forms in `kernel_oracles`.

The program never builds what those forms build: set abstraction runs on
each centroid's real neighbours, not on padded ball rows; the cost volume
multiplies source features once per source point and target features once
per target point, not the (N, k, 2C + 3) pair input; and a first layer
multiplies the rows every point shares (the pooled context g, the GRU state)
once.  In float64 the flows, scores and every parameter gradient agree with
the first-written forms to 1e-12 of the largest entry of each tensor.  The
biases that feed a softmax have a true gradient of exactly 0 (a softmax
does not move when all its inputs do): the output biases of the attention
MLPs and of the cost volume's weight MLPs, and the hidden biases of an
attention MLP whose units are active on every row.  Both forms give
rounding noise there, so the biases of those MLPs are held to 1e-12 of the
largest gradient of the model.

Preprocessing draws no row twice, but a user's own files may hold frames
with repeated rows ("twins").  So the program is held to the first-written
forms on frames drawn with replacement too: the flow network, and the task
networks on frames whose twins share every feature column, on a frame of
fewer distinct points than farthest point sampling asks for, and on a
frame with two rows of one point but different features; the gradient that
the features receive, summed over each row's twins, is held with them (a
max over equal rows may give its gradient to either copy).

The guards below check that the waste stays out: the first set-abstraction
layer of a frame sees one row per ball hit, a pair builds its source's, its
target's and the cost volume's neighbour tables and no more, the cost
volume's MLP gets no pair input, and a clip's tape holds one node per MLP
and per gate, not one per product, bias sum and ReLU.
"""

import numpy as np
import pytest

import kernel_oracles as oracle
from helpers import jitter_params
from test_flownet import chained_clip, copied, make_frame, make_label, tiny_net

from milliflow import _kernels
from milliflow import autodiff as ad
from milliflow._kernels import NeighbourTable
from milliflow.autodiff import Tensor
from milliflow.config import NetConfig, TaskConfig
from milliflow.dataio import Sample
from milliflow.downstream import HarNet, HpNet, balanced_cross_entropy, cross_entropy
from milliflow.flownet import FlowNet, clip_loss

REL = 1e-12

# radii and sample counts that leave most balls short of their sample count
# (padded in the first-written form) and some cut at it
NET = dict(sa_radii=(0.3, 0.6), sa_samples=(4, 8))


def oracle_task() -> TaskConfig:
    return TaskConfig(sa_radii=(0.3, 0.6), sa_samples=(4, 8), sa_mlp=(8, 8),
                      post_sa_mlp=(8, 8), attention_hidden=4, fps_centroids=6,
                      stage2_radius=0.5, stage2_samples=6, stage2_mlp=(8, 8),
                      lstm_hidden=6, gru_hidden=6, classifier=(8,), window=3)


def softmax_bias(name: str) -> bool:
    return ".b" in name and ("attn." in name or name.startswith(("cv.weight1.", "cv.weight2.")))


def gradients(named, loss):
    """Every parameter's gradient of `loss`; those it does not reach are left out."""
    for t in named.values():
        t.zero_grad()
    loss.backward()
    return {name: t.grad.copy() for name, t in named.items() if t.grad is not None}


def assert_close(got, want, scale=None, what=""):
    want = np.asarray(want)
    bound = REL * (np.abs(want).max() if scale is None else scale)
    assert np.abs(np.asarray(got) - want).max() <= bound, what


def assert_gradients_match(got, want):
    assert sorted(got) == sorted(want)
    scale = max(np.abs(g).max() for g in want.values())
    for name in want:
        assert_close(got[name], want[name], scale if softmax_bias(name) else None, name)


def model_with_jitter(cls, *args, **kwargs):
    model = cls(*args, dtype=np.float64, **kwargs)
    jitter_params(model.named_params(), np.random.default_rng(5))
    return model


def resampled_clip(n_samples=6, n=24, rows=48, seed=3):
    """`chained_clip` with each frame's `rows` rows drawn with replacement
    from `n` points: most points come with twins."""
    rng = np.random.default_rng(seed)
    frames = [make_frame(n, seed + t).subset(np.sort(rng.choice(n, rows, replace=True)))
              for t in range(n_samples + 1)]
    return [Sample(source=copied(frames[t]), target=copied(frames[t + 1]),
                   label=make_label(rows, seed + 50 + t)) for t in range(n_samples)]


def inputs_of(frame) -> np.ndarray:
    return np.column_stack([frame.points, frame.intensities]).astype(np.float32)


@pytest.mark.parametrize("temporal", [True, False])
def test_flownet_matches_concat_forms(temporal):
    # six chained pairs: the GRU state is reset after the fifth
    check_flownet_against_concat_forms(temporal, chained_clip(n_samples=6, n=24, seed=3))


@pytest.mark.parametrize("temporal", [True, False])
def test_flownet_on_resampled_frames_matches_concat_forms(temporal):
    clip = resampled_clip()
    for sample in clip:
        assert len(np.unique(inputs_of(sample.source), axis=0)) < len(sample.source)
    check_flownet_against_concat_forms(temporal, clip)


def check_flownet_against_concat_forms(temporal, clip):
    model = model_with_jitter(FlowNet, tiny_net(temporal=temporal, clamp=10.0, **NET), seed=7)
    named = model.named_params()
    want_loss, want_flows = oracle.flow_clip_loss_concat(model, clip)
    want = gradients(named, want_loss)
    state, flows = model.initial_state(), []
    for sample in clip:
        out, state, _ = model.forward(sample.source, sample.target, state)
        flows.append(out.data)
    got_loss = clip_loss(model, clip)
    got = gradients(named, got_loss)
    for a, b in zip(flows, want_flows, strict=True):
        assert_close(a, b.data)
    assert_close(got_loss.data, want_loss.data)
    assert_gradients_match(got, want)


def task_frames(n_frames=3):
    frames = [make_frame(20, seed=40 + t) for t in range(n_frames)]
    return frames, [Tensor(f.intensities[:, None]) for f in frames]


def test_harnet_stage2_matches_concat_forms():
    model = model_with_jitter(HarNet, oracle_task(), 1, 3, seed=2)
    named = model.named_params()
    frames, feats = task_frames()
    want_scores = oracle.har_forward_concat(model, frames, feats)
    want = gradients(named, cross_entropy(want_scores, [1]))
    got_scores = model.forward(frames, feats)
    got = gradients(named, cross_entropy(got_scores, [1]))
    assert_close(got_scores.data, want_scores.data)
    assert_gradients_match(got, want)


def test_hpnet_head_matches_concat_forms():
    model = model_with_jitter(HpNet, oracle_task(), 1, 3, seed=2)
    named = model.named_params()
    frames, feats = task_frames()
    labels = [make_label(20, seed=60 + t) for t in range(len(frames))]
    segments = np.concatenate([np.arange(20) % 3 for _ in frames])
    valid = np.concatenate([label.valid_mask for label in labels])

    def loss(scores):
        return balanced_cross_entropy(ad.concat(scores, axis=0), segments, valid)

    want_scores = oracle.hp_forward_concat(model, frames, feats)
    want = gradients(named, loss(want_scores))
    got_scores = model.forward(frames, feats)
    got = gradients(named, loss(got_scores))
    for a, b in zip(got_scores, want_scores, strict=True):
        assert_close(a.data, b.data)
    assert_gradients_match(got, want)


TWIN_WINDOWS = ("resampled", "fewer_distinct_than_centroids", "twin_points_other_feats")


def twin_window(case: str, seed=8):
    """Three frames, each drawn with replacement from 16 points, with four
    feature columns (an intensity and
    three flow-like columns) that twins share.  In "fewer_distinct_than_
    centroids" the middle frame has 4 distinct points, fewer than
    `oracle_task`'s 6 centroids; in "twin_points_other_feats" two rows of
    one point in it get different features.  -> (frames, feature arrays)."""
    rng = np.random.default_rng(seed)
    frames, feats = [], []
    for t in range(3):
        n = 4 if case == "fewer_distinct_than_centroids" and t == 1 else 16
        base = make_frame(n, seed=40 + t)
        rows = np.sort(rng.choice(n, 3 * n, replace=True))
        cols = np.column_stack([base.intensities, rng.normal(0.0, 0.05, (n, 3))])[rows]
        if case == "twin_points_other_feats" and t == 1:
            twin = np.flatnonzero(rows[1:] == rows[:-1])[0] + 1
            cols[twin, 1] += 0.01
        frames.append(base.subset(rows))
        feats.append(cols)
    return frames, feats


@pytest.mark.parametrize("case", TWIN_WINDOWS)
@pytest.mark.parametrize("task", ["har", "hp"])
def test_task_networks_on_resampled_frames_match_concat_forms(task, case):
    frames, cols = twin_window(case)
    # each row's twin group: its distinct (point, features) row
    groups = [np.unique(np.column_stack([f.points, c]), axis=0, return_inverse=True)[1]
              .reshape(-1) for f, c in zip(frames, cols)]
    assert all(g.max() + 1 < len(g) for g in groups)  # every frame has twins
    if case == "fewer_distinct_than_centroids":
        assert len(np.unique(frames[1].points, axis=0)) < oracle_task().fps_centroids
    if case == "twin_points_other_feats":
        assert len(np.unique(frames[1].points, axis=0)) < groups[1].max() + 1
    model = model_with_jitter(HarNet if task == "har" else HpNet, oracle_task(), 4, 3, seed=2)

    def run(forward):
        feats = [Tensor(c.copy(), requires_grad=True) for c in cols]
        scores = forward(model, frames, feats)
        if task == "har":
            loss = cross_entropy(scores, [1])
        else:
            segments = np.concatenate([np.arange(len(f)) % 3 for f in frames])
            loss = balanced_cross_entropy(ad.concat(scores, axis=0), segments,
                                          np.ones(len(segments), bool))
        named = dict(model.named_params(), **{f"feats{t}": f for t, f in enumerate(feats)})
        grads = gradients(named, loss)
        # a feature's gradient, summed over each twin group: a max over
        # equal rows may give its gradient to either copy
        for t, group in enumerate(groups):
            summed = np.zeros((group.max() + 1, cols[t].shape[1]))
            np.add.at(summed, group, grads[f"feats{t}"])
            grads[f"feats{t}"] = summed
        return scores if task == "har" else ad.concat(scores, axis=0), grads

    want_scores, want = run(oracle.har_forward_concat if task == "har"
                            else oracle.hp_forward_concat)
    got_scores, got = run(type(model).forward)
    assert_close(got_scores.data, want_scores.data)
    assert_gradients_match(got, want)


def record_mlp_blocks(monkeypatch) -> list:
    """[(first weight, block shapes)] of each `ad.mlp` call from here on; a
    gathered block's shape is the pair (x shape, idx shape)."""
    seen, mlp = [], ad.mlp

    def recorded(blocks, weights, biases):
        seen.append((weights[0], [(b[0].shape, np.shape(b[1])) if isinstance(b, tuple)
                                  else b.shape for b in blocks]))
        return mlp(blocks, weights, biases)

    monkeypatch.setattr(ad, "mlp", recorded)
    return seen


def tape_nodes(loss: Tensor) -> int:
    """How many tensors the tape below `loss` holds, `loss` and leaves included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class TestNoWaste:
    def test_first_set_abstraction_layer_sees_one_row_per_hit(self, monkeypatch):
        model = FlowNet(tiny_net(**NET), seed=0)
        frame = make_frame(40, seed=1)
        points = frame.points.astype(np.float32)
        table = NeighbourTable(points)
        seen = record_mlp_blocks(monkeypatch)
        model.local(points, Tensor(frame.intensities.astype(np.float32)[:, None]), table)
        for sa, radius, samples in zip(model.local.sas, NET["sa_radii"], NET["sa_samples"]):
            _, counts = table.ball(radius, samples)
            hits = counts.sum()
            # relative positions: one row per hit; intensities: one row per
            # point, gathered by hit
            assert [blocks for w, blocks in seen if w is sa.weights[0]] == [
                [(hits, 3), ((40, 1), (hits,))]]
            assert hits < 40 * samples  # the padded form's rows

    def test_a_pair_builds_its_three_tables(self, monkeypatch):
        # frames of 30, 25 and 20 points, in two chained pairs: the second
        # pair's source is the first pair's target, whose encoding it reuses
        model = FlowNet(tiny_net(**NET), seed=0)
        frames = [make_frame(n, seed=n) for n in (30, 25, 20)]
        clip = [Sample(source=copied(frames[t]), target=copied(frames[t + 1]),
                       label=make_label(len(frames[t]), seed=t)) for t in range(2)]
        shapes, distances = [], _kernels.squared_distances

        def recorded(query, ref):
            shapes.append((len(query), len(ref)))
            return distances(query, ref)

        monkeypatch.setattr(_kernels, "squared_distances", recorded)
        state = model.initial_state()
        for sample in clip:
            _, state, _ = model.forward(sample.source, sample.target, state)
        # each frame's own table once, which its ball queries, the context
        # encoder and the cost volume's self-kNN share; and the cost
        # volume's source against target
        assert shapes == [(30, 30), (25, 25), (30, 25), (20, 20), (25, 20)]

    def test_cost_volume_builds_no_pair_input(self, monkeypatch):
        cfg = tiny_net(**NET)
        model = FlowNet(cfg, seed=0)
        f, k = model.local.feat_out, cfg.cv_k
        seen = record_mlp_blocks(monkeypatch)
        model.forward(make_frame(30, seed=2), make_frame(25, seed=3), model.initial_state())
        # z = [k || g] of each frame: the source's k once per source point,
        # the target's once per target point and gathered, each g once; only
        # the displacements come per (point, neighbour) pair
        assert [blocks for w, blocks in seen if w is model.cv.cost_mlp.weights[0]] == [
            [(30, 1, f), (f,), ((25, f), (30, k)), (f,), (30, k, 3)]]

    def test_clip_tape_holds_one_node_per_mlp(self):
        # a default float32 net on 5 pairs of 128 points; recorded op by op
        # (each product, bias sum and ReLU a node), its tape held 1,598
        loss = clip_loss(FlowNet(NetConfig(), seed=0), chained_clip(n_samples=5, n=128))
        assert tape_nodes(loss) <= 799
