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

The first-written forms run every row of a frame, so on frames resampled
with replacement, as train-mode preprocessing draws them, they hold the
program, which computes each distinct point once, to the multiset's
outputs.  The task networks are held so too, on frames whose twins share
every feature column, on a frame of fewer distinct points than farthest
point sampling asks for, and on a frame with two rows of one point but
different features; the gradient that the features receive, summed over
each distinct row's copies, is held with them.

The guards below check that the waste stays out: the first set-abstraction
layer of a frame sees one row per ball hit, every per-point layer one row
per distinct point, in the flow network and in the task networks, every
neighbour table has one row per distinct point, the cost volume's MLP gets
no pair input, and a clip's tape holds one node per MLP and per gate, not
one per product, bias sum and ReLU.
"""

import numpy as np
import pytest

import kernel_oracles as oracle
from helpers import jitter_params
from test_flownet import chained_clip, copied, make_frame, make_label, tiny_net

from milliflow import _kernels
from milliflow import autodiff as ad
from milliflow._kernels import NeighbourTable, distinct_rows, farthest_point_sample
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
    from `n` points, as train-mode preprocessing draws a frame's rows when
    fewer points survive: most points come with twins."""
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
    """Three frames, each drawn with replacement from 16 points as train-mode
    preprocessing draws them, with four feature columns (an intensity and
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
    inverses = [distinct_rows(np.column_stack([f.points, c]))[1] for f, c in zip(frames, cols)]
    assert all(inv.max() + 1 < len(inv) for inv in inverses)  # every frame has twins
    if case == "fewer_distinct_than_centroids":
        assert len(np.unique(frames[1].points, axis=0)) < oracle_task().fps_centroids
    if case == "twin_points_other_feats":
        assert len(np.unique(frames[1].points, axis=0)) < inverses[1].max() + 1
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
        # a feature's gradient, summed over the copies of each distinct row
        for t, inverse in enumerate(inverses):
            summed = np.zeros((inverse.max() + 1, cols[t].shape[1]))
            np.add.at(summed, inverse, grads[f"feats{t}"])
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
        model.local(points, Tensor(frame.intensities.astype(np.float32)[:, None]), table,
                    np.ones(40, dtype=np.int64))
        for sa, radius, samples in zip(model.local.sas, NET["sa_radii"], NET["sa_samples"]):
            _, counts = table.ball(radius, samples)
            hits = counts.sum()
            # relative positions: one row per hit; intensities: one row per
            # point, gathered by hit
            assert [blocks for w, blocks in seen if w is sa.weights[0]] == [
                [(hits, 3), ((40, 1), (hits,))]]
            assert hits < 40 * samples  # the padded form's rows

    def test_per_point_layers_see_each_distinct_point_once(self, monkeypatch):
        cfg = tiny_net(**NET)
        model = FlowNet(cfg, seed=0)
        sample = resampled_clip(n_samples=1, n=40, rows=128)[0]
        distinct = []  # per frame: (distinct points U, ball hits per radius)
        for frame in (sample.source, sample.target):
            _, first = np.unique(inputs_of(frame), axis=0, return_index=True)
            table = NeighbourTable(frame.points.astype(np.float32))
            distinct.append((len(first), [
                table.ball(radius, samples, first)[1].sum()
                for radius, samples in zip(NET["sa_radii"], NET["sa_samples"])]))
        (u_p, hits_p), (u_q, hits_q) = distinct
        assert u_p < 64 and u_q < 64
        seen = record_mlp_blocks(monkeypatch)
        model.forward(sample.source, sample.target, model.initial_state())
        # the first set-abstraction layer: one row per hit of a distinct
        # centroid's ball (the multiset's ball, twins included); intensities
        # once per distinct point, gathered by hit
        for s, sa in enumerate(model.local.sas):
            assert [blocks for w, blocks in seen if w is sa.weights[0]] == [
                [(hits_p[s], 3), ((u_p, 1), (hits_p[s],))],
                [(hits_q[s], 3), ((u_q, 1), (hits_q[s],))]]
        assert [blocks for w, blocks in seen if w is model.ctx.sas[0].weights[0]] == [
            [(hits_p[0], 3), ((u_p, 1), (hits_p[0],))]]
        # every other per-point layer: one row per distinct point
        first_sa = {id(sa.weights[0]) for enc in (model.local, model.ctx) for sa in enc.sas}
        for w, blocks in seen:
            if id(w) in first_sa:
                continue
            for b in blocks:
                rows = [b[0][0], b[1][0]] if isinstance(b[0], tuple) else b[:-1][:1]
                assert set(rows) <= {u_p, u_q}, (w.shape, blocks)

    @pytest.mark.parametrize("cls", [HarNet, HpNet])
    def test_task_networks_see_each_distinct_point_once(self, monkeypatch, cls):
        cfg = oracle_task()
        model = cls(cfg, 1, 3, seed=0)
        frame = resampled_clip(n_samples=1, n=40, rows=128)[0].source
        points = frame.points.astype(np.float32)
        _, first = np.unique(inputs_of(frame), axis=0, return_index=True)
        u = len(first)
        assert u < 64
        table = NeighbourTable(points)
        hits = [table.ball(radius, samples, first)[1].sum()
                for radius, samples in zip(cfg.sa_radii, cfg.sa_samples)]
        seen = record_mlp_blocks(monkeypatch)
        model.forward([frame], [Tensor(frame.intensities.astype(np.float32)[:, None])])
        # the first set-abstraction layer: one row per hit of a distinct
        # centroid's ball; intensities once per distinct point, gathered by hit
        for s, sa in enumerate(model.encoder.sas):
            assert [blocks for w, blocks in seen if w is sa.weights[0]] == [
                [(hits[s], 3), ((u, 1), (hits[s],))]]
        skip = {id(sa.weights[0]) for sa in model.encoder.sas}
        if cls is HarNet:
            # stage 2: one row per hit of a centroid's ball, the features of
            # each distinct point once, gathered by hit; its pool, one row
            # per centroid
            start = int(np.lexsort((points[:, 2], points[:, 1], points[:, 0]))[0])
            centroids = farthest_point_sample(points, cfg.fps_centroids, start)
            r2 = table.ball(cfg.stage2_radius, cfg.stage2_samples, centroids)[1].sum()
            f = model.encoder.feat_out
            assert [blocks for w, blocks in seen if w is model.stage2.weights[0]] == [
                [(r2, 3), ((u, f), (r2,)), (f,)]]
            assert [blocks for w, blocks in seen if w is model.stage2_attn.weights[0]] == [
                [(cfg.fps_centroids, cfg.stage2_mlp[-1])]]
            skip |= {id(model.stage2.weights[0]), id(model.stage2_attn.weights[0])}
        # every other per-point layer: one row per distinct point
        for w, blocks in seen:
            if id(w) in skip:
                continue
            for b in blocks:
                rows = b[0][:1] if isinstance(b[0], tuple) else b[:-1]
                assert set(rows) <= {u}, (w.shape, blocks)

    def test_each_table_is_built_for_distinct_points_only(self, monkeypatch):
        model = FlowNet(tiny_net(**NET), seed=0)
        sample = resampled_clip(n_samples=1, n=40, rows=128)[0]
        (u_p, n_p), (u_q, n_q) = [(len(np.unique(inputs_of(f), axis=0)), len(f))
                                  for f in (sample.source, sample.target)]
        assert u_p < n_p and u_q < n_q
        shapes, distances = [], _kernels.squared_distances

        def recorded(query, ref):
            shapes.append((len(query), len(ref)))
            return distances(query, ref)

        monkeypatch.setattr(_kernels, "squared_distances", recorded)
        model.forward(sample.source, sample.target, model.initial_state())
        # each frame's table: its distinct points against all its rows; the
        # cost volume's: the source's distinct points against every target row
        assert shapes == [(u_p, n_p), (u_q, n_q), (u_p, n_q)]

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
