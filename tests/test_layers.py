import struct

import numpy as np
import pytest
from helpers import check_param_grads, jitter_params

from milliflow import autodiff as ad
from milliflow import layers as L
from milliflow._kernels import NeighbourTable, farthest_point_sample, knn_indices
from milliflow.autodiff import Tensor
from milliflow.config import EncoderConfig, NetConfig, TaskConfig
from milliflow.errors import BadK, ConfigError, CorruptFile, ShapeMismatch


def sq_sum(t):
    return ad.tsum(ad.powr(t, 2.0))


def params(rng, dtype=np.float64):
    """A parameter source that draws from `rng` itself, so a test's later
    draws from `rng` follow the layer's."""
    return L.Params(dtype, seed=rng)


def zero_out(source):
    for t in source.named.values():
        t.data = np.zeros_like(t.data)


class TestMLP:
    def test_identity_weights_pass_input_through(self):
        mlp = L.MLP(params(np.random.default_rng(0)), 3, [3])
        mlp.weights[0].data = np.eye(3)
        x = np.array([[1.0, -2.0, 0.5], [0.0, 4.0, -1.0]])
        np.testing.assert_array_equal(mlp(Tensor(x)).data, x)

    def test_two_layer_identity_on_nonnegative_input(self):
        mlp = L.MLP(params(np.random.default_rng(0)), 3, [3, 3])
        for w in mlp.weights:
            w.data = np.eye(3)
        x = np.array([[1.0, 2.0, 0.0]])
        np.testing.assert_array_equal(mlp(Tensor(x)).data, x)

    def test_zero_weights_broadcast_bias(self):
        source = params(np.random.default_rng(1))
        mlp = L.MLP(source, 4, [5, 2])
        zero_out(source)
        mlp.biases[-1].data = np.array([3.0, -1.0])
        out = mlp(Tensor(np.random.default_rng(2).normal(size=(7, 4))))
        np.testing.assert_array_equal(out.data, np.tile([3.0, -1.0], (7, 1)))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        source = params(rng)
        mlp = L.MLP(source.scope("mlp"), 4, [6, 3])
        jitter_params(source.named, rng)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        check_param_grads(lambda: sq_sum(mlp(x)), dict(source.named, x=x))

    def test_input_dim_mismatch(self):
        mlp = L.MLP(params(np.random.default_rng(0)), 4, [2])
        with pytest.raises(ShapeMismatch):
            mlp(Tensor(np.zeros((3, 5))))

    def test_empty_dims_rejected(self):
        # MLP takes its widths as given; the config sections that list an
        # MLP's widths refuse an empty list (every other MLP is built from a
        # literal list that ends in its output width)
        for cls, name in ((EncoderConfig, "sa_mlp"), (EncoderConfig, "post_sa_mlp"),
                          (NetConfig, "embed_mlp"), (TaskConfig, "stage2_mlp")):
            with pytest.raises(ConfigError, match=name):
                cls(**{name: ()})

    def test_named_params_layout(self):
        source = params(np.random.default_rng(0))
        L.MLP(source.scope("enc"), 4, [2, 3])
        names = sorted(source.named)
        assert names == ["enc.b0", "enc.b1", "enc.w0", "enc.w1"]

    def test_kaiming_bound(self):
        w = params(np.random.default_rng(0)).weight("w", 100, (100, 400)).data
        bound = np.sqrt(6.0 / 100)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.9 * bound  # actually fills the range


class TestSampling:
    def test_fps_collinear(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        idx = farthest_point_sample(pts, 2)
        assert idx[0] == 0
        assert set(idx) == {0, 3}

    def test_fps_k_equals_n(self):
        pts = np.random.default_rng(0).normal(size=(9, 3))
        idx = farthest_point_sample(pts, 9, start=4)
        assert idx[0] == 4
        assert sorted(idx) == list(range(9))

    def test_fps_bad_k(self):
        pts = np.zeros((4, 3))
        with pytest.raises(BadK):
            farthest_point_sample(pts, 0)
        with pytest.raises(BadK):
            farthest_point_sample(pts, 5)
        with pytest.raises(BadK):
            farthest_point_sample(pts, 2, start=4)

    def test_ball_query_validation(self):
        # ball_query's radii and sample counts come from these fields, which
        # refuse a value that is not positive
        for cls, name, value in ((EncoderConfig, "sa_radii", (0.1, 0.0, 0.2, 0.4)),
                                 (EncoderConfig, "sa_samples", (4, 8, 0, 32)),
                                 (TaskConfig, "stage2_radius", 0.0),
                                 (TaskConfig, "stage2_samples", 0)):
            with pytest.raises(ConfigError, match=f"{name} must be positive"):
                cls(**{name: value})

    def test_ball_query_indices_in_range(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 3))
        neighbours, counts = L.ball_query(NeighbourTable(pts[:5], pts), 0.8, 6)
        assert counts.shape == (5,) and counts.min() >= 1 and counts.max() <= 6
        assert neighbours.shape == (counts.sum(),)
        assert neighbours.min() >= 0 and neighbours.max() < 20

    def test_ball_query_reads_given_table(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3))
        rows = np.array([4, 0, 17])
        want = L.ball_query(NeighbourTable(pts[rows], pts), 0.8, 6)
        table = NeighbourTable(pts)
        for got, expect in zip(L.ball_query(table, 0.8, 6, rows), want, strict=True):
            np.testing.assert_array_equal(got, expect)


def set_abstraction(mlp, pts, feats, radius, n_samples, centroid_idx=None):
    """`L.set_abstraction` on a neighbour table of its own."""
    return L.set_abstraction(mlp, pts, feats, radius, n_samples, NeighbourTable(pts),
                             centroid_idx)


class TestSetAbstraction:
    def make(self, source, feat_dim=4, out_dims=(8, 5)):
        return L.MLP(source.scope("sa"), 3 + feat_dim, list(out_dims))

    def test_single_point(self):
        rng = np.random.default_rng(0)
        mlp = self.make(params(rng))
        pts = np.zeros((1, 3))
        feats = Tensor(rng.normal(size=(1, 4)))
        out = set_abstraction(mlp, pts, feats, radius=0.1, n_samples=4)
        assert out.shape == (1, 5)
        assert np.all(np.isfinite(out.data))

    def test_identical_points_identical_outputs(self):
        rng = np.random.default_rng(1)
        mlp = self.make(params(rng))
        pts = np.tile([0.3, -0.2, 1.0], (6, 1))
        feats = Tensor(np.tile(rng.normal(size=4), (6, 1)))
        out = set_abstraction(mlp, pts, feats, radius=0.5, n_samples=3).data
        np.testing.assert_allclose(out, np.tile(out[0], (6, 1)))

    def test_centroid_subset(self):
        rng = np.random.default_rng(2)
        mlp = self.make(params(rng))
        pts = rng.normal(size=(10, 3))
        feats = Tensor(rng.normal(size=(10, 4)))
        cidx = farthest_point_sample(pts, 4)
        out = set_abstraction(mlp, pts, feats, 0.9, 5, centroid_idx=cidx)
        assert out.shape == (4, 5)

    def test_shared_table_same_output(self):
        rng = np.random.default_rng(5)
        mlp = self.make(params(rng))
        pts = np.round(rng.normal(size=(12, 3)), 1)  # rounded: ties in distance
        feats = Tensor(rng.normal(size=(12, 4)))
        table = NeighbourTable(pts)
        cidx = farthest_point_sample(pts, 5)
        for radius, ms in ((0.3, 2), (0.8, 4), (2.0, 20)):
            for rows in (None, cidx):
                np.testing.assert_array_equal(
                    L.set_abstraction(mlp, pts, feats, radius, ms, table, rows).data,
                    set_abstraction(mlp, pts, feats, radius, ms, centroid_idx=rows).data)

    def test_points_feats_disagree(self):
        mlp = self.make(params(np.random.default_rng(0)))
        with pytest.raises(ShapeMismatch):
            set_abstraction(mlp, np.zeros((3, 3)), Tensor(np.zeros((4, 4))), 1.0, 2)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        source = params(rng)
        mlp = self.make(source)
        jitter_params(source.named, rng)
        pts = rng.normal(size=(6, 3)) * 0.3
        feats = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        check_param_grads(
            lambda: sq_sum(set_abstraction(mlp, pts, feats, 0.6, 3)),
            dict(source.named, feats=feats)
        )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        mlp = self.make(params(rng))
        pts = rng.normal(size=(12, 3))
        feats = rng.normal(size=(12, 4))
        perm = rng.permutation(12)
        out = set_abstraction(mlp, pts, Tensor(feats), 0.8, 4).data
        out_p = set_abstraction(mlp, pts[perm], Tensor(feats[perm]), 0.8, 4).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-9)


def softmax_zeros(name: str, mlp: L.MLP, x: np.ndarray, axis: int) -> dict:
    """Masks, by parameter name, of the biases of `mlp` (scoped `name`)
    whose true gradient is exactly 0 when its output on `x` feeds a softmax
    along `axis`, which does not move when all its inputs move alike: the
    output bias, and each unit of the last hidden layer that is on for all
    or none of the rows of every softmax."""
    last = len(mlp.biases) - 1
    on = ad.mlp([Tensor(x)], mlp.weights[:last], mlp.biases[:last]).data > 0
    uniform = on.all(axis=axis, keepdims=True) | ~on.any(axis=axis, keepdims=True)
    return {f"{name}.b{last}": True,
            f"{name}.b{last - 1}": uniform.all(axis=tuple(range(on.ndim - 1)))}


class TestGlobalPool:
    def test_attention_uniform_on_identical_features(self):
        # any weights over identical rows pool to that row
        rng = np.random.default_rng(0)
        mlp = L.MLP(params(rng), 4, [8, 1])
        feats = Tensor(np.tile([0.5, -1.0, 2.0, 0.1], (3, 1)))
        g = L.global_pool(mlp, feats)
        np.testing.assert_allclose(g.data, feats.data[0], atol=1e-12)

    def test_attention_weights_sum_to_one(self):
        # positive weights summing to one make g a convex combination of the
        # rows: inside each channel's range, and here strictly inside it
        rng = np.random.default_rng(1)
        mlp = L.MLP(params(rng), 4, [8, 1])
        feats = rng.normal(size=(17, 4))
        g = L.global_pool(mlp, Tensor(feats))
        assert g.shape == (4,)
        assert np.all(g.data >= feats.min(axis=0)) and np.all(g.data <= feats.max(axis=0))
        assert not np.allclose(g.data, feats.min(axis=0))
        assert not np.allclose(g.data, feats.max(axis=0))

    def test_empty_input(self):
        mlp = L.MLP(params(np.random.default_rng(0)), 4, [8, 1])
        with pytest.raises(ShapeMismatch):
            L.global_pool(mlp, Tensor(np.zeros((0, 4))))

    def test_attention_permutation_invariance(self):
        rng = np.random.default_rng(2)
        mlp = L.MLP(params(rng), 4, [8, 1])
        feats = rng.normal(size=(11, 4))
        perm = rng.permutation(11)
        g = L.global_pool(mlp, Tensor(feats))
        g_p = L.global_pool(mlp, Tensor(feats[perm]))
        np.testing.assert_allclose(g_p.data, g.data, atol=1e-9)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        source = params(rng)
        mlp = L.MLP(source.scope("att"), 4, [8, 1])
        jitter_params(source.named, rng)
        feats = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        check_param_grads(
            lambda: sq_sum(L.global_pool(mlp, feats)), dict(source.named, feats=feats),
            zero=softmax_zeros("att", mlp, feats.data, axis=0)
        )


def cost_volume(cv, p, fp, q, fq):
    """`cv` with a neighbour table of the source points of its own."""
    return cv(p, fp, q, fq, NeighbourTable(p))


class TestCostVolume:
    def make(self, source, feat_dim=4, k=3, d_cost=6):
        return L.CostVolume(source.scope("cv"), feat_dim, k_neighbors=k, d_cost=d_cost,
                            weight_hidden=(8, 8))

    def test_weight_mlp_widths(self):
        cv = L.CostVolume(params(np.random.default_rng(0)), 4, k_neighbors=8, d_cost=64,
                          weight_hidden=(5, 7, 2))
        for mlp in (cv.weight_mlp1, cv.weight_mlp2):
            assert [w.shape for w in mlp.weights] == [(3, 5), (5, 7), (7, 2), (2, 1)]

    def test_single_pair(self):
        rng = np.random.default_rng(0)
        cv = self.make(params(rng))
        p = np.zeros((1, 3))
        q = np.array([[0.1, 0.0, 0.0]])
        out = cost_volume(cv, p, Tensor(rng.normal(size=(1, 4))), q,
                          Tensor(rng.normal(size=(1, 4))))
        assert out.shape == (1, 6)
        assert np.all(np.isfinite(out.data))

    def test_joint_translation_invariance(self):
        rng = np.random.default_rng(1)
        cv = self.make(params(rng))
        p = rng.normal(size=(5, 3))
        q = rng.normal(size=(4, 3))
        fp, fq = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(4, 4)))
        shift = np.array([10.0, -3.0, 0.5])
        out = cost_volume(cv, p, fp, q, fq).data
        out_shifted = cost_volume(cv, p + shift, fp, q + shift, fq).data
        np.testing.assert_allclose(out_shifted, out, atol=1e-9)

    def test_fewer_targets_than_k(self):
        rng = np.random.default_rng(2)
        cv = self.make(params(rng), k=8)
        p = rng.normal(size=(5, 3))
        q = rng.normal(size=(2, 3))
        out = cost_volume(cv, p, Tensor(rng.normal(size=(5, 4))), q,
                          Tensor(rng.normal(size=(2, 4))))
        assert out.shape == (5, 6)

    def test_shared_table_same_output(self):
        rng = np.random.default_rng(6)
        cv = self.make(params(rng), k=4)
        p, q = np.round(rng.normal(size=(9, 3)), 1), rng.normal(size=(7, 3))
        fp, fq = Tensor(rng.normal(size=(9, 4))), Tensor(rng.normal(size=(7, 4)))
        # a table that already served ball queries, as a frame's does
        table = NeighbourTable(p)
        table.ball(0.5, 3)
        np.testing.assert_array_equal(cv(p, fp, q, fq, table).data,
                                      cost_volume(cv, p, fp, q, fq).data)

    def test_feature_dim_mismatch(self):
        cv = self.make(params(np.random.default_rng(0)))
        with pytest.raises(ShapeMismatch):
            cost_volume(cv, np.zeros((2, 3)), Tensor(np.zeros((2, 4))),
                        np.zeros((2, 3)), Tensor(np.zeros((2, 5))))

    def test_k_above_cloud_size(self):
        cv = self.make(params(np.random.default_rng(0)), k=3)
        out = cost_volume(cv, np.zeros((1, 3)), Tensor(np.zeros((1, 4))),
                          np.zeros((1, 3)), Tensor(np.zeros((1, 4))))
        assert out.shape == (1, 6)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        source = params(rng)
        cv = self.make(source)
        jitter_params(source.named, rng)
        p = rng.normal(size=(5, 3))
        q = rng.normal(size=(4, 3))
        fp = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        fq = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        # the weight MLPs' outputs, on each point's displacements to its
        # target and to its source neighbours, feed a softmax over neighbours
        disp1 = q[knn_indices(p, q, 3)] - p[:, None, :]
        disp2 = p[NeighbourTable(p).knn(3)] - p[:, None, :]
        check_param_grads(lambda: sq_sum(cost_volume(cv, p, fp, q, fq)),
                          dict(source.named, fp=fp, fq=fq),
                          zero={**softmax_zeros("cv.weight1", cv.weight_mlp1, disp1, axis=1),
                                **softmax_zeros("cv.weight2", cv.weight_mlp2, disp2, axis=1)})


def gru_reference(cell, h, x):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hx = np.concatenate([h, x], axis=-1)
    z = sig(hx @ cell.w_z.data + cell.b_z.data)
    r = sig(hx @ cell.w_r.data + cell.b_r.data)
    rhx = np.concatenate([r * h, x], axis=-1)
    h_tilde = np.tanh(rhx @ cell.w_h.data + cell.b_h.data)
    return (1.0 - z) * h + z * h_tilde


def lstm_reference(cell, h, c, x):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hx = np.concatenate([h, x], axis=-1)
    i = sig(hx @ cell.w_i.data + cell.b_i.data)
    f = sig(hx @ cell.w_f.data + cell.b_f.data)
    o = sig(hx @ cell.w_o.data + cell.b_o.data)
    g = np.tanh(hx @ cell.w_g.data + cell.b_g.data)
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


class TestRecurrentCells:
    def test_gru_zero_params_halves_state(self):
        source = params(np.random.default_rng(0))
        cell = L.GRUCell(source, hidden=4, input_dim=3)
        zero_out(source)
        h = np.array([[2.0, -4.0, 1.0, 0.0]])
        out = cell(Tensor(h), Tensor(np.ones((1, 3))))
        np.testing.assert_array_equal(out.data, 0.5 * h)

    def test_lstm_zero_params_closed_form(self):
        source = params(np.random.default_rng(0))
        cell = L.LSTMCell(source, hidden=3, input_dim=2)
        zero_out(source)
        c = np.array([[1.0, -2.0, 0.5]])
        h_new, c_new = cell(Tensor(np.zeros((1, 3))), Tensor(c), Tensor(np.ones((1, 2))))
        np.testing.assert_array_equal(c_new.data, 0.5 * c)
        np.testing.assert_array_equal(h_new.data, 0.5 * np.tanh(0.5 * c))

    def test_gru_matches_reference_recurrence(self):
        rng = np.random.default_rng(1)
        cell = L.GRUCell(params(rng), hidden=5, input_dim=3)
        h = np.zeros((2, 5))
        ht = Tensor(h)
        for t in range(4):
            x = rng.normal(size=(2, 3))
            h = gru_reference(cell, h, x)
            ht = cell(ht, Tensor(x))
            np.testing.assert_allclose(ht.data, h, atol=1e-12)

    def test_lstm_matches_reference_recurrence(self):
        rng = np.random.default_rng(2)
        cell = L.LSTMCell(params(rng), hidden=4, input_dim=3)
        h = c = np.zeros((2, 4))
        ht, ct = Tensor(h), Tensor(c)
        for t in range(4):
            x = rng.normal(size=(2, 3))
            h, c = lstm_reference(cell, h, c, x)
            ht, ct = cell(ht, ct, Tensor(x))
            np.testing.assert_allclose(ht.data, h, atol=1e-12)
            np.testing.assert_allclose(ct.data, c, atol=1e-12)

    def test_gru_gradients_through_steps(self):
        rng = np.random.default_rng(3)
        source = params(rng)
        cell = L.GRUCell(source.scope("gru"), hidden=4, input_dim=3)
        xs = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3)]
        tensors = dict(source.named)
        tensors.update({f"x{t}": x for t, x in enumerate(xs)})

        def loss():
            h = Tensor(np.zeros((2, 4)))
            for x in xs:
                h = cell(h, x)
            return sq_sum(h)

        check_param_grads(loss, tensors)

    def test_lstm_gradients(self):
        rng = np.random.default_rng(4)
        source = params(rng)
        cell = L.LSTMCell(source.scope("lstm"), hidden=3, input_dim=2)
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        tensors = dict(source.named, x=x)

        def loss():
            h, c = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
            for _ in range(2):
                h, c = cell(h, c, x)
            return ad.add(sq_sum(h), sq_sum(c))

        check_param_grads(loss, tensors)

    def test_dim_validation(self):
        gru = L.GRUCell(params(np.random.default_rng(0)), hidden=4, input_dim=3)
        with pytest.raises(ShapeMismatch):
            gru(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 3))))
        lstm = L.LSTMCell(params(np.random.default_rng(0)), hidden=4, input_dim=3)
        with pytest.raises(ShapeMismatch):
            lstm(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))),
                 Tensor(np.zeros((1, 9))))


class TestAdam:
    def test_minimizes_quadratic(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        opt = L.Adam({"x": x}, lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            sq_sum(ad.add(x, -3.0)).backward()
            opt.step()
        assert abs(x.data[0] - 3.0) < 1e-2

    def test_step_skips_gradless_params(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = L.Adam({"x": x}, lr=0.5)
        opt.step()
        assert x.data[0] == 1.0

    def test_no_moments_for_params_without_a_gradient(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        frozen = Tensor(np.array([1.0]), requires_grad=True)
        opt = L.Adam({"x": x, "frozen": frozen}, lr=0.1)
        opt.zero_grad()
        sq_sum(ad.add(x, -3.0)).backward()
        opt.step()
        assert set(opt.m) == set(opt.v) == {"x"}
        assert frozen.data[0] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_keep_the_bytes_of_the_textbook_form(self, dtype):
        rng = np.random.default_rng(4)
        named = {name: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                 for name, shape in (("w", (6, 5)), ("b", (5,)), ("big", (40, 3)))}
        opt = L.Adam(named, lr=3e-3)
        want = {k: t.data.copy() for k, t in named.items()}
        m = {k: np.zeros_like(w) for k, w in want.items()}
        v = {k: np.zeros_like(w) for k, w in want.items()}
        for step in range(1, 4):
            b1t, b2t = 1.0 - opt.beta1**step, 1.0 - opt.beta2**step
            for k, t in named.items():
                # gradients over many orders of magnitude
                g = (rng.normal(size=t.shape) * 10.0 ** rng.uniform(-6, 2, t.shape)).astype(dtype)
                t.grad = g.copy()
                m[k] = opt.beta1 * m[k] + (1.0 - opt.beta1) * g
                v[k] = opt.beta2 * v[k] + (1.0 - opt.beta2) * (g * g)
                m_hat, v_hat = m[k] / b1t, v[k] / b2t
                want[k] -= (opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)).astype(dtype)
            opt.step()
            for k, t in named.items():
                assert t.data.dtype == dtype
                assert t.data.tobytes() == want[k].tobytes(), (step, k)
                assert opt.m[k].tobytes() == m[k].tobytes()
                assert opt.v[k].tobytes() == v[k].tobytes()

    def test_lr_is_mutable(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = L.Adam({"x": x}, lr=0.5)
        opt.lr = 0.0
        opt.zero_grad()
        sq_sum(ad.add(x, -3.0)).backward()
        opt.step()
        assert x.data[0] == 1.0


class TestCheckpoints:
    def params(self, rng):
        return {
            "enc.w0": rng.normal(size=(4, 3)),
            "enc.b0": rng.normal(size=3),
            "head.w0": rng.normal(size=(3, 1)),
        }

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = self.params(rng)
        path = tmp_path / "model.mflw"
        L.save_checkpoint(path, values, config={"hidden": 7, "lr": 1e-3})
        loaded, config = L.load_checkpoint(path)
        assert config == {"hidden": 7, "lr": 1e-3}
        assert sorted(loaded) == sorted(values)
        for k in values:
            np.testing.assert_array_equal(loaded[k], values[k])

    def test_byte_stable_across_insertion_order(self, tmp_path):
        rng = np.random.default_rng(1)
        values = self.params(rng)
        reordered = {k: values[k] for k in reversed(list(values))}
        a, b = tmp_path / "a.mflw", tmp_path / "b.mflw"
        L.save_checkpoint(a, values, config={"x": 1})
        L.save_checkpoint(b, reordered, config={"x": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_save_load_save_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        a, b = tmp_path / "a.mflw", tmp_path / "b.mflw"
        L.save_checkpoint(a, self.params(rng), config={"seed": 3})
        loaded, config = L.load_checkpoint(a)
        L.save_checkpoint(b, loaded, config=config)
        assert a.read_bytes() == b.read_bytes()

    def test_accepts_tensors(self, tmp_path):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        path = tmp_path / "t.mflw"
        L.save_checkpoint(path, {"w": t})
        loaded, _ = L.load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], t.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mflw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            L.load_checkpoint(path)

    def test_every_truncation_is_corrupt_file(self, tmp_path):
        path = tmp_path / "cut.mflw"
        L.save_checkpoint(path, self.params(np.random.default_rng(4)), config={"k": 2})
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(CorruptFile):
                L.load_checkpoint(path)

    def test_bytes_after_last_parameter_are_corrupt_file(self, tmp_path):
        path = tmp_path / "long.mflw"
        L.save_checkpoint(path, {"w": np.ones((3, 2)), "v": np.ones(2)})
        whole = path.read_bytes()
        path.write_bytes(whole + b"\x00")
        with pytest.raises(CorruptFile, match="bytes left"):
            L.load_checkpoint(path)
        # a shape that shrinks shifts every later parameter and leaves bytes
        path.write_bytes(whole.replace(b'"shape":[3,2]', b'"shape":[1,2]'))
        with pytest.raises(CorruptFile, match="bytes left"):
            L.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.mflw"
        L.save_checkpoint(path, {"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        head = raw[8:].decode("utf-8", errors="ignore")
        mutated = head.replace('"format_version":1', '"format_version":9', 1)
        path.write_bytes(bytes(raw[:8]) + mutated.encode("utf-8"))
        with pytest.raises(ConfigError):
            L.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"{}", b"{not json", b"[1]", b"\xff\xfe", b'{"format_version":1}',
        b'{"format_version":1,"config":[],"params":[]}',
        b'{"format_version":1,"config":{},"params":[{"name":"w"}]}',
        b'{"format_version":1,"config":{},"params":[{"name":"w","shape":[-2]}]}',
        b'{"format_version":1,"config":{},"params":"w"}',
        # a version or a dimension that is not an integer, though Python
        # compares it equal to one
        b'{"format_version":true,"config":{},"params":[]}',
        b'{"format_version":1.0,"config":{},"params":[]}',
        b'{"format_version":1,"config":{},"params":[{"name":"w","shape":[true,3]}]}',
        # no elements, but dimensions numpy cannot hold
        b'{"format_version":1,"config":{},"params":[{"name":"w","shape":[0,%d]}]}' % 2**70,
        b'{"format_version":1,"config":{},"params":[{"name":"w","shape":[0,%d,%d]}]}'
        % (2**62, 2**62),
        pytest.param(b"[" * 5000 + b"]" * 5000, id="nested-too-deep"),
    ])
    def test_malformed_header_is_corrupt_file(self, tmp_path, header):
        path = tmp_path / "h.mflw"
        path.write_bytes(L.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(CorruptFile, match="malformed checkpoint header"):
            L.load_checkpoint(path)

    # more bytes than any file holds; their element counts overflow int64
    # from the second on
    @pytest.mark.parametrize("shape", [[10**12], [2**40, 2**30], [3037000500, 3037000500]])
    def test_header_shape_beyond_the_file_is_corrupt_file(self, tmp_path, shape):
        path = tmp_path / "big.mflw"
        header = b'{"format_version":1,"config":{},"params":[{"name":"w","shape":%s}]}' % (
            str(shape).encode())
        path.write_bytes(L.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
                         + bytes(16))
        with pytest.raises(CorruptFile, match="truncated, needs"):
            L.load_checkpoint(path)

    def test_open_checkpoint_reads_arrays_on_lookup(self, tmp_path):
        path = tmp_path / "lazy.mflw"
        values = self.params(np.random.default_rng(5))
        # larger than a file buffer, so its read reaches the file
        values["head.w0"] = np.arange(64 * 1024.0).reshape(64, 1024)
        L.save_checkpoint(path, values, config={"k": 1})
        whole = path.read_bytes()
        with L.open_checkpoint(path) as (stored, config):
            assert config == {"k": 1} and list(stored) == sorted(values)
            enc = stored.take_scope("enc")
            assert sorted(enc) == ["b0", "w0"] and list(stored) == ["head.w0"]
            np.testing.assert_array_equal(enc["w0"], values["enc.w0"])
            assert enc["w0"].flags.writeable
            # the file is cut after the checks: the next read finds it short
            path.write_bytes(whole[:-1])
            with pytest.raises(CorruptFile, match="truncated while 'head.w0' was read"):
                stored["head.w0"]

    def test_stored_values_round_trip(self, tmp_path):
        source = params(np.random.default_rng(3), np.float32)
        L.MLP(source.scope("mlp"), 4, [3, 2])
        named = source.named
        path = tmp_path / "mlp.mflw"
        L.save_checkpoint(path, named)
        values, _ = L.load_checkpoint(path)
        fresh = L.Params(np.float32, values=values)
        L.MLP(fresh.scope("mlp"), 4, [3, 2])
        assert fresh.done().keys() == named.keys()
        for k, t in fresh.named.items():
            assert t.dtype == np.float32
            np.testing.assert_array_equal(t.data, named[k].data)
