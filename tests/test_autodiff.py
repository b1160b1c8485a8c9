import gc
import weakref

import numpy as np
import pytest
from helpers import check_param_grads

from milliflow import autodiff as ad
from milliflow.autodiff import Tensor, no_grad
from milliflow.errors import ShapeMismatch


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestBasics:
    def test_scalar_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = ad.add(ad.mul(ad.mul(x, x), 2.0), x)
        y.backward()
        assert float(y.data) == pytest.approx(21.0)
        assert x.grad == pytest.approx(13.0)  # 4x + 1

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            ad.mul(x, 2.0).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(2.0, requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x used twice
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_mean_of_sums_left_to_right(self):
        # float32 values whose sum depends on the association order
        terms = [Tensor(np.float32(v), requires_grad=True) for v in (1e8, -1e8, 1.0)]
        mean = ad.mean_of(terms)
        assert mean.data == np.float32(((np.float32(1e8) - np.float32(1e8)) + 1) / 3)
        mean.backward()
        assert all(t.grad == pytest.approx(1 / 3) for t in terms)

    def test_no_grad_blocks_tape(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        assert y._backward is None

    def test_broadcasting_unbroadcast(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ad.tsum(ad.add(a, b)).backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])

    def test_dtype_preserved_float32(self):
        rng = np.random.default_rng(2)
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        ws = [Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
              for shape in ((2, 3), (3, 2))]
        bs = [Tensor(np.zeros(n, dtype=np.float32), requires_grad=True) for n in (3, 2)]
        out = ad.mlp([ad.add(ad.mul(a, 2.0), 0.5)], ws, bs)
        assert out.dtype == np.float32
        ad.tsum(out).backward()
        assert all(t.grad.dtype == np.float32 for t in (a, *ws, *bs))


class TestOpGradients:
    def test_elementwise_ops(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 4, 3)
        b = leaf(rng, 4, 3)
        both = {"a": a, "b": b}
        only_a = {"a": a}
        cases = [
            (lambda: ad.tsum(ad.add(a, b)), both),
            (lambda: ad.tsum(ad.mul(a, b)), both),
            (lambda: ad.tsum(ad.add(a, ad.mul(b, -1.0))), both),
            (lambda: ad.tsum(ad.powr(a, 2.0)), only_a),
            (lambda: ad.tsum(ad.exp(ad.mul(a, 0.3))), only_a),
            (lambda: ad.tsum(ad.tanh(a)), only_a),
            (lambda: ad.tsum(ad.sigmoid(a)), only_a),
            (lambda: ad.tmean(ad.mul(a, b)), both),
            (lambda: ad.tsum(ad.mul(a, ad.powr(ad.exp(b), -1.0))), both),
        ]
        for i, (fn, tensors) in enumerate(cases):
            check_param_grads(fn, tensors, seed=i)

    def test_log_grad(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        check_param_grads(lambda: ad.tsum(ad.log(a)), {"a": a})

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(6)
        a = leaf(rng, 3, 4, 2)
        cases = [
            lambda: ad.tmean(ad.tsum(a, axis=1)),
            lambda: ad.tsum(ad.segment_max(ad.reshape(a, (12, 2)), [3, 1, 4, 4])),
            lambda: ad.tsum(ad.segment_max(ad.tsum(ad.reshape(a, (6, 4)), axis=1), [6])),
        ]
        for i, fn in enumerate(cases):
            check_param_grads(fn, {"a": a}, seed=i)

    def test_max_tie_gradient_splits(self):
        a = Tensor(np.array([[1.0], [1.0], [0.0]]), requires_grad=True)
        ad.tsum(ad.segment_max(a, [3])).backward()
        np.testing.assert_allclose(a.grad, [[0.5], [0.5], [0.0]])
        # a tie splits within its own run and column only
        a = Tensor(np.array([[2.0, 0.0], [2.0, 1.0], [5.0, 5.0], [3.0, 5.0]]),
                   requires_grad=True)
        ad.segment_max(a, [2, 2]).backward(np.array([[1.0, 1.0], [4.0, 2.0]]))
        np.testing.assert_array_equal(a.grad, [[0.5, 0.0], [0.5, 1.0], [4.0, 1.0], [0.0, 1.0]])

    def test_segment_max_values_and_grad(self):
        # one-row runs next to longer ones, of unequal lengths
        rng = np.random.default_rng(12)
        a = leaf(rng, 9, 3)
        counts = [1, 3, 1, 4]
        out = ad.segment_max(a, counts)
        bounds = np.cumsum([0] + counts)
        want = [a.data[lo:hi].max(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])]
        np.testing.assert_array_equal(out.data, want)
        weights = rng.normal(size=(4, 3))
        check_param_grads(lambda: ad.tsum(ad.mul(ad.segment_max(a, counts), weights)),
                          {"a": a}, max_entries=27)

    def test_concat_grad(self):
        rng = np.random.default_rng(7)
        a = leaf(rng, 3, 2)
        b = leaf(rng, 3, 5)
        check_param_grads(
            lambda: ad.tsum(ad.powr(ad.concat([a, b], axis=1), 2.0)), {"a": a, "b": b}
        )

    def test_concat_same_tensor_twice(self):
        a = Tensor(np.ones(3), requires_grad=True)
        ad.tsum(ad.concat([a, a], axis=0)).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])

    def test_take_gather_grad(self):
        rng = np.random.default_rng(8)
        a = leaf(rng, 6, 3)
        idx = np.array([[0, 2], [2, 2], [5, 1]])
        check_param_grads(lambda: ad.tsum(ad.powr(ad.take(a, idx), 2.0)), {"a": a})
        a.zero_grad()
        ad.tsum(ad.take(a, np.array([2, 2, 2]))).backward()
        assert a.grad[2, 0] == pytest.approx(3.0)  # repeated rows accumulate

    def test_take_repeated_unsorted_and_2d_indices(self):
        rng = np.random.default_rng(16)
        a = leaf(rng, 7, 2, 3)
        weights = rng.normal(size=(4, 3, 2, 3))
        for i, idx in enumerate((np.array([5, 0, 5, 3, 0, 5, 6]),
                                 np.array([[6, 1, 1], [0, 6, 4], [1, 1, 1], [3, 0, 6]]))):
            sel = weights[: idx.shape[0]] if idx.ndim == 2 else weights.reshape(-1, 2, 3)[:7]
            check_param_grads(lambda: ad.tsum(ad.mul(ad.take(a, idx), sel)), {"a": a},
                              max_entries=42, seed=i)
            a.zero_grad()
            ad.take(a, idx).backward(sel)
            want = np.zeros_like(a.data)
            np.add.at(want, idx, sel)
            np.testing.assert_allclose(a.grad, want, rtol=1e-14)

    def test_take_empty_index(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ad.take(a, np.array([], dtype=np.int64))
        assert out.shape == (0, 2)
        out.backward(np.zeros((0, 2)))
        np.testing.assert_array_equal(a.grad, np.zeros((3, 2)))

    def test_clamp_grad_and_values(self):
        # the gradient passes inside the band and at either bound; a blocked
        # one is a zero of the upstream gradient's sign
        for dtype in (np.float32, np.float64):
            a = Tensor(np.array([-2.0, -0.1, 0.05, 0.1, 2.0], dtype=dtype),
                       requires_grad=True)
            out = ad.clamp(a, -0.1, 0.1)
            np.testing.assert_array_equal(
                out.data, np.array([-0.1, -0.1, 0.05, 0.1, 0.1], dtype=dtype))
            seed = np.array([-3.0, 2.0, -1.0, 5.0, -4.0], dtype=dtype)
            out.backward(seed)
            want = seed * np.array([0.0, 1.0, 1.0, 1.0, 0.0], dtype=dtype)
            assert out.dtype == a.grad.dtype == dtype
            np.testing.assert_array_equal(a.grad, want)
            np.testing.assert_array_equal(np.signbit(a.grad), np.signbit(want))
        rng = np.random.default_rng(11)
        b = Tensor(rng.uniform(-0.09, 0.09, size=8), requires_grad=True)
        check_param_grads(lambda: ad.tsum(ad.mul(ad.clamp(b, -0.1, 0.1), b)), {"b": b})

    def test_softmax_properties_and_grad(self):
        rng = np.random.default_rng(9)
        a = leaf(rng, 5, 4)
        s = ad.softmax(a, axis=0)
        assert np.all(s.data > 0)
        np.testing.assert_allclose(s.data.sum(axis=0), np.ones(4), atol=1e-12)
        # large logits remain finite
        big = ad.softmax(Tensor(np.array([1e4, 0.0, -1e4])), axis=0)
        assert np.all(np.isfinite(big.data))
        check_param_grads(lambda: ad.tsum(ad.mul(ad.softmax(a, axis=0), ad.tanh(a))), {"a": a})

    def test_norm_guard_at_zero(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        n = ad.norm(a, axis=1)
        assert np.all(np.isfinite(n.data))
        ad.tsum(n).backward()
        assert np.all(np.isfinite(a.grad))

    def test_norm_grad(self):
        rng = np.random.default_rng(10)
        a = leaf(rng, 4, 3)
        check_param_grads(lambda: ad.tsum(ad.norm(a, axis=1)), {"a": a})


def chain(rng, *dims):
    """The weights and biases of an affine chain through widths `dims`."""
    return ([leaf(rng, a, b) for a, b in zip(dims, dims[1:])],
            [leaf(rng, b) for b in dims[1:]])


def named(**groups):
    """{name: tensor} of lists of tensors, each named by its group and index."""
    return {f"{k}{i}": t for k, ts in groups.items() for i, t in enumerate(ts)}


class TestMlp:
    def test_grad_single_block(self):
        # a 2-D and a 3-D input, through a ReLU and straight through
        rng = np.random.default_rng(4)
        for i, (shape, dims) in enumerate((((7, 4), (4, 5, 3)), ((2, 5, 4), (4, 6, 5, 2)))):
            x = leaf(rng, *shape)
            ws, bs = chain(rng, *dims)
            check_param_grads(lambda: ad.tsum(ad.tanh(ad.mlp([x], ws, bs))),
                              dict(named(w=ws, b=bs), x=x), seed=i)

    def test_grad_mixed_blocks(self):
        # a plain (4, 3, 2) block, a 1-D one shared by every row, and rows of
        # y gathered by a 2-D index that repeats rows and is not sorted
        rng = np.random.default_rng(13)
        x, shared, y = leaf(rng, 4, 3, 2), leaf(rng, 3), leaf(rng, 6, 4)
        idx = np.array([[5, 0, 5], [2, 2, 2], [1, 5, 0], [3, 0, 2]])
        ws, bs = chain(rng, 9, 5, 3)
        check_param_grads(lambda: ad.tsum(ad.tanh(ad.mlp([x, shared, (y, idx)], ws, bs))),
                          dict(named(w=ws, b=bs), x=x, shared=shared, y=y), max_entries=12)

    def test_block_weight_grad_in_its_rows(self):
        # a block that is all zeros puts nothing in its rows of the first
        # weight; the other block fills its own
        rng = np.random.default_rng(14)
        x, zeros = leaf(rng, 5, 3), Tensor(np.zeros((5, 2)))
        ws, bs = chain(rng, 5, 4)
        for blocks, rows, empty in (([x, zeros], slice(0, 3), slice(3, 5)),
                                    ([zeros, x], slice(2, 5), slice(0, 2))):
            ws[0].zero_grad()
            ad.tsum(ad.mlp(blocks, ws, bs)).backward()
            assert not np.any(ws[0].grad[empty])
            assert np.all(ws[0].grad[rows] != 0)

    def test_blocks_give_the_concatenated_gradient(self):
        # [x1 || x2] as two blocks against their rows of one weight
        rng = np.random.default_rng(15)
        x1, x2 = leaf(rng, 6, 3), leaf(rng, 6, 4)
        ws, bs = chain(rng, 7, 5, 2)
        tensors = (x1, x2, *ws, *bs)
        seed = rng.normal(size=(6, 2))

        def grads(blocks):
            for t in tensors:
                t.zero_grad()
            out = ad.mlp(blocks, ws, bs)
            out.backward(seed)
            return out.data, [t.grad for t in tensors]

        (out, got), (out_whole, want) = grads([x1, x2]), grads([ad.concat([x1, x2], axis=1)])
        np.testing.assert_allclose(out, out_whole, rtol=1e-13)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-13)

    def test_one_layer_is_x_at_w_plus_b(self):
        rng = np.random.default_rng(16)
        for dtype in (np.float32, np.float64):
            x, w, b = (Tensor(rng.normal(size=s).astype(dtype)) for s in ((9, 4), (4, 3), (3,)))
            out = ad.mlp([x], [w], [b])
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.data, x.data @ w.data + b.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_weight_grad_has_the_gemm_bytes(self, dtype):
        # a 1-D block's rows of the first weight's gradient are an outer
        # product; they hold the bytes of the GEMM x2.T @ gp, which gives
        # +0.0 where the product of the two entries is -0.0
        rng = np.random.default_rng(17)
        y = Tensor(rng.normal(size=(3, 4)).astype(dtype), requires_grad=True)
        x = Tensor(rng.normal(size=6).astype(dtype), requires_grad=True)
        x.data[[1, 4]] = [0.0, -0.0]
        w, b = (Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                for s in ((10, 5), (5,)))
        seed = rng.normal(size=(3, 5)).astype(dtype)
        seed[:, 2] = -0.0  # sums to -0.0 in the 1-D block's gradient
        ad.mlp([y, x], [w], [b]).backward(seed)
        gp = seed.sum(axis=0, keepdims=True)
        want = x.data.reshape(1, -1).T @ gp
        assert np.any(np.signbit(np.multiply(x.data[:, None], gp)) & (want == 0.0))
        assert w.grad[4:].tobytes() == want.tobytes()
        assert w.grad[:4].tobytes() == (y.data.T @ seed).tobytes()

    def test_width_mismatch(self):
        rng = np.random.default_rng(5)
        ws, bs = chain(rng, 5, 2)
        with pytest.raises(ShapeMismatch):
            ad.mlp([leaf(rng, 3, 4)], ws, bs)
        with pytest.raises(ShapeMismatch):
            ad.mlp([leaf(rng, 3, 4), (leaf(rng, 2, 2), np.zeros(3, dtype=int))], ws, bs)


class TestGraph:
    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = ad.mul(y, 1.0001)
        y.backward()
        assert np.isfinite(x.grad)

    def test_diamond_graph(self):
        x = Tensor(2.0, requires_grad=True)
        a = ad.mul(x, 3.0)
        b = ad.mul(x, 4.0)
        y = ad.mul(a, b)  # dy/dx = 2 * 12 * x = 48
        y.backward()
        assert x.grad == pytest.approx(48.0)

    def test_first_gradient_is_a_copy(self):
        # add hands its own gradient to both inputs unchanged; each input
        # must own its copy, or the second accumulation would alias the first
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        s = ad.add(x, y)
        ad.tsum(ad.mul(s, s)).backward()
        assert not np.shares_memory(x.grad, y.grad)
        assert not np.shares_memory(x.grad, s.grad)
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])

    def test_tape_freed_without_collector(self):
        rng = np.random.default_rng(0)
        w = leaf(rng, 4, 4)
        gc.collect()
        gc.disable()
        try:
            hidden = ad.mlp([leaf(rng, 3, 4)], [w, w], [Tensor(np.zeros(4))] * 2)
            loss = ad.tsum(ad.softmax(ad.concat([hidden, ad.mul(hidden, 2.0)], axis=1)))
            interior = weakref.ref(hidden)
            del hidden
            loss.backward()
            del loss
            assert interior() is None
            assert w.grad is not None
        finally:
            gc.enable()
