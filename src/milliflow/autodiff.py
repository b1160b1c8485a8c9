"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient and a backward closure.
Calling backward() on a scalar (or with an explicit seed gradient) walks the
tape in reverse topological order, handing each node's gradient to its
closure.  A closure holds its inputs but not its output, so a tape has no
reference cycle and is freed as soon as its last tensor is dropped.
Broadcasting is supported everywhere by summing gradients back over
broadcast axes.

The products fold every leading axis into one, so each direction of
`linear` and `matmul_rows` is one 2-D GEMM.  `matmul_rows` multiplies by a
row block of a weight, so a layer's input can arrive as blocks that are
never concatenated.  `take` sums the gradient of a repeated index after one
stable sort, and `segment_max` pools ragged runs of rows.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeMismatch

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled() -> bool:
    """Whether operations record a tape (False inside ``no_grad``)."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._backward = None
        self._parents = ()

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray, rows: slice | None = None):
        """Add `grad` to the gradient, or to its `rows` only."""
        if rows is not None:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[rows] += grad
        elif self.grad is None:
            # the first touch stores a copy: the closures hand out views of
            # their own gradient, which must not alias this one
            self.grad = np.broadcast_to(grad, self.data.shape).copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() without a gradient needs a scalar")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype).reshape(self.data.shape).copy()

        # iterative post-order topological sort
        order, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _coerce_pair(a, b):
    """Tensor-ify both operands; bare float scalars adopt the tensor's dtype.

    Without this, wrapping a python scalar yields a float64 0-d array that
    silently promotes float32 graphs to float64.
    """
    ref = a if isinstance(a, Tensor) else (b if isinstance(b, Tensor) else None)

    def conv(x):
        if isinstance(x, Tensor):
            return x
        arr = np.asarray(x)
        if (
            ref is not None
            and arr.ndim == 0
            and np.issubdtype(arr.dtype, np.floating)
            and np.issubdtype(ref.dtype, np.floating)
            and arr.dtype != ref.dtype
        ):
            arr = arr.astype(ref.dtype)
        return Tensor(arr)

    return conv(a), conv(b)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# primitive ops


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def powr(a, p: float) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data**p

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * p * a.data ** (p - 1.0))

    return _make(out_data, (a,), backward)


def linear(x, w, b) -> Tensor:
    """Fused x @ w + b over the last axis; the leading axes are folded into
    one, so each direction is one 2-D GEMM."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"linear: input dim {x.shape[-1]} != weight rows {w.shape[0]}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out2 = x2 @ w.data
    out2 += b.data  # in place: a second (rows, out) array costs more than the add
    out_data = out2.reshape(x.shape[:-1] + (w.shape[1],))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    return _make(out_data, (x, w, b), backward)


def matmul_rows(x, w, lo: int) -> Tensor:
    """x @ w[lo:hi] over the last axis, hi = lo + x.shape[-1], as one 2-D
    GEMM in each direction.  The backward adds into rows lo:hi of w's
    gradient only, so the blocks of one input, each against its own rows of
    one weight, accumulate that weight's whole gradient."""
    x, w = _as_tensor(x), _as_tensor(w)
    hi = lo + x.shape[-1]
    if not 0 <= lo < hi <= w.shape[0]:
        raise ShapeMismatch(f"matmul_rows: rows {lo}:{hi} of a weight with {w.shape[0]}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out_data = (x2 @ w.data[lo:hi]).reshape(x.shape[:-1] + (w.shape[1],))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate((g2 @ w.data[lo:hi].T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2, rows=slice(lo, hi))

    return _make(out_data, (x, w), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (a.data > 0.0))

    return _make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return _make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # exp overflow for very negative inputs saturates to exactly 0, which is
    # the correct limit; suppress the warning rather than branch
    with np.errstate(over="ignore"):
        out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward)


def tmean(a) -> Tensor:
    """Mean over every element."""
    a = _as_tensor(a)
    return mul(tsum(a), 1.0 / a.size)


def mean_of(terms) -> Tensor:
    """Mean of a non-empty list of tensors, summed left to right."""
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return mul(total, 1.0 / len(terms))


def segment_max(a, counts) -> Tensor:
    """Max over runs of rows: row i of the output is the max of the next
    counts[i] rows of `a` (every count at least 1), by np.maximum.reduceat.
    Exact ties within a run share the gradient equally."""
    a = _as_tensor(a)
    counts = np.asarray(counts)
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    out_data = np.maximum.reduceat(a.data, starts, axis=0)

    def backward(g):
        run = np.repeat(np.arange(len(counts)), counts)
        mask = a.data == out_data[run]
        ties = np.add.reduceat(mask, starts, axis=0, dtype=a.dtype)
        a._accumulate(mask * (g / ties)[run])

    return _make(out_data, (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Elementwise min(max(a, lo), hi).  The gradient passes where
    ``a >= lo`` and ``max(a, lo) <= hi``: at a bound it goes to ``a``."""
    a = _as_tensor(a)
    lo_t, hi_t = (np.asarray(v, dtype=a.dtype) for v in (lo, hi))
    floor = np.maximum(a.data, lo_t)
    out_data = np.minimum(floor, hi_t)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * ((a.data >= lo_t) & (floor <= hi_t)))

    return _make(out_data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return _make(out_data, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * out_data.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(sl)])

    return _make(out_data, tuple(tensors), backward)


def take(a, idx) -> Tensor:
    """Rows of `a` gathered by an integer array `idx` of any shape.  The
    backward sums the gradient of each repeated index: the flat indices are
    put in order by one stable sort, and each run of equal ones is summed by
    np.add.reduceat."""
    a = _as_tensor(a)
    idx = np.asarray(idx)
    out_data = a.data[idx]

    def backward(grad):
        flat = idx.reshape(-1)
        full = np.zeros_like(a.data)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            ordered = flat[order]
            starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
            rows = grad.reshape((flat.size,) + a.shape[1:])[order]
            full[ordered[starts]] = np.add.reduceat(rows, starts, axis=0)
        a._accumulate(full)

    return _make(out_data, (a,), backward)


def softmax(a, axis=-1) -> Tensor:
    """Softmax along `axis`; strictly positive, rows sum to one."""
    a = _as_tensor(a)
    shifted = add(a, Tensor(-a.data.max(axis=axis, keepdims=True)))
    e = exp(shifted)
    return mul(e, powr(tsum(e, axis=axis, keepdims=True), -1.0))


NORM_EPS = 1e-12  # added under the square root: `norm` stays differentiable at 0


def norm(a, axis=-1) -> Tensor:
    """Euclidean norm along `axis`, guarded by NORM_EPS."""
    return powr(add(tsum(mul(a, a), axis=axis), NORM_EPS), 0.5)
