"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient and a backward closure.
Calling backward() on a scalar (or with an explicit seed gradient) walks the
tape in reverse topological order, handing each node's gradient to its
closure.  A closure holds its inputs but not its output, so a tape has no
reference cycle and is freed as soon as its last tensor is dropped.
Broadcasting is supported everywhere by summing gradients back over
broadcast axes.

`mlp` records a whole affine chain, ReLUs included, as one node with a
hand-written backward; it is the only matrix product here.  `take` sums the
gradient of a repeated index after one stable sort, and `segment_max` pools
ragged runs of rows.
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
    def _accumulate(self, grad: np.ndarray, fresh: bool = False):
        if self.grad is None:
            # the first touch stores a copy, as closures hand out views of
            # their own gradient; a `fresh` one, of this shape and held
            # nowhere else, is kept
            self.grad = grad if fresh else np.broadcast_to(grad, self.data.shape).copy()
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


def _scatter_rows(grad: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """The gradient of gathering by `idx` from `n` rows: each index's rows
    of `grad` summed, after one stable sort, by np.add.reduceat."""
    flat = idx.reshape(-1)
    rows = grad.reshape((flat.size,) + grad.shape[idx.ndim:])
    full = np.zeros((n,) + rows.shape[1:], dtype=grad.dtype)
    if flat.size:
        order = np.argsort(flat, kind="stable")
        ordered = flat[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        full[ordered[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return full


def take(a, idx) -> Tensor:
    """Rows of `a` gathered by an integer array `idx` of any shape."""
    a = _as_tensor(a)
    idx = np.asarray(idx)
    out_data = a.data[idx]

    def backward(grad):
        a._accumulate(_scatter_rows(grad, idx, a.shape[0]), fresh=True)

    return _make(out_data, (a,), backward)


def _sum_smallest_first(parts: list, shared: np.ndarray) -> np.ndarray:
    """The broadcast sum of `parts`, smallest first.  Each add is made in
    place into an operand of the sum's shape that is not `shared`."""
    shape = np.broadcast(*parts).shape
    h, *rest = sorted(parts, key=lambda a: a.size)
    for p in rest:
        if p.shape == shape and p is not shared:
            p += h  # addition commutes: the bytes of h + p
            h = p
        elif h.shape == shape and h is not shared:
            h += p
        else:
            h = h + p
    return h


def mlp(blocks, weights, biases) -> Tensor:
    """An affine chain as one node: layer i maps h to h @ weights[i] +
    biases[i], with a ReLU between layers and none after the last.

    The first layer's input is the concatenation of `blocks` along the last
    axis, which is never built: each block is multiplied by its own rows of
    weights[0].  A block is a Tensor (a 1-D one, the same for every row, is
    multiplied once) or a pair (x, idx): x multiplied per row, then gathered
    by the integer array idx, so a row idx repeats is multiplied once.  The
    products broadcast as numpy arrays do and are summed smallest first,
    from the first bias.  Each product is one 2-D GEMM in each direction,
    but a one-row block's weight gradient (below).  Widths that do not sum to
    weights[0]'s rows raise ShapeMismatch.

    The backward walks the layers in reverse: dW = a^T g, db = sum of g,
    g = (g W^T) masked where the ReLU was off.  A gathered block's gradient
    is scattered as `take`'s is; weights[0] gets one gradient, built from
    its row blocks; a one-row block's are the outer product x^T g plus 0.0,
    which turns -0.0 into +0.0 as a GEMM's sum from 0 does.
    """
    w0, b0 = weights[0], biases[0]
    width = sum((b[0] if isinstance(b, tuple) else b).shape[-1] for b in blocks)
    if width != w0.shape[0]:
        raise ShapeMismatch(f"mlp: input width {width} != weight rows {w0.shape[0]}")
    inputs, parts, lo = [], [b0.data], 0  # inputs: (x, x2, idx, rows of w0, part shape)
    for block in blocks:
        x, idx = block if isinstance(block, tuple) else (block, None)
        rows = slice(lo, lo + x.shape[-1])
        lo = rows.stop
        x2 = x.data.reshape(-1, x.shape[-1])
        part = (x2 @ w0.data[rows]).reshape(x.shape[:-1] + (w0.shape[1],))
        parts.append(part if idx is None else part[idx])
        inputs.append((x, x2, idx, rows, parts[-1].shape))
    h = _sum_smallest_first(parts, b0.data)
    first_shape, h = h.shape, h.reshape(-1, h.shape[-1])
    acts = []  # each hidden layer's output after its ReLU
    for w, b in zip(weights[1:], biases[1:]):
        acts.append(np.maximum(h, 0.0, out=h))
        h = h @ w.data
        h += b.data
    out_data = h.reshape(first_shape[:-1] + (h.shape[-1],))

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        for w, b, a in zip(weights[:0:-1], biases[:0:-1], acts[::-1]):
            if w.requires_grad:
                w._accumulate(a.T @ g, fresh=True)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0), fresh=True)
            g = g @ w.data.T
            g *= a > 0.0
        if b0.requires_grad:
            b0._accumulate(g.sum(axis=0), fresh=True)
        g = g.reshape(first_shape)
        dw0 = np.empty_like(w0.data) if w0.requires_grad else None
        for x, x2, idx, rows, shape in inputs:
            gp = _unbroadcast(g, shape)
            if idx is not None:
                gp = _scatter_rows(gp, idx, x.shape[0])
            gp = gp.reshape(-1, gp.shape[-1])
            if dw0 is not None and len(x2) == 1:
                np.multiply(x2.T, gp, out=dw0[rows])
                dw0[rows] += 0.0
            elif dw0 is not None:
                dw0[rows] = x2.T @ gp
            if x.requires_grad:
                x._accumulate((gp @ w0.data[rows].T).reshape(x.shape), fresh=True)
        if dw0 is not None:
            w0._accumulate(dw0, fresh=True)

    return _make(out_data, (*(x for x, *_ in inputs), *weights, *biases), backward)


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
