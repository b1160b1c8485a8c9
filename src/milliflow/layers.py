"""Network building blocks on top of the autodiff Tensor.

Shared MLPs, PointNet++-style set abstraction over ball neighborhoods,
attention global pooling, a patch-to-patch cost volume, GRU and LSTM
cells, Adam, and a byte-stable checkpoint format.  An MLP call and each
gate of a cell record one `ad.mlp` node.  Every layer takes its
parameters from one `Params` source, which draws them (Kaiming-uniform
weights, zero biases) or reads them from a checkpoint's stored values.
Point geometry (indices, neighborhoods) is plain numpy; gradients flow only
through features and parameters.  Set abstraction and the cost volume read
their neighbourhoods from a frame's one `NeighbourTable`, which
`flownet.encode` builds.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct

import numpy as np

from . import autodiff as ad
from ._kernels import NeighbourTable, knn_indices
from .autodiff import Tensor
from .errors import (
    ConfigError, CorruptFile, ShapeMismatch, atomic_write, fits, read_exact,
)

CHECKPOINT_MAGIC = b"MFLW"
CHECKPOINT_VERSION = 1
# what a checkpoint header holds, in the kinds of `errors.fits`
HEADER_KEYS = {"format_version": int, "config": dict,
               "params": [{"name": str, "shape": [int]}]}


class Params:
    """The one source of a model's parameters: a layer asks it once for each
    parameter, by name, and gets it in `dtype`.  Without `values` a weight is
    a Kaiming-uniform draw from a generator seeded with `seed` (anything
    `np.random.default_rng` takes) and a bias is zeros.  With `values`, a
    checkpoint's arrays by full name, no generator is made: each parameter is
    the stored array of its name (that array itself when it is in `dtype`);
    a missing one raises ConfigError, one of another shape ShapeMismatch.
    `named` records every parameter by full name; `scope(name)` is a view
    that prefixes `name.` and shares `named`."""

    def __init__(self, dtype, seed=0, values: dict[str, np.ndarray] | None = None):
        self.dtype = np.dtype(dtype)
        self.values = values
        self.rng = np.random.default_rng(seed) if values is None else None
        self.named: dict[str, Tensor] = {}
        self.prefix = ""

    def scope(self, name: str) -> Params:
        view = object.__new__(Params)  # shares dtype, rng, values and the record
        view.__dict__ = dict(self.__dict__, prefix=f"{self.prefix}{name}.")
        return view

    def weight(self, name: str, fan_in: int, shape) -> Tensor:
        bound = np.sqrt(6.0 / fan_in)
        return self._take(name, shape, lambda: self.rng.uniform(-bound, bound, size=shape))

    def bias(self, name: str, n: int) -> Tensor:
        return self._take(name, (n,), lambda: np.zeros(n, dtype=self.dtype))

    def _take(self, name: str, shape, draw) -> Tensor:
        name = self.prefix + name
        data = draw() if self.values is None else self.values.get(name)
        if data is None:
            raise ConfigError(f"checkpoint has no parameter {name!r}")
        if data.shape != tuple(shape):
            raise ShapeMismatch(f"{name}: checkpoint shape {data.shape} != model {tuple(shape)}")
        self.named[name] = Tensor(data.astype(self.dtype, copy=False), requires_grad=True)
        return self.named[name]

    def done(self) -> dict[str, Tensor]:
        """The record, once the model is built: a stored value that no
        parameter read raises ConfigError."""
        unread = sorted(set(self.values or ()) - set(self.named))
        if unread:
            raise ConfigError(f"checkpoint parameters the model does not have: {unread}")
        return self.named


class MLP:
    """Affine chain with ReLU on hidden layers and a linear final layer."""

    def __init__(self, params: Params, in_dim: int, dims: list[int]):
        self.weights = []
        self.biases = []
        prev = in_dim
        for i, d in enumerate(dims):
            self.weights.append(params.weight(f"w{i}", prev, (prev, d)))
            self.biases.append(params.bias(f"b{i}", d))
            prev = d

    def __call__(self, *blocks) -> Tensor:
        """The chain on the concatenation of `blocks`, as `ad.mlp` takes them."""
        return ad.mlp(blocks, self.weights, self.biases)


def _as_blocks(feats) -> tuple:
    """Features as a tuple of blocks: a Tensor alone, or the tuple given."""
    return feats if isinstance(feats, tuple) else (feats,)


def ball_query(table: NeighbourTable, radius: float, max_samples: int,
               rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``max_samples`` reference indices within ``radius`` of each
    query point of ``table``, or of the query rows ``rows`` selects, as the
    ragged lists ``(neighbours, counts)`` of `NeighbourTable.ball`; the
    config holds both positive."""
    return table.ball(radius, max_samples, rows)


def set_abstraction(
    params: MLP,
    points: np.ndarray,
    feats,
    radius: float,
    n_samples: int,
    table: NeighbourTable,
    centroid_idx: np.ndarray | None = None,
) -> Tensor:
    """Ball-query neighborhoods -> shared MLP on [rel-xyz || feats] -> max-pool.

    The MLP runs on each centroid's real neighbours only (up to `n_samples`
    within `radius`, nearest first): R rows in all, one per (centroid, hit),
    and `ad.segment_max` pools each centroid's run of rows.  `feats` is a
    Tensor (N, C) or a tuple of blocks of the points' features: an (N, C)
    block is multiplied per point and gathered, and a 1-D block, the same
    for every point, is multiplied once.  `table` is the points'
    `NeighbourTable`.  Centroids default to all of `points`; `centroid_idx`
    selects centroids among them, repeats allowed (used with farthest point
    sampling).
    """
    blocks = _as_blocks(feats)
    points = np.asarray(points, dtype=blocks[0].dtype)
    for b in blocks:
        if b.data.ndim == 2 and len(points) != b.shape[0]:
            raise ShapeMismatch(
                f"points ({len(points)}) and features ({b.shape[0]}) disagree"
            )
    centroids = points if centroid_idx is None else points[centroid_idx]
    neighbours, counts = ball_query(table, radius, n_samples, centroid_idx)  # (R,), (N',)
    rel = points[neighbours] - np.repeat(centroids, counts, axis=0)  # (R, 3)
    local = [(b, neighbours) if b.data.ndim == 2 else b for b in blocks]
    return ad.segment_max(params(Tensor(rel), *local), counts)  # (N', C')


def global_pool(params: MLP, feats: Tensor) -> Tensor:
    """Aggregate per-point features into one vector by attention: the MLP
    scores each point, a softmax over points weighs them, and the weighted
    features are summed."""
    if feats.shape[0] < 1:
        raise ShapeMismatch("global_pool needs at least one point")
    w = ad.softmax(params(feats), axis=0)  # (N, 1)
    return ad.tsum(ad.mul(w, feats), axis=0)


class CostVolume:
    """Patch-to-patch cost volume between two point clouds.

    Stage 1 scores each source point against its k nearest target points with
    a shared MLP on [feat_p || feat_q || (q - p)] and aggregates them with a
    displacement-conditioned softmax.  Stage 2 re-aggregates those costs over
    each source point's k nearest source neighbors, again softmax-weighted by
    displacement.  `weight_hidden` gives the hidden widths of both weight MLPs.
    """

    def __init__(self, params: Params, feat_dim: int, k_neighbors: int, d_cost: int,
                 weight_hidden: tuple):
        self.k = k_neighbors
        self.cost_mlp = MLP(params.scope("cost"), 2 * feat_dim + 3, [d_cost, d_cost])
        self.weight_mlp1 = MLP(params.scope("weight1"), 3, list(weight_hidden) + [1])
        self.weight_mlp2 = MLP(params.scope("weight2"), 3, list(weight_hidden) + [1])

    def __call__(self, pts_p, feats_p, pts_q, feats_q, table_p: NeighbourTable) -> Tensor:
        """`feats_p` and `feats_q` are each a Tensor or a tuple of blocks of
        the points' features, as `set_abstraction` takes them.  The pair
        input [feat_p || feat_q || (q - p)] is never built: the cost MLP
        multiplies each source block once per source point and each target
        block once per target point, then gathers.  `table_p`, the source
        points' `NeighbourTable`, gives their self-kNN."""
        blocks_p, blocks_q = _as_blocks(feats_p), _as_blocks(feats_q)
        if sum(b.shape[-1] for b in blocks_p) != sum(b.shape[-1] for b in blocks_q):
            raise ShapeMismatch("source/target feature dims differ")
        dtype = blocks_p[0].dtype
        pts_p = np.asarray(pts_p, dtype=dtype)
        pts_q = np.asarray(pts_q, dtype=dtype)
        n = len(pts_p)
        idx_q = knn_indices(pts_p, pts_q, min(self.k, len(pts_q)))  # (N, k1)
        disp = Tensor(pts_q[idx_q] - pts_p[:, None, :])  # (N, k1, 3)
        source = [ad.reshape(b, (n, 1, -1)) if b.data.ndim == 2 else b for b in blocks_p]
        target = [(b, idx_q) if b.data.ndim == 2 else b for b in blocks_q]
        cost = self.cost_mlp(*source, *target, disp)  # (N, k1, D)
        w1 = ad.softmax(self.weight_mlp1(disp), axis=1)  # (N, k1, 1)
        patch_cost = ad.tsum(ad.mul(w1, cost), axis=1)  # (N, D)

        idx_p = table_p.knn(self.k)  # (N, k2), k2 the smaller of k and the table's width
        disp2 = pts_p[idx_p] - pts_p[:, None, :]
        costs2 = ad.take(patch_cost, idx_p)  # (N, k2, D)
        w2 = ad.softmax(self.weight_mlp2(Tensor(disp2)), axis=1)
        return ad.tsum(ad.mul(w2, costs2), axis=1)  # (N, D)


class _GatedCell:
    """A recurrent cell over concatenated [h || x]: each gate g of `gates`,
    in order, is a one-layer `ad.mlp` with weight w_<g> and bias b_<g>."""

    def __init__(self, params: Params, hidden: int, input_dim: int):
        self.hidden = hidden
        self.input_dim = input_dim
        cat = hidden + input_dim
        for g in self.gates:
            setattr(self, f"w_{g}", params.weight(f"w_{g}", cat, (cat, hidden)))
            setattr(self, f"b_{g}", params.bias(f"b_{g}", hidden))

    def _check_dims(self, h: Tensor, x: Tensor):
        if h.shape[-1] != self.hidden or x.shape[-1] != self.input_dim:
            raise ShapeMismatch(
                f"{self.kind} dims: h{h.shape} x{x.shape} vs hidden={self.hidden}, "
                f"input={self.input_dim}"
            )


class GRUCell(_GatedCell):
    """Standard GRU over concatenated [h || x]."""

    kind, gates = "GRU", "zrh"

    def __call__(self, h: Tensor, x: Tensor) -> Tensor:
        self._check_dims(h, x)
        hx = ad.concat([h, x], axis=-1)
        z = ad.sigmoid(ad.mlp([hx], [self.w_z], [self.b_z]))
        r = ad.sigmoid(ad.mlp([hx], [self.w_r], [self.b_r]))
        rhx = ad.concat([ad.mul(r, h), x], axis=-1)
        h_tilde = ad.tanh(ad.mlp([rhx], [self.w_h], [self.b_h]))
        one_minus_z = ad.add(ad.mul(z, -1.0), 1.0)
        return ad.add(ad.mul(one_minus_z, h), ad.mul(z, h_tilde))


class LSTMCell(_GatedCell):
    """Standard LSTM over concatenated [h || x]."""

    kind, gates = "LSTM", "ifog"

    def __call__(self, h: Tensor, c: Tensor, x: Tensor):
        self._check_dims(h, x)
        hx = ad.concat([h, x], axis=-1)
        i = ad.sigmoid(ad.mlp([hx], [self.w_i], [self.b_i]))
        f = ad.sigmoid(ad.mlp([hx], [self.w_f], [self.b_f]))
        o = ad.sigmoid(ad.mlp([hx], [self.w_o], [self.b_o]))
        g = ad.tanh(ad.mlp([hx], [self.w_g], [self.b_g]))
        c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
        h_new = ad.mul(o, ad.tanh(c_new))
        return h_new, c_new


class Adam:
    """Adam over a named-parameter dict; lr is mutable for schedules.  A
    step works in place: in each parameter's moments and in two scratch
    arrays that every parameter shares, with the operations of the textbook
    form in its order, so its bytes are that form's."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        # made at a parameter's first gradient: a frozen one costs no memory
        self.m, self.v = {}, {}
        self._scratch = np.empty((2, 0))

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def _pair(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays of `like`'s shape and dtype."""
        if self._scratch.dtype != like.dtype or self._scratch.shape[1] < like.size:
            self._scratch = np.empty((2, like.size), like.dtype)
        a, b = self._scratch[:, : like.size]
        return a.reshape(like.shape), b.reshape(like.shape)

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if k not in self.m:
                self.m[k], self.v[k] = np.zeros_like(p.data), np.zeros_like(p.data)
            m, v = self.m[k], self.v[k]
            a, b = self._pair(p.data)
            m *= self.beta1  # m = beta1 m + (1 - beta1) g
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2  # v = beta2 v + (1 - beta2) g^2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.beta2, out=a)
            np.divide(v, b2t, out=b)  # sqrt(v / b2t) + eps
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(m, b1t, out=a)  # lr (m / b1t) / that
            a *= self.lr
            a /= b
            p.data -= a


# ----------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, named_params: dict[str, Tensor | np.ndarray],
                    config: dict | None = None):
    """Versioned binary checkpoint: JSON header + little-endian float64 blob.
    The blob is written array by array, each converted to `<f8` as it is
    written, so no more than one parameter is held twice."""
    arrays = {name: np.asarray(a.data if isinstance(a, Tensor) else a)
              for name, a in sorted(named_params.items())}
    header = json.dumps(
        {"format_version": CHECKPOINT_VERSION, "config": config or {},
         "params": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").data)


def load_checkpoint(path):
    """Returns (named float64 arrays, config dict).  The header is checked by
    `errors.fits` against HEADER_KEYS: a header of another format version
    raises ConfigError; one that does not fit, or holds a negative dimension,
    and a blob whose length differs from the one the header's shapes give
    raise CorruptFile, before any read of more bytes than the file holds."""
    with open(path, "rb") as f:
        magic = read_exact(f, 4)
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"not a checkpoint file: bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", read_exact(f, 4))
        try:
            header = json.loads(read_exact(f, hlen).decode("utf-8"))
        except (ValueError, RecursionError) as e:
            raise CorruptFile(f"{path}: malformed checkpoint header: {e!r}") from e
        # another version may hold other keys
        if (fits(header, {"format_version": int})
                and header["format_version"] != CHECKPOINT_VERSION):
            raise ConfigError(f"unsupported checkpoint version {header['format_version']}")
        if not fits(header, HEADER_KEYS) or any(n < 0 for e in header["params"]
                                                for n in e["shape"]):
            raise CorruptFile(f"{path}: malformed checkpoint header")
        params = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            buf = read_exact(f, 8 * math.prod(shape))  # Python ints: no overflow
            try:
                params[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            except ValueError as e:  # no elements, but dimensions numpy cannot hold
                raise CorruptFile(f"{path}: malformed checkpoint header: {e!r}") from e
        if f.read(1):
            raise CorruptFile(f"{path}: bytes left after the last parameter")
    return params, header["config"]


@contextlib.contextmanager
def checkpoint_config(path):
    """Reads of a loaded checkpoint's config: a missing or malformed entry
    met inside the block raises CorruptFile."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise CorruptFile(f"{path}: malformed checkpoint config: {e!r}") from e
