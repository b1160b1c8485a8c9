"""Network building blocks on top of the autodiff Tensor.

Shared MLPs, PointNet++-style set abstraction over ball neighborhoods,
attention/max/avg global pooling, a patch-to-patch cost volume, GRU and LSTM
cells, Kaiming-uniform initialization, Adam, and a byte-stable checkpoint
format.  Point geometry (indices, neighborhoods) is plain numpy; gradients
flow only through features and parameters.
"""

from __future__ import annotations

import contextlib
import json
import struct

import numpy as np

from . import autodiff as ad
from ._kernels import (
    NeighbourTable, farthest_point_sample as _fps, knn_indices,
)
from .autodiff import Tensor
from .errors import (
    BadK, ConfigError, CorruptFile, ShapeMismatch, atomic_write, read_exact, read_struct,
)

CHECKPOINT_MAGIC = b"MFLW"
CHECKPOINT_VERSION = 1


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape, dtype=np.float64):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class MLP:
    """Affine chain with ReLU on hidden layers and a linear final layer."""

    def __init__(self, rng, in_dim: int, dims: list[int], dtype=np.float64):
        if not dims:
            raise ConfigError("MLP needs at least one layer")
        self.in_dim = in_dim
        self.dims = list(dims)
        self.weights = []
        self.biases = []
        prev = in_dim
        for d in dims:
            self.weights.append(Tensor(kaiming_uniform(rng, prev, (prev, d), dtype),
                                       requires_grad=True))
            self.biases.append(Tensor(np.zeros(d, dtype=dtype), requires_grad=True))
            prev = d

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeMismatch(
                f"MLP expects last axis {self.in_dim}, got {x.shape[-1]}"
            )
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.linear(h, w, b)
            if i != last:
                h = ad.relu(h)
        return h

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out


def farthest_point_sample(points: np.ndarray, k: int, start: int = 0) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= k <= n:
        raise BadK(f"k must be in [1, {n}], got {k}")
    if not 0 <= start < n:
        raise BadK(f"start must index a point, got {start}")
    return _fps(points, k, start)


def ball_query(
    centroids: np.ndarray,
    points: np.ndarray,
    radius: float,
    max_samples: int,
    table: NeighbourTable | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Up to ``max_samples`` indices of ``points`` within ``radius`` of each
    centroid, read from the centroids' ``NeighbourTable`` among ``points``.

    A ``table`` already built for these points is read instead of a new one;
    ``rows``, when given, picks the table's query rows that are the centroids.
    """
    if radius <= 0:
        raise ConfigError(f"radius must be positive, got {radius}")
    if max_samples < 1:
        raise BadK(f"max_samples must be >= 1, got {max_samples}")
    if table is None:
        table = NeighbourTable(centroids, points)
    return table.ball(radius, max_samples, rows)


def set_abstraction(
    params: MLP,
    points: np.ndarray,
    feats: Tensor,
    radius: float,
    n_samples: int,
    centroid_idx: np.ndarray | None = None,
    table: NeighbourTable | None = None,
) -> Tensor:
    """Ball-query neighborhoods -> shared MLP on [rel-xyz || feats] -> max-pool.

    Centroids default to all input points.  `centroid_idx` selects a subset of
    the input points as centroids (used with farthest point sampling).
    `table` is the points' own NeighbourTable; it is built when not given.
    """
    points = np.asarray(points, dtype=feats.dtype)
    if len(points) != feats.shape[0]:
        raise ShapeMismatch(
            f"points ({len(points)}) and features ({feats.shape[0]}) disagree"
        )
    centroids = points if centroid_idx is None else points[centroid_idx]
    if table is None:
        table = NeighbourTable(points)
    idx = ball_query(centroids, points, radius, n_samples, table, centroid_idx)  # (N', k)
    rel = points[idx] - centroids[:, None, :]  # (N', k, 3)
    gathered = ad.take(feats, idx)  # (N', k, C)
    local = ad.concat([Tensor(rel), gathered], axis=2)
    return ad.tmax(params(local), axis=1)  # (N', C')


def global_pool(params: MLP, feats: Tensor):
    """Aggregate per-point features into one vector by attention: the MLP
    scores each point, a softmax over points weighs them, and the weighted
    features are summed.  Returns (vector, weights)."""
    if feats.shape[0] < 1:
        raise ShapeMismatch("global_pool needs at least one point")
    logits = params(feats)  # (N, 1)
    w = ad.softmax(logits, axis=0)
    g = ad.tsum(ad.mul(w, feats), axis=0)
    return g, ad.reshape(w, (-1,))


class CostVolume:
    """Patch-to-patch cost volume between two point clouds.

    Stage 1 scores each source point against its k nearest target points with
    a shared MLP on [feat_p || feat_q || (q - p)] and aggregates them with a
    displacement-conditioned softmax.  Stage 2 re-aggregates those costs over
    each source point's k nearest source neighbors, again softmax-weighted by
    displacement.  `weight_hidden` gives the hidden widths of both weight MLPs.
    """

    def __init__(self, rng, feat_dim: int, k_neighbors: int = 8, d_cost: int = 64,
                 weight_hidden: tuple = (8, 8), dtype=np.float64):
        self.k = k_neighbors
        self.cost_mlp = MLP(rng, 2 * feat_dim + 3, [d_cost, d_cost], dtype=dtype)
        self.weight_mlp1 = MLP(rng, 3, list(weight_hidden) + [1], dtype=dtype)
        self.weight_mlp2 = MLP(rng, 3, list(weight_hidden) + [1], dtype=dtype)

    def __call__(self, pts_p, feats_p: Tensor, pts_q, feats_q: Tensor,
                 table_p: NeighbourTable | None = None) -> Tensor:
        """`table_p` is the source points' own NeighbourTable, built when not
        given; stage 2 reads its self-kNN from it."""
        if feats_p.shape[-1] != feats_q.shape[-1]:
            raise ShapeMismatch("source/target feature dims differ")
        pts_p = np.asarray(pts_p, dtype=feats_p.dtype)
        pts_q = np.asarray(pts_q, dtype=feats_p.dtype)
        n, m = len(pts_p), len(pts_q)
        k1 = min(self.k, m)
        idx_q = knn_indices(pts_p, pts_q, k1)  # (N, k1)
        disp = pts_q[idx_q] - pts_p[:, None, :]  # (N, k1, 3)
        fq = ad.take(feats_q, idx_q)  # (N, k1, C)
        fp = ad.reshape(feats_p, (n, 1, -1))
        fp = ad.concat([fp] * k1, axis=1)  # (N, k1, C)
        pair = ad.concat([fp, fq, Tensor(disp)], axis=2)
        cost = self.cost_mlp(pair)  # (N, k1, D)
        w1 = ad.softmax(self.weight_mlp1(Tensor(disp)), axis=1)  # (N, k1, 1)
        patch_cost = ad.tsum(ad.mul(w1, cost), axis=1)  # (N, D)

        k2 = min(self.k, n)
        if table_p is None:
            table_p = NeighbourTable(pts_p)
        idx_p = table_p.knn(k2)  # (N, k2)
        disp2 = pts_p[idx_p] - pts_p[:, None, :]
        costs2 = ad.take(patch_cost, idx_p)  # (N, k2, D)
        w2 = ad.softmax(self.weight_mlp2(Tensor(disp2)), axis=1)
        return ad.tsum(ad.mul(w2, costs2), axis=1)  # (N, D)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        out.update(self.cost_mlp.named_params(f"{prefix}.cost"))
        out.update(self.weight_mlp1.named_params(f"{prefix}.weight1"))
        out.update(self.weight_mlp2.named_params(f"{prefix}.weight2"))
        return out


class GRUCell:
    """Standard GRU over concatenated [h || x]."""

    def __init__(self, rng, hidden: int, input_dim: int | None = None,
                 dtype=np.float64):
        input_dim = hidden if input_dim is None else input_dim
        self.hidden = hidden
        self.input_dim = input_dim
        cat = hidden + input_dim
        mk = lambda: Tensor(kaiming_uniform(rng, cat, (cat, hidden), dtype),
                            requires_grad=True)
        zb = lambda: Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.w_z, self.b_z = mk(), zb()
        self.w_r, self.b_r = mk(), zb()
        self.w_h, self.b_h = mk(), zb()

    def __call__(self, h: Tensor, x: Tensor) -> Tensor:
        if h.shape[-1] != self.hidden or x.shape[-1] != self.input_dim:
            raise ShapeMismatch(
                f"GRU dims: h{h.shape} x{x.shape} vs hidden={self.hidden}, "
                f"input={self.input_dim}"
            )
        hx = ad.concat([h, x], axis=-1)
        z = ad.sigmoid(ad.linear(hx, self.w_z, self.b_z))
        r = ad.sigmoid(ad.linear(hx, self.w_r, self.b_r))
        rhx = ad.concat([ad.mul(r, h), x], axis=-1)
        h_tilde = ad.tanh(ad.linear(rhx, self.w_h, self.b_h))
        one_minus_z = ad.add(ad.mul(z, -1.0), 1.0)
        return ad.add(ad.mul(one_minus_z, h), ad.mul(z, h_tilde))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w_z": self.w_z, f"{prefix}.b_z": self.b_z,
            f"{prefix}.w_r": self.w_r, f"{prefix}.b_r": self.b_r,
            f"{prefix}.w_h": self.w_h, f"{prefix}.b_h": self.b_h,
        }


class LSTMCell:
    """Standard LSTM over concatenated [h || x]."""

    def __init__(self, rng, hidden: int, input_dim: int | None = None,
                 dtype=np.float64):
        input_dim = hidden if input_dim is None else input_dim
        self.hidden = hidden
        self.input_dim = input_dim
        cat = hidden + input_dim
        mk = lambda: Tensor(kaiming_uniform(rng, cat, (cat, hidden), dtype),
                            requires_grad=True)
        zb = lambda: Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.w_i, self.b_i = mk(), zb()
        self.w_f, self.b_f = mk(), zb()
        self.w_o, self.b_o = mk(), zb()
        self.w_g, self.b_g = mk(), zb()

    def __call__(self, h: Tensor, c: Tensor, x: Tensor):
        if h.shape[-1] != self.hidden or x.shape[-1] != self.input_dim:
            raise ShapeMismatch(
                f"LSTM dims: h{h.shape} x{x.shape} vs hidden={self.hidden}, "
                f"input={self.input_dim}"
            )
        hx = ad.concat([h, x], axis=-1)
        i = ad.sigmoid(ad.linear(hx, self.w_i, self.b_i))
        f = ad.sigmoid(ad.linear(hx, self.w_f, self.b_f))
        o = ad.sigmoid(ad.linear(hx, self.w_o, self.b_o))
        g = ad.tanh(ad.linear(hx, self.w_g, self.b_g))
        c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
        h_new = ad.mul(o, ad.tanh(c_new))
        return h_new, c_new

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w_i": self.w_i, f"{prefix}.b_i": self.b_i,
            f"{prefix}.w_f": self.w_f, f"{prefix}.b_f": self.b_f,
            f"{prefix}.w_o": self.w_o, f"{prefix}.b_o": self.b_o,
            f"{prefix}.w_g": self.w_g, f"{prefix}.b_g": self.b_g,
        }


class Adam:
    """Adam over a named-parameter dict; lr is mutable for schedules."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[k] / b1t
            v_hat = self.v[k] / b2t
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype)


# ----------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, named_params: dict[str, Tensor | np.ndarray],
                    config: dict | None = None):
    """Versioned binary checkpoint: JSON header + little-endian float64 blob."""
    entries = []
    blobs = []
    for name in sorted(named_params):
        arr = named_params[name]
        arr = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
        arr64 = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr64.tobytes())
    header = json.dumps(
        {"format_version": CHECKPOINT_VERSION, "config": config or {},
         "params": entries},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path):
    """Returns (named float64 arrays, config dict).  A header that is not the
    one `save_checkpoint` writes raises CorruptFile."""
    with open(path, "rb") as f:
        magic = read_exact(f, 4)
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"not a checkpoint file: bad magic {magic!r}")
        (hlen,) = read_struct(f, "<I")
        header = _parse_header(read_exact(f, hlen), path)
        params = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = read_exact(f, 8 * count)
            params[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return params, header["config"]


def _parse_header(raw: bytes, path) -> dict:
    """The parsed header: a config object and a list of named, shaped
    parameters.  A header of another format version raises ConfigError, a
    malformed one CorruptFile."""
    try:
        header = json.loads(raw.decode("utf-8"))
        if header["format_version"] != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {header['format_version']}")
        valid = (isinstance(header["config"], dict)
                 and all(isinstance(e["name"], str) and isinstance(e["shape"], list)
                         and all(isinstance(n, int) and n >= 0 for n in e["shape"])
                         for e in header["params"]))
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptFile(f"{path}: malformed checkpoint header: {e!r}") from e
    if not valid:
        raise CorruptFile(f"{path}: malformed checkpoint header")
    return header


@contextlib.contextmanager
def checkpoint_config(path):
    """Reads of a loaded checkpoint's config: a missing or malformed entry
    met inside the block raises CorruptFile."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise CorruptFile(f"{path}: malformed checkpoint config: {e!r}") from e


def assign_params(named: dict[str, Tensor], values: dict[str, np.ndarray]):
    """Load checkpoint arrays into live parameter tensors, casting dtype."""
    missing = set(named) - set(values)
    extra = set(values) - set(named)
    if missing or extra:
        raise ConfigError(f"parameter name mismatch: missing={sorted(missing)}, "
                          f"extra={sorted(extra)}")
    for k, t in named.items():
        v = values[k]
        if tuple(v.shape) != tuple(t.shape):
            raise ShapeMismatch(f"{k}: checkpoint shape {v.shape} != model {t.shape}")
        t.data = v.astype(t.dtype)
