"""Recurrent scene-flow network for radar point clouds.

Five stages per frame pair: (1) a shared multi-scale local encoder over both
clouds, (2) attention-pooled global context appended to every point, (3) a
patch-to-patch cost volume between the enriched clouds, (4) a flow-embedding
encoder whose pooled output drives a GRU carrying motion context across the
samples of a clip, (5) a clamped per-point flow regressor.  Stages 1-2 are
the `CloudEncoder` that the downstream networks use too.  The recurrent state
also carries the last target's encoding, which the next pair reuses for its
source when the frames are equal.  Training runs clip-by-clip with full
backpropagation through the recurrent state inside a clip and a hard state
reset between clips; `stream` carries the state over a clip's pairs.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._kernels import NeighbourTable, knn_indices
from .autodiff import Tensor
from .config import NetConfig, TrainConfig, from_dict
from .errors import (
    ConfigError,
    EmptyFrame,
    EmptyMask,
    LengthMismatch,
    NonFiniteLoss,
    NoValidPoints,
    TaskMismatch,
)
from .layers import (
    MLP,
    Adam,
    CostVolume,
    GRUCell,
    assign_params,
    checkpoint_config,
    global_pool,
    load_checkpoint,
    save_checkpoint,
    set_abstraction,
)
from .metrics import aggregate_flow_metrics, flow_metrics

RESET_PERIOD = 5  # GRU hidden state zeroed after this many samples


def broadcast_rows(vec: Tensor, n: int) -> Tensor:
    """(C,) -> (n, C) as a product with a column of ones."""
    ones = Tensor(np.ones((n, 1), dtype=vec.dtype))
    return ad.mul(ones, ad.reshape(vec, (1, -1)))


class CloudEncoder:
    """Multi-scale local features with pooled global context appended.

    One set abstraction per radius of `cfg.sa_radii`, each followed by its
    post MLP; the concatenated per-point features k are attention-pooled into
    g, and every point's encoding is z = [k || g].  `cfg` is a NetConfig or a
    TaskConfig; both carry the same encoder fields.
    """

    def __init__(self, rng, cfg, in_features: int, dtype):
        self.cfg = cfg
        n_scales = len(cfg.sa_radii)
        in_dim = 3 + in_features
        self.sas = [MLP(rng, in_dim, list(cfg.sa_mlp), dtype=dtype)
                    for _ in range(n_scales)]
        self.posts = [MLP(rng, cfg.sa_mlp[-1], list(cfg.post_sa_mlp), dtype=dtype)
                      for _ in range(n_scales)]
        self.feat_out = n_scales * cfg.post_sa_mlp[-1]
        self.z_dim = 2 * self.feat_out
        self.attn = MLP(rng, self.feat_out, [cfg.attention_hidden, 1], dtype=dtype)

    def __call__(self, points, feats: Tensor,
                 table: NeighbourTable | None = None) -> tuple[Tensor, Tensor]:
        """(points N x 3, features N x C[, the points' NeighbourTable]) ->
        (z N x z_dim, g feat_out)."""
        if table is None:
            table = NeighbourTable(np.asarray(points, dtype=feats.dtype))
        outs = []
        for sa, post, radius, samples in zip(self.sas, self.posts,
                                             self.cfg.sa_radii, self.cfg.sa_samples):
            outs.append(post(set_abstraction(sa, points, feats, radius, samples,
                                             table=table)))
        k = ad.concat(outs, axis=1)
        g, _ = global_pool(self.attn, k)
        return ad.concat([k, broadcast_rows(g, k.shape[0])], axis=1), g

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for s, (sa, post) in enumerate(zip(self.sas, self.posts)):
            out.update(sa.named_params(f"{prefix}.sa{s}"))
            out.update(post.named_params(f"{prefix}.post{s}"))
        out.update(self.attn.named_params(f"{prefix}.attn"))
        return out


@dataclass(eq=False)
class EncodedFrame:
    """One frame's network inputs, neighbour table and local encoding z."""

    points: np.ndarray  # (N, 3) in the model dtype
    feats: Tensor  # (N, 1) intensities in the model dtype
    table: NeighbourTable
    z: Tensor  # (N, z_dim)
    grad: bool  # whether z was recorded on a tape


@dataclass
class TemporalState:
    h: Tensor  # (gru_hidden,)
    steps_since_reset: int = 0
    # the previous pair's target, encoded: the next pair's source is the same
    # frame whenever a stream or a clip moves on by one, so its encoding is
    # reused when the inputs are equal (valid while parameters are unchanged)
    target: EncodedFrame | None = None


class FlowNet:
    """All parameters plus the forward pass; see module docstring."""

    def __init__(self, cfg: NetConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.local = CloudEncoder(rng, cfg, cfg.input_features, dtype)
        self.ctx = CloudEncoder(rng, cfg, cfg.input_features, dtype)

        z_dim = self.local.z_dim  # 512, per-point feature + global context
        self.cv = CostVolume(rng, z_dim, k_neighbors=cfg.cv_k, d_cost=cfg.cv_dcost,
                             weight_hidden=cfg.cv_weight_hidden, dtype=dtype)
        embed_in = cfg.cv_dcost + z_dim  # 576
        n_scales = len(cfg.sa_radii)
        self.embed = [
            MLP(rng, embed_in, list(cfg.embed_mlp), dtype=dtype) for _ in range(n_scales)
        ]
        embed_out = n_scales * cfg.embed_mlp[-1]  # 256
        self.embed_attn = MLP(rng, embed_out, [cfg.attention_hidden, 1], dtype=dtype)
        self.gru = GRUCell(rng, cfg.gru_hidden, input_dim=embed_out, dtype=dtype)
        # the ablated variant appends the pooled embedding instead of the GRU state
        top_dim = cfg.gru_hidden if cfg.temporal else embed_out
        self.final_dim = embed_out + top_dim  # width of the per-point features A
        self.regressor = MLP(rng, self.final_dim, list(cfg.regressor), dtype=dtype)
        # Shrink the head's last layer so initial predictions are ~1e-2, well
        # inside the clamp band.  At default width the raw outputs are O(10);
        # a saturated clamp passes zero gradient and training never recovers.
        self.regressor.weights[-1].data *= 1e-3

    def named_params(self) -> dict[str, Tensor]:
        out = self.local.named_params("local")
        out.update(self.ctx.named_params("ctx"))
        out.update(self.cv.named_params("cv"))
        for s, branch in enumerate(self.embed):
            out.update(branch.named_params(f"embed.{s}"))
        out.update(self.embed_attn.named_params("embed.attn"))
        out.update(self.gru.named_params("gru"))
        out.update(self.regressor.named_params("reg"))
        return out

    def initial_state(self) -> TemporalState:
        return TemporalState(Tensor(np.zeros(self.cfg.gru_hidden, dtype=self.dtype)), 0)

    def _encoded(self, frame, cached: EncodedFrame | None = None) -> EncodedFrame:
        """The frame's inputs with its table and local encoding; `cached` is
        returned instead when it holds the same inputs in the same grad mode."""
        points = np.asarray(frame.points, dtype=self.dtype)
        feats = Tensor(frame.intensities.astype(self.dtype)[:, None])
        grad = ad.is_grad_enabled()
        if (cached is not None and cached.grad == grad
                and np.array_equal(cached.points, points)
                and np.array_equal(cached.feats.data, feats.data)):
            return cached
        table = NeighbourTable(points)
        z, _ = self.local(points, feats, table)
        return EncodedFrame(points, feats, table, z, grad)

    def forward(self, source, target, state: TemporalState):
        """One frame pair -> (flows N x 3, new state, final features A N x 512)."""
        if len(source) == 0 or len(target) == 0:
            raise EmptyFrame("forward needs non-empty source and target frames")
        p = self._encoded(source, state.target)
        q = self._encoded(target)
        z_c, _ = self.ctx(p.points, p.feats, p.table)

        cost = self.cv(p.points, p.z, q.points, q.z, table_p=p.table)
        stacked = ad.concat([cost, z_c], axis=1)
        emb = ad.concat([branch(stacked) for branch in self.embed], axis=1)
        g_b, _ = global_pool(self.embed_attn, emb)

        if self.cfg.temporal:
            h_new = self.gru(state.h, g_b)
            top = h_new
        else:
            h_new = state.h
            top = g_b
        final = ad.concat([emb, broadcast_rows(top, emb.shape[0])], axis=1)
        flows = ad.clamp(self.regressor(final), -self.cfg.clamp, self.cfg.clamp)

        steps = state.steps_since_reset + 1
        if steps >= RESET_PERIOD:
            h_new, steps = self.initial_state().h, 0
        return flows, TemporalState(h_new, steps, q), final

    def config_dict(self) -> dict:
        return {
            "kind": "flow",
            "net": dataclasses.asdict(self.cfg),
            "dtype": self.dtype.name,
        }


def flow_loss(flows: Tensor, label, zeta: float = 0.1,
              alpha_large: float = 2.0, alpha_small: float = 1.0) -> Tensor:
    """Per-point endpoint error averaged separately over large and small
    ground-truth flows, combined with the configured weights."""
    valid = np.asarray(label.valid_mask, dtype=bool)
    if flows.shape[0] != len(valid):
        raise LengthMismatch(f"{flows.shape[0]} flows vs {len(valid)} labels")
    if not valid.any():
        raise NoValidPoints("every point in the sample is masked out")
    vidx = np.flatnonzero(valid)
    gt = label.flows[vidx]
    err = ad.norm(ad.add(ad.take(flows, vidx), Tensor(-gt.astype(flows.dtype))), axis=1)
    large = np.linalg.norm(gt, axis=1) >= zeta
    loss = None
    for sel, weight in ((large, alpha_large), (~large, alpha_small)):
        if sel.any():
            term = ad.mul(ad.tmean(ad.take(err, np.flatnonzero(sel))), float(weight))
            loss = term if loss is None else ad.add(loss, term)
    return loss


def mean_flow_loss(pairs, cfg: NetConfig) -> Tensor | None:
    """Mean of the configured flow loss over (flows, label) pairs; pairs
    without a valid label are skipped, and None is returned when none is
    left."""
    losses = []
    for flows, label in pairs:
        try:
            losses.append(flow_loss(flows, label, zeta=cfg.loss_zeta,
                                    alpha_large=cfg.alpha_large,
                                    alpha_small=cfg.alpha_small))
        except NoValidPoints:
            continue
    return ad.mean_of(losses) if losses else None


def stream(model: FlowNet, pairs):
    """`model.forward` over consecutive (source, target) pairs from a fresh
    state, carrying the recurrent state from pair to pair: yields
    (flows, final features) per pair, or None for a pair with an empty frame,
    which leaves the state as it was."""
    state = model.initial_state()
    for source, target in pairs:
        try:
            flows, state, final = model.forward(source, target, state)
        except EmptyFrame:
            yield None
            continue
        yield flows, final


def clip_loss(model: FlowNet, clip) -> Tensor | None:
    """Mean loss over a clip's usable samples; None when none are usable."""
    outputs = stream(model, ((sample.source, sample.target) for sample in clip))
    pairs = [(out[0], sample.label) for out, sample in zip(outputs, clip)
             if out is not None]
    return mean_flow_loss(pairs, model.cfg)


def predict_clip(model: FlowNet, clip) -> list[np.ndarray | None]:
    """Inference over one clip; None marks samples with an empty frame."""
    with ad.no_grad():
        return [None if out is None else out[0].data.astype(np.float64)
                for out in stream(model, ((s.source, s.target) for s in clip))]


def _baseline_flows(sample, kind: str) -> np.ndarray:
    n = len(sample.source)
    if kind == "zero":
        return np.zeros((n, 3))
    if kind == "nearest":
        if n == 0 or len(sample.target) == 0:
            return np.zeros((n, 3))
        idx = knn_indices(sample.source.points, sample.target.points, 1)
        return sample.target.points[idx[:, 0]] - sample.source.points
    if kind == "oracle":
        # label passthrough: exercises the metric plumbing without a model
        return np.array(sample.label.flows, dtype=float)
    raise ConfigError(f"unknown baseline {kind!r}")


def _collect_metrics(per_sample_flows, clips):
    per_frame, excluded = [], 0
    for flows_list, clip in zip(per_sample_flows, clips):
        for flows, sample in zip(flows_list, clip):
            if flows is None:
                excluded += 1
                continue
            try:
                per_frame.append(
                    flow_metrics(flows, sample.label.flows,
                                 eval_mask=sample.label.valid_mask)
                )
            except EmptyMask:
                excluded += 1
    return aggregate_flow_metrics(per_frame, n_excluded=excluded)


def evaluate_model(model: FlowNet, clips) -> dict:
    return _collect_metrics((predict_clip(model, c) for c in clips), clips)


def evaluate_baseline(clips, kind: str) -> dict:
    flows = ([_baseline_flows(s, kind) for s in clip] for clip in clips)
    return _collect_metrics(flows, clips)


def fit(named: dict[str, Tensor], train_clips, val_clips, loss_fn, validate,
        train_cfg: TrainConfig, checkpoint_path, config: dict, score_name: str,
        maximize: bool = False, log_path=None) -> list[dict]:
    """The training loop both trainers share.

    Each epoch runs Adam, its learning rate decayed per epoch, over the
    training clips in a seeded shuffle, `batch_clips` clips per step, with
    the gradient averaged over the clips that gave a loss.  `loss_fn(clip)`
    returns a scalar loss Tensor, or None when the clip has nothing to learn
    from.  Then `validate(clips)` scores the validation clips (a seeded
    subset of at most `max_val_clips`, drawn before the first shuffle); the
    parameters are checkpointed with `config` whenever the score improves,
    and training stops after `patience` epochs without improvement.  Each
    epoch's row {epoch, train_loss, `score_name`, lr} is appended to the
    history and to the JSONL log at `log_path`.  A NaN or infinite loss
    raises NonFiniteLoss before it reaches the parameters.  Returns the
    history, with the best checkpoint's values loaded into `named`.
    """
    train_clips, val_clips = list(train_clips), list(val_clips)
    if not train_clips:
        raise ConfigError("no training clips")
    if not val_clips:
        raise ConfigError("no validation clips")
    opt = Adam(named, lr=train_cfg.lr)
    rng = np.random.default_rng(train_cfg.seed)
    if train_cfg.max_val_clips is not None and len(val_clips) > train_cfg.max_val_clips:
        pick = rng.permutation(len(val_clips))[: train_cfg.max_val_clips]
        val_clips = [val_clips[i] for i in pick]

    sign = 1.0 if maximize else -1.0
    best = -np.inf  # of sign * score
    saved = False
    since_best = 0
    history = []
    log_f = open(log_path, "w") if log_path is not None else None
    try:
        for epoch in range(train_cfg.epochs):
            opt.lr = train_cfg.lr * train_cfg.lr_decay ** epoch
            order = rng.permutation(len(train_clips))
            if train_cfg.max_clips_per_epoch is not None:
                order = order[: train_cfg.max_clips_per_epoch]
            epoch_losses = []
            for start in range(0, len(order), train_cfg.batch_clips):
                opt.zero_grad()
                contributed = 0
                for ci in order[start: start + train_cfg.batch_clips]:
                    loss = loss_fn(train_clips[ci])
                    if loss is None:
                        continue
                    if not np.isfinite(loss.data):
                        raise NonFiniteLoss(
                            f"epoch {epoch}, training clip {ci}: loss is {float(loss.data)}")
                    loss.backward()
                    epoch_losses.append(float(loss.data))
                    contributed += 1
                if contributed == 0:
                    continue
                if contributed > 1:
                    for t in named.values():
                        if t.grad is not None:
                            t.grad /= contributed
                opt.step()
            score = validate(val_clips)
            row = {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
                score_name: score,
                "lr": opt.lr,
            }
            history.append(row)
            if log_f is not None:
                log_f.write(json.dumps(row) + "\n")
                log_f.flush()
            if (not np.isnan(score) and sign * score > best) or not saved:
                best = sign * score if not np.isnan(score) else best
                save_checkpoint(checkpoint_path, named, config=config)
                saved = True
                since_best = 0
            else:
                since_best += 1
                if since_best >= train_cfg.patience:
                    break
    finally:
        if log_f is not None:
            log_f.close()

    values, _ = load_checkpoint(checkpoint_path)
    assign_params(named, values)
    return history


def train_flow_model(train_clips, val_clips, net_cfg: NetConfig,
                     train_cfg: TrainConfig, checkpoint_path,
                     log_path=None) -> tuple[FlowNet, list[dict]]:
    """`fit` on the flow loss, keeping the model with the lowest validation
    EPE3D; returns the best model and the per-epoch history."""
    model = FlowNet(net_cfg, seed=train_cfg.seed, dtype=np.dtype(train_cfg.dtype))
    history = fit(model.named_params(), train_clips, val_clips,
                  lambda clip: clip_loss(model, clip),
                  lambda clips: evaluate_model(model, clips)["epe3d"]["all"],
                  train_cfg, checkpoint_path, model.config_dict(), "val_epe3d",
                  log_path=log_path)
    return model, history


def flow_model_from_config(config: dict, path) -> FlowNet:
    """An untrained FlowNet as a checkpoint's flow config describes it;
    `path` names the checkpoint in errors."""
    with checkpoint_config(path):
        net_cfg = from_dict(NetConfig, config["net"])
        dtype = np.dtype(config.get("dtype", "float32"))
    return FlowNet(net_cfg, seed=0, dtype=dtype)


def load_flow_model(path) -> FlowNet:
    values, config = load_checkpoint(path)
    if config.get("kind") != "flow":
        raise TaskMismatch(f"checkpoint at {path} is not a flow model")
    model = flow_model_from_config(config, path)
    assign_params(model.named_params(), values)
    return model


def infer_sequence(model: FlowNet, frames) -> tuple[list[dict], TemporalState]:
    """Streaming pair-by-pair inference over a frame list.

    Pairs with an empty frame yield a zero-flow placeholder without touching
    the recurrent state.  Each record carries the wall-clock latency.
    """
    if len(frames) < 2:
        raise ConfigError(f"need at least 2 frames, got {len(frames)}")
    state = model.initial_state()
    records = []
    for i in range(len(frames) - 1):
        t0 = time.perf_counter()
        try:
            with ad.no_grad():
                flows, state, _ = model.forward(frames[i], frames[i + 1], state)
            rec = {"flows": flows.data.astype(np.float64), "placeholder": False}
        except EmptyFrame:
            rec = {"flows": np.zeros((len(frames[i]), 3)), "placeholder": True}
        rec["latency"] = time.perf_counter() - t0
        records.append(rec)
    return records, state
