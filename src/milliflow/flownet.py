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
from pathlib import Path

import numpy as np

from . import autodiff as ad
from ._kernels import NeighbourTable, knn_indices
from .autodiff import Tensor
from .config import EncoderConfig, NetConfig, TrainConfig, from_dict, model_dtype
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
    Params,
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

    One set abstraction per radius of `cfg.sa_radii` (`cfg` is an
    EncoderConfig), each followed by its post MLP; the concatenated per-point
    features k are attention-pooled into g, and every point's encoding is
    z = [k || g], of width `z_dim`.  The encoder returns z as its two blocks
    (k, g): an MLP takes them as they are (`ad.mlp`), so g is
    multiplied once, not once per point.
    """

    def __init__(self, params: Params, cfg: EncoderConfig, in_features: int):
        self.cfg = cfg
        n_scales = len(cfg.sa_radii)
        in_dim = 3 + in_features
        self.sas = [MLP(params.scope(f"sa{s}"), in_dim, list(cfg.sa_mlp))
                    for s in range(n_scales)]
        self.posts = [MLP(params.scope(f"post{s}"), cfg.sa_mlp[-1], list(cfg.post_sa_mlp))
                      for s in range(n_scales)]
        self.feat_out = n_scales * cfg.post_sa_mlp[-1]
        self.z_dim = 2 * self.feat_out
        self.attn = MLP(params.scope("attn"), self.feat_out, [cfg.attention_hidden, 1])

    def __call__(self, points, feats: Tensor,
                 table: NeighbourTable) -> tuple[Tensor, Tensor]:
        """(points N x 3, features N x C, the points' NeighbourTable) ->
        (k N x feat_out, g feat_out)."""
        outs = []
        for sa, post, radius, samples in zip(self.sas, self.posts,
                                             self.cfg.sa_radii, self.cfg.sa_samples):
            outs.append(post(set_abstraction(sa, points, feats, radius, samples, table)))
        k = ad.concat(outs, axis=1)
        return k, global_pool(self.attn, k)


@dataclass(eq=False)
class EncodedFrame:
    """One frame's network inputs, neighbour table and local encoding z as
    its blocks (k, g)."""

    points: np.ndarray  # (N, 3) in the model dtype
    feats: Tensor  # (N, 1) intensities in the model dtype
    table: NeighbourTable
    z: tuple[Tensor, Tensor]  # (N, feat_out), (feat_out,)
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
    """All parameters plus the forward pass; see module docstring.  `values`,
    a checkpoint's arrays by parameter name, take the place of seeded draws."""

    def __init__(self, cfg: NetConfig, seed: int = 0, dtype=np.float32, values=None):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        p = Params(self.dtype, seed, values)
        # both encoders read the one intensity column that `_encoded` feeds them
        self.local = CloudEncoder(p.scope("local"), cfg, 1)
        self.ctx = CloudEncoder(p.scope("ctx"), cfg, 1)

        z_dim = self.local.z_dim  # 512, per-point feature + global context
        self.cv = CostVolume(p.scope("cv"), z_dim, k_neighbors=cfg.cv_k,
                             d_cost=cfg.cv_dcost, weight_hidden=cfg.cv_weight_hidden)
        embed_in = cfg.cv_dcost + z_dim  # 576
        n_scales = len(cfg.sa_radii)
        self.embed = [MLP(p.scope(f"embed.{s}"), embed_in, list(cfg.embed_mlp))
                      for s in range(n_scales)]
        embed_out = n_scales * cfg.embed_mlp[-1]  # 256
        self.embed_attn = MLP(p.scope("embed.attn"), embed_out, [cfg.attention_hidden, 1])
        self.gru = GRUCell(p.scope("gru"), cfg.gru_hidden, input_dim=embed_out)
        # the ablated variant appends the pooled embedding instead of the GRU state
        top_dim = cfg.gru_hidden if cfg.temporal else embed_out
        self.final_dim = embed_out + top_dim  # width of the per-point features A
        self.regressor = MLP(p.scope("reg"), self.final_dim, list(cfg.regressor))
        if values is None:
            # Shrink the head's last layer so initial predictions are ~1e-2, well
            # inside the clamp band.  At default width the raw outputs are O(10);
            # a saturated clamp passes zero gradient and training never recovers.
            self.regressor.weights[-1].data *= 1e-3
        self._named = p.done()

    def named_params(self) -> dict[str, Tensor]:
        return dict(self._named)  # a new dict: callers add to it

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
        return EncodedFrame(points, feats, table, self.local(points, feats, table), grad)

    def forward(self, source, target, state: TemporalState):
        """One frame pair -> (flows N x 3, new state, final features A N x 512)."""
        if len(source) == 0 or len(target) == 0:
            raise EmptyFrame("forward needs non-empty source and target frames")
        p = self._encoded(source, state.target)
        q = self._encoded(target)
        k_c, g_c = self.ctx(p.points, p.feats, p.table)

        cost = self.cv(p.points, p.z, q.points, q.z, p.table)
        emb = ad.concat([branch(cost, k_c, g_c) for branch in self.embed], axis=1)
        g_b = global_pool(self.embed_attn, emb)

        if self.cfg.temporal:
            h_new = self.gru(state.h, g_b)
            top = h_new
        else:
            h_new = state.h
            top = g_b
        flows = ad.clamp(self.regressor(emb, top), -self.cfg.clamp, self.cfg.clamp)
        final = ad.concat([emb, broadcast_rows(top, emb.shape[0])], axis=1)

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


def flow_loss(flows: Tensor, label, cfg: NetConfig) -> Tensor:
    """Per-point endpoint error averaged separately over large and small
    ground-truth flows (at least `cfg.loss_zeta` long, and shorter ones),
    combined with the weights `cfg.alpha_large` and `cfg.alpha_small`."""
    valid = np.asarray(label.valid_mask, dtype=bool)
    if flows.shape[0] != len(valid):
        raise LengthMismatch(f"{flows.shape[0]} flows vs {len(valid)} labels")
    if not valid.any():
        raise NoValidPoints("every point in the sample is masked out")
    vidx = np.flatnonzero(valid)
    gt = label.flows[vidx]
    err = ad.norm(ad.add(ad.take(flows, vidx), Tensor(-gt.astype(flows.dtype))), axis=1)
    large = np.linalg.norm(gt, axis=1) >= cfg.loss_zeta
    loss = None
    for sel, weight in ((large, cfg.alpha_large), (~large, cfg.alpha_small)):
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
            losses.append(flow_loss(flows, label, cfg))
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
        maximize: bool = False, *, log_path) -> list[dict]:
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
    history and to the JSONL log at `log_path`, which every run writes.  The
    log is a stream, not an `atomic_write` as checkpoints and manifests are:
    it is written row by row and flushed each epoch, so an interrupted run
    leaves the rows of its finished epochs.  A NaN or infinite loss raises
    NonFiniteLoss before it reaches the parameters.  Returns the
    history, with the best checkpoint's values put back into `named`.
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
    saved = None  # the checkpointed arrays by name
    since_best = 0
    history = []
    # made only here, where the run first writes, so a run refused for its
    # inputs or its model makes no directory
    for path in (log_path, checkpoint_path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log_f:
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
                    del loss  # frees the clip's tape before the next clip runs
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
            log_f.write(json.dumps(row) + "\n")
            log_f.flush()
            if (not np.isnan(score) and sign * score > best) or saved is None:
                best = sign * score if not np.isnan(score) else best
                save_checkpoint(checkpoint_path, named, config=config)
                saved = {k: t.data.copy() for k, t in named.items()}
                since_best = 0
            else:
                since_best += 1
                if since_best >= train_cfg.patience:
                    break

    for k, t in named.items():
        t.data = saved[k]
    return history


def train_flow_model(train_clips, val_clips, net_cfg: NetConfig,
                     train_cfg: TrainConfig, checkpoint_path,
                     log_path) -> tuple[FlowNet, list[dict]]:
    """`fit` on the flow loss, keeping the model with the lowest validation
    EPE3D; returns the best model and the per-epoch history."""
    model = FlowNet(net_cfg, seed=train_cfg.seed, dtype=np.dtype(train_cfg.dtype))
    history = fit(model.named_params(), train_clips, val_clips,
                  lambda clip: clip_loss(model, clip),
                  lambda clips: evaluate_model(model, clips)["epe3d"]["all"],
                  train_cfg, checkpoint_path, model.config_dict(), "val_epe3d",
                  log_path=log_path)
    return model, history


def flow_model_from_config(config: dict, values: dict[str, np.ndarray], path) -> FlowNet:
    """The FlowNet a checkpoint's flow config describes, holding the stored
    `values`; `path` names the checkpoint in errors."""
    with checkpoint_config(path):
        net_cfg = from_dict(NetConfig, config["net"])
        dtype = model_dtype(config["dtype"])
    return FlowNet(net_cfg, dtype=dtype, values=values)


def load_flow_model(path) -> FlowNet:
    values, config = load_checkpoint(path)
    if config.get("kind") != "flow":
        raise TaskMismatch(f"checkpoint at {path} is not a flow model")
    return flow_model_from_config(config, values, path)


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
