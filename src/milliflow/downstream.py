"""Downstream consumers of estimated scene flow.

Three tasks share the flow network's encoder vocabulary: sequence-level
activity classification (HAR), per-point body-segment classification (HP),
and Kabsch-based body-part tracking.  Point features are selected by strategy:
"raw" uses intensity alone, "s1" appends per-point flow from a frozen flow
model, "s2" appends the flow network's per-point features and trains both
networks jointly on a summed loss.  s1 and s2 task checkpoints store their
flow model, frozen or co-trained, under `flow.` names.  Task and tracking
windows come from `dataio.preprocess_sequence` and `dataio.windows`, as flow
samples do, and s1/s2 run the flow network through `flownet.stream`.

HAR and HP share one path (`clip_loss`, `predict`, `evaluate`,
`train_task_model`) and differ only in their network's `rows` (a window's
score rows, true classes and valid mask), `loss` and `report`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._kernels import farthest_point_sample
from .autodiff import Tensor
from .config import TaskConfig, TrainConfig, from_dict, model_dtype
# every call of preprocess_indices goes through dataio.preprocess_sequence; the
# name stays importable here because benchmarks/perf/tracer.py lists it among
# its trace points
from .dataio import preprocess_indices, preprocess_sequence, windows  # noqa: F401
from .errors import (
    ConfigError,
    DegenerateInput,
    EmptyFrame,
    EmptyInput,
    LengthMismatch,
    MissingFlowModel,
    NoValidPoints,
    TaskMismatch,
    fits,
)
from .flownet import (
    CloudEncoder, FlowNet, encode, fit, flow_model_from_config, infer_sequence,
    mean_flow_loss, stream,
)
from .geometry import kabsch
from .labeling import ASSIGNMENT_RADIUS, N_SEGMENTS, nearest_segment
from .layers import (
    MLP,
    GRUCell,
    LSTMCell,
    Params,
    checkpoint_config,
    global_pool,
    open_checkpoint,
    set_abstraction,
)
from .metrics import confusion_matrix, mean_iou, mean_joint_error, overall_accuracy
from .skeleton import BONE_CHILD, BONE_PARENT

STRATEGIES = ("raw", "s1", "s2")
TRACK_CLIP_LENGTH = 5  # one init frame plus four tracked steps

# bones tracked per activity: the moving limb segments, upper and lower
TRACK_TARGETS = {
    "ArmSwing": (3, 4, 5, 6),
    "LegSwing": (9, 10, 11, 12),
    "ArmLegSwing": (3, 4, 5, 6, 9, 10, 11, 12),
}


@dataclass
class TaskClip:
    """A fixed-length frame window with per-pair labels and an activity class.

    labels[t] annotates the pair (t, t+1); the window's final frame has no
    successor inside the window and carries None.
    """

    frames: list
    labels: list
    activity: int


def task_clips(sequences, cfg: TaskConfig, mode: str, catalogue,
               seed: int = 0) -> list[TaskClip]:
    """Tile labeled sequences into full, disjoint windows of cfg.window frames.

    Frames and labels come from `preprocess_sequence`, as flow-training
    samples do; a frame losing every point stays in the window as an empty
    placeholder.  A window's activity class is its index in `catalogue`, the
    run config's in-set activities; sequences whose activity is outside the
    catalogue are skipped.
    """
    clips = []
    for seq in sequences:
        if seq.activity_id not in catalogue:
            continue
        klass = catalogue.index(seq.activity_id)
        frames, labels = preprocess_sequence(seq, mode, seed)
        for window in windows(len(frames), cfg.window):
            clips.append(TaskClip(frames[window], labels[window][:-1] + [None], klass))
    return clips


# ----------------------------------------------------------------------
# strategy plumbing


def strategy_feature_dim(strategy: str, flow_model: FlowNet | None) -> int:
    """Features per point for a strategy; the one check of a strategy and its flow model."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if strategy != "raw" and flow_model is None:
        raise MissingFlowModel(f"strategy {strategy!r} needs a flow model")
    if strategy == "raw":
        return 1
    if strategy == "s1":
        return 4  # intensity plus the three flow components
    return 1 + flow_model.final_dim


@dataclass
class DecoratedClip:
    feats: list  # Tensor (N_t, F) per frame
    pair_flows: list | None = None  # s2 only: flow Tensor | None per pair


def decorate_clip(frames, strategy: str, flow_model: FlowNet | None,
                  dtype=np.float32) -> DecoratedClip:
    """Per-frame point features for one window.

    The window's final frame has no successor, so its flow-derived channels
    are zero.  s1 runs the flow model frozen; s2 keeps the autodiff graph so
    a joint loss reaches the flow parameters, and also returns the per-pair
    flow tensors for reuse in that loss.
    """
    width = strategy_feature_dim(strategy, flow_model) - 1  # flow-derived channels
    base = [Tensor(f.intensities.astype(dtype)[:, None]) for f in frames]
    if strategy == "raw":
        return DecoratedClip(base)

    feats, pair_flows = [], []
    with ad.no_grad() if strategy == "s1" else contextlib.nullcontext():
        outputs = stream(flow_model, zip(frames[:-1], frames[1:]))
        for b in base:
            # the final frame starts no pair and reads None, as an empty pair does
            flows, _, final = next(outputs, (None, None, None))
            if flows is None:
                extra = Tensor(np.zeros((b.shape[0], width), dtype=dtype))
            elif strategy == "s1":
                extra = Tensor(flows.data.astype(dtype))
            else:
                extra = final
            feats.append(ad.concat([b, extra], axis=1))
            pair_flows.append(flows)
    return DecoratedClip(feats, pair_flows[:-1] if strategy == "s2" else None)


# ----------------------------------------------------------------------
# task networks


class _TaskNet:
    """What the activity and parsing networks share: their parameter record
    (seeded draws, or the `values` a checkpoint stores), checkpoint config,
    and the one task path, to which each network gives its `rows`, `loss`
    and `report`."""

    def _params(self, cfg: TaskConfig, in_features: int, n_classes: int, seed: int,
                dtype, values) -> Params:
        """Record the fields every task network has; the source of its parameters."""
        self.cfg = cfg
        self.in_features = in_features
        self.n_classes = n_classes
        self.dtype = np.dtype(dtype)
        return Params(self.dtype, seed, values)

    def named_params(self) -> dict:
        return dict(self._named)  # a new dict: callers add to it

    def config_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task": dataclasses.asdict(self.cfg),
            "in_features": self.in_features,
            "n_classes": self.n_classes,
            "dtype": self.dtype.name,
        }


class HarNet(_TaskNet):
    """Sequence-level activity classifier.

    Per frame: cloud encoder (`encode`), then a second local encoder on
    farthest-point centroids, attention-pooled into one frame vector; both
    read one neighbour table of the frame.  An LSTM consumes the frame
    vectors; the classifier reads its last hidden state.
    """

    kind = "har"
    nothing_scored = "no scorable windows"

    def __init__(self, cfg: TaskConfig, in_features: int, n_classes: int,
                 seed: int = 0, dtype=np.float32, values=None):
        if n_classes < 2:
            raise ConfigError("classifier needs at least 2 classes")
        p = self._params(cfg, in_features, n_classes, seed, dtype, values)
        self.encoder = CloudEncoder(p.scope("enc"), cfg, in_features)
        self.stage2 = MLP(p.scope("stage2"), 3 + self.encoder.z_dim, list(cfg.stage2_mlp))
        self.stage2_attn = MLP(p.scope("stage2.attn"), cfg.stage2_mlp[-1],
                               [cfg.attention_hidden, 1])
        self.lstm = LSTMCell(p.scope("lstm"), cfg.lstm_hidden, input_dim=cfg.stage2_mlp[-1])
        self.head = MLP(p.scope("head"), cfg.lstm_hidden, list(cfg.classifier) + [n_classes])
        self._named = p.done()

    def frame_vector(self, frame, feats: Tensor) -> Tensor:
        points = np.asarray(frame.points, dtype=self.dtype)
        enc = encode(self.encoder, points, feats)
        k = min(self.cfg.fps_centroids, len(points))
        # anchor the sweep at the lexicographically smallest point so the
        # centroid choice depends on geometry, not on input order
        start = int(np.lexsort((points[:, 2], points[:, 1], points[:, 0]))[0])
        centroid_idx = farthest_point_sample(points, k, start=start)
        pooled = set_abstraction(self.stage2, points, enc.z, self.cfg.stage2_radius,
                                 self.cfg.stage2_samples, enc.table, centroid_idx)
        return global_pool(self.stage2_attn, pooled)

    def forward(self, frames, feats_list) -> Tensor:
        """Window of frames with per-point features -> class scores (K,)."""
        h = Tensor(np.zeros(self.cfg.lstm_hidden, dtype=self.dtype))
        c = Tensor(np.zeros(self.cfg.lstm_hidden, dtype=self.dtype))
        seen = False
        for frame, feats in zip(frames, feats_list):
            if len(frame) == 0:
                continue  # no evidence this frame; hold the recurrent state
            v = self.frame_vector(frame, feats)
            h, c = self.lstm(h, c, v)
            seen = True
        if not seen:
            raise EmptyFrame("every frame in the window is empty")
        return self.head(h)

    def rows(self, clip: TaskClip, feats):
        """One score row for the window and its activity; None when every
        frame is empty."""
        try:
            scores = self.forward(clip.frames, feats)
        except EmptyFrame:
            return None
        return ad.reshape(scores, (1, -1)), np.array([clip.activity]), np.ones(1, bool)

    def loss(self, scores: Tensor, labels, valid) -> Tensor:
        return cross_entropy(scores, labels)  # the one row is always valid

    def report(self, preds, truths) -> dict:
        return {"oa": overall_accuracy(preds, truths),
                "confusion": confusion_matrix(preds, truths, self.n_classes),
                "n_clips": len(preds)}


class HpNet(_TaskNet):
    """Per-point body-segment classifier.

    Per frame: cloud encoder (`encode`); a GRU propagates the pooled global
    vector across frames; a point's head input is its local-global feature
    with the hidden state appended.
    """

    kind = "hp"
    nothing_scored = "no valid labeled points"

    def __init__(self, cfg: TaskConfig, in_features: int,
                 n_classes: int = N_SEGMENTS, seed: int = 0, dtype=np.float32, values=None):
        p = self._params(cfg, in_features, n_classes, seed, dtype, values)
        self.encoder = CloudEncoder(p.scope("enc"), cfg, in_features)
        self.gru = GRUCell(p.scope("gru"), cfg.gru_hidden, input_dim=self.encoder.feat_out)
        self.head = MLP(p.scope("head"), self.encoder.z_dim + cfg.gru_hidden,
                        list(cfg.classifier) + [n_classes])
        self._named = p.done()

    def forward(self, frames, feats_list) -> list:
        """Window -> per-frame score tensors (N_t, V); None for empty frames."""
        h = Tensor(np.zeros(self.cfg.gru_hidden, dtype=self.dtype))
        scores = []
        for frame, feats in zip(frames, feats_list):
            if len(frame) == 0:
                scores.append(None)  # state held across the gap
                continue
            enc = encode(self.encoder, np.asarray(frame.points, dtype=self.dtype), feats)
            k, g = enc.z
            h = self.gru(h, g)
            scores.append(self.head(k, g, h))
        return scores

    def rows(self, clip: TaskClip, feats):
        """One score row per labeled point of the frames that have scores,
        with its segment and validity; None when no frame has both."""
        scored = [(scores, label)
                  for scores, label in zip(self.forward(clip.frames, feats), clip.labels)
                  if scores is not None and label is not None]
        if not scored:
            return None
        return (ad.concat([scores for scores, _ in scored], axis=0),
                np.concatenate([label.segment_label for _, label in scored]),
                np.concatenate([label.valid_mask for _, label in scored]))

    def loss(self, scores: Tensor, labels, valid) -> Tensor:
        return balanced_cross_entropy(scores, labels, valid)

    def report(self, preds, truths) -> dict:
        return {"oa": overall_accuracy(preds, truths),
                "miou": mean_iou(preds, truths, n_classes=self.n_classes),
                "n_points": len(preds)}


# ----------------------------------------------------------------------
# losses


def cross_entropy(scores: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels against unnormalized scores."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    rows = scores if scores.data.ndim == 2 else ad.reshape(scores, (1, -1))
    if rows.shape[0] != len(labels):
        raise LengthMismatch(f"{rows.shape[0]} score rows vs {len(labels)} labels")
    if len(labels) == 0:
        raise EmptyInput("no labels")
    # constant shift keeps exp in range without touching the gradient
    z = ad.add(rows, Tensor(-rows.data.max(axis=-1, keepdims=True)))
    logsum = ad.log(ad.tsum(ad.exp(z), axis=-1, keepdims=True))
    logp = ad.add(z, ad.mul(logsum, -1.0))
    onehot = np.eye(rows.shape[-1], dtype=rows.data.dtype)[labels]
    picked = ad.tsum(ad.mul(logp, Tensor(onehot)), axis=-1)
    return ad.mul(ad.tmean(picked), -1.0)


def balanced_cross_entropy(scores: Tensor, labels, valid) -> Tensor:
    """Cross-entropy averaged per class over the valid points, then over the
    classes present, so small body segments weigh as much as large ones."""
    labels = np.asarray(labels, dtype=np.int64)
    valid = np.asarray(valid, dtype=bool)
    if scores.shape[0] != len(labels) or len(labels) != len(valid):
        raise LengthMismatch("scores, labels and mask must align")
    if not valid.any():
        raise NoValidPoints("every point is masked out")
    terms = []
    for c in np.unique(labels[valid]):
        idx = np.flatnonzero(valid & (labels == c))
        terms.append(cross_entropy(ad.take(scores, idx), np.full(len(idx), c)))
    return ad.mean_of(terms)


def clip_loss(model: _TaskNet, clip: TaskClip, decorated: DecoratedClip,
              flow_model: FlowNet | None = None) -> Tensor | None:
    """The task network's loss over the window's valid rows, or None when it
    has none; s2 adds the mean flow loss of the window's usable pairs (equal
    weighting)."""
    rows = model.rows(clip, decorated.feats)
    if rows is None or not rows[2].any():
        return None
    loss = model.loss(*rows)
    if decorated.pair_flows is None:
        return loss
    pairs = [(flows, label) for flows, label in zip(decorated.pair_flows, clip.labels)
             if flows is not None and label is not None]
    flow_term = mean_flow_loss(pairs, flow_model.cfg)
    return loss if flow_term is None else ad.add(loss, flow_term)


# ----------------------------------------------------------------------
# prediction and evaluation


def _decoration_lookup(decorations, clip, strategy, flow_model, dtype):
    """`decorate_clip` on the clip's frames; `decorations`, when given, is a
    cache keyed by id(clip) that is read and filled."""
    if decorations is None:
        return decorate_clip(clip.frames, strategy, flow_model, dtype=dtype)
    if id(clip) not in decorations:
        decorations[id(clip)] = decorate_clip(clip.frames, strategy, flow_model,
                                              dtype=dtype)
    return decorations[id(clip)]


def predict(model: _TaskNet, clips, strategy: str,
            flow_model: FlowNet | None = None, decorations=None):
    """(predicted class, true class) per valid row: one per scorable window
    (har), one per valid labeled point (hp)."""
    preds, truths = [], []
    with ad.no_grad():
        for clip in clips:
            decorated = _decoration_lookup(decorations, clip, strategy,
                                           flow_model, model.dtype)
            rows = model.rows(clip, decorated.feats)
            if rows is None:
                continue
            scores, labels, valid = rows
            preds.append(np.argmax(scores.data[valid], axis=1))
            truths.append(labels[valid])
    if not preds:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(preds), np.concatenate(truths)


# the name benchmarks/perf/workloads.py calls for HAR prediction
predict_har = predict


def evaluate(model: _TaskNet, clips, strategy: str,
             flow_model: FlowNet | None = None, decorations=None) -> dict:
    """The task network's report on its predictions: oa, confusion and n_clips
    (har); oa, miou and n_points (hp)."""
    preds, truths = predict(model, clips, strategy, flow_model, decorations)
    if len(preds) == 0:
        raise EmptyInput(model.nothing_scored)
    return model.report(preds, truths)


def confusion_matrix_csv(confusion: np.ndarray, class_names) -> str:
    """Rows are the true class, columns the prediction."""
    confusion = np.asarray(confusion)
    if confusion.shape != (len(class_names), len(class_names)):
        raise LengthMismatch("confusion matrix does not match class names")
    lines = ["truth\\prediction," + ",".join(class_names)]
    for name, row in zip(class_names, confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# training


TASK_NETS = {"har": HarNet, "hp": HpNet}


def train_task_model(task: str, train_clips, val_clips, task_cfg: TaskConfig,
                     train_cfg: TrainConfig, strategy: str, checkpoint_path,
                     n_classes: int, flow_model: FlowNet | None = None, *, log_path):
    """`fit` for both classification tasks, keeping the model with the best
    validation accuracy.

    `n_classes` is the number of in-set activities (har) or of body
    segments (hp).  raw/s1 train the task network alone (s1 decorations
    come from the frozen flow model, so each clip's are computed once); s2
    optimizes the task and flow parameters jointly on the summed loss.
    """
    if task not in TASK_NETS:
        raise ConfigError(f"unknown task {task!r}")
    dtype = np.dtype(train_cfg.dtype)
    model = TASK_NETS[task](task_cfg, strategy_feature_dim(strategy, flow_model),
                            n_classes=n_classes, seed=train_cfg.seed, dtype=dtype)
    named = model.named_params()
    config = dict(model.config_dict(), strategy=strategy)
    if strategy != "raw":
        # the frozen (s1) or co-trained (s2) flow model ships in the checkpoint
        named.update({f"flow.{k}": t for k, t in flow_model.named_params().items()})
        config["flow"] = flow_model.config_dict()
    cache = None if strategy == "s2" else {}  # by id(clip), filled as clips come

    def loss(clip):
        decorated = _decoration_lookup(cache, clip, strategy, flow_model, dtype)
        return clip_loss(model, clip, decorated, flow_model)

    def val_accuracy(clips):
        try:
            return evaluate(model, clips, strategy, flow_model, decorations=cache)["oa"]
        except EmptyInput:
            return float("nan")

    history = fit(named, train_clips, val_clips, loss, val_accuracy, train_cfg,
                  checkpoint_path, config, "val_oa", maximize=True, log_path=log_path)
    return model, history


def load_task_model(path, task: str | None = None, strategy: str | None = None):
    """Restore a task checkpoint -> (model, stored strategy, flow model or None).

    s1 and s2 checkpoints store the flow model they were trained with, frozen
    or co-trained, under `flow.` names and a `flow` config entry; a raw
    checkpoint stores none, and a `flow.` entry in it is refused.
    """
    with open_checkpoint(path) as (values, config):
        kind = config.get("kind")
        if kind not in TASK_NETS:
            raise TaskMismatch(f"checkpoint at {path} is not a task model")
        if task is not None and kind != task:
            raise TaskMismatch(f"checkpoint holds a {kind!r} model, not {task!r}")
        with checkpoint_config(path):
            stored = config["strategy"]
            if stored not in STRATEGIES:
                raise ConfigError(f"unknown strategy {stored!r}")
            task_cfg = from_dict(TaskConfig, config["task"])
            dtype = model_dtype(config["dtype"])
            if not fits(config, {"in_features": int, "n_classes": int}):
                raise ConfigError("in_features and n_classes must be integers")
            in_features, n_classes = config["in_features"], config["n_classes"]
            flow_config = config["flow"] if stored != "raw" else None
        if strategy is not None and stored != strategy:
            raise TaskMismatch(
                f"checkpoint was trained with strategy {stored!r}, not {strategy!r}")
        flow_model = None
        if stored != "raw":
            flow_model = flow_model_from_config(flow_config, values.take_scope("flow"), path)
        model = TASK_NETS[kind](task_cfg, in_features, n_classes=n_classes, dtype=dtype,
                                values=values)
        return model, stored, flow_model


# ----------------------------------------------------------------------
# body-part tracking


@dataclass(frozen=True)
class TrackState:
    bone_ids: tuple
    endpoints: np.ndarray  # (B, 2, 3) current estimates
    tracking_length: int = 0
    fallback_bones: tuple = ()  # bones that used translation-only this step

    def __post_init__(self):
        if self.endpoints.shape != (len(self.bone_ids), 2, 3):
            raise LengthMismatch("endpoints must be (bones, 2, 3)")
        if not np.all(np.isfinite(self.endpoints)):
            raise DegenerateInput("tracked endpoints must stay finite")


def bone_endpoints(keypoints: np.ndarray, bone_ids) -> np.ndarray:
    """(B, 2, 3) endpoint positions of the chosen bones in one pose."""
    ids = list(bone_ids)
    return np.stack([keypoints[BONE_PARENT[ids]], keypoints[BONE_CHILD[ids]]], axis=1)


def track_step(points: np.ndarray, flows: np.ndarray,
               state: TrackState) -> TrackState:
    """Advance every tracked bone by one frame.

    Points are reassigned to the current endpoint estimates; bones with at
    least three assigned points get a rigid update from the correspondences
    (p, p + f), the rest fall back to the mean flow as pure translation.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    flows = np.asarray(flows, dtype=np.float64).reshape(-1, 3)
    if len(points) != len(flows):
        raise LengthMismatch(f"{len(points)} points vs {len(flows)} flows")
    assign = nearest_segment(points, state.endpoints[:, 0], state.endpoints[:, 1],
                             ASSIGNMENT_RADIUS)
    new_endpoints = state.endpoints.copy()
    fallback = []
    for slot, bone in enumerate(state.bone_ids):
        idx = np.flatnonzero(assign == slot)
        if len(idx) >= 3:
            try:
                transform = kabsch(points[idx], points[idx] + flows[idx])
                new_endpoints[slot] = transform.apply(state.endpoints[slot])
                continue
            except DegenerateInput:
                pass
        delta = flows[idx].mean(axis=0) if len(idx) else np.zeros(3)
        new_endpoints[slot] = state.endpoints[slot] + delta
        fallback.append(bone)
    return TrackState(state.bone_ids, new_endpoints,
                      state.tracking_length + 1, tuple(fallback))


def track_clip(frames, flow_fields, bone_ids, init_endpoints) -> list[TrackState]:
    """Track bones through one short clip; returns the state trajectory,
    starting with the initial state (tracking length 0)."""
    if len(flow_fields) != len(frames) - 1:
        raise LengthMismatch(
            f"{len(frames)} frames need {len(frames) - 1} flow fields")
    state = TrackState(tuple(bone_ids), np.asarray(init_endpoints, dtype=np.float64))
    trajectory = [state]
    for frame, flows in zip(frames[:-1], flow_fields):
        state = track_step(frame.points, flows, state)
        trajectory.append(state)
    return trajectory


def evaluate_tracking(sequences, flow_model: FlowNet | None = None,
                      activities=None, clip_length: int = TRACK_CLIP_LENGTH) -> dict:
    """Tracking error by activity and tracking length over labeled sequences.

    Bones per activity follow TRACK_TARGETS; endpoints initialize from the
    true pose at each clip start.  flow_model None uses the label flows
    (oracle); otherwise flows come from streaming model inference.
    `activities`, when given, must name activities with tracked bones;
    otherwise sequences of untracked activities are skipped.
    """
    if not 2 <= clip_length <= TRACK_CLIP_LENGTH:
        raise ConfigError(
            f"clip_length must lie in [2, {TRACK_CLIP_LENGTH}], got {clip_length}")
    targets = TRACK_TARGETS
    if activities is not None:
        untracked = [a for a in activities if a not in TRACK_TARGETS]
        if untracked:
            raise ConfigError(f"no tracked bones for {', '.join(untracked)}; "
                              f"trackable: {', '.join(TRACK_TARGETS)}")
        targets = {a: TRACK_TARGETS[a] for a in activities}
    sums: dict = {}
    counts: dict = {}
    n_clips = 0
    latencies = []
    for seq in sequences:
        bone_ids = targets.get(seq.activity_id)
        if bone_ids is None:
            continue
        frames, labels = preprocess_sequence(seq, "test")
        for window in windows(len(frames), clip_length):
            clip, poses = frames[window], seq.poses[window]
            if flow_model is None:
                flow_fields = [np.zeros((len(frame), 3)) if label is None else label.flows
                               for frame, label in zip(clip[:-1], labels[window])]
            else:
                records, _ = infer_sequence(flow_model, clip)
                flow_fields = [r["flows"] for r in records]
                latencies.extend(r["latency"] for r in records)
            init = bone_endpoints(poses[0].keypoints, bone_ids)
            trajectory = track_clip(clip, flow_fields, bone_ids, init)
            for state in trajectory[1:]:
                truth = bone_endpoints(poses[state.tracking_length].keypoints, bone_ids)
                err = mean_joint_error(state.endpoints.reshape(-1, 3),
                                       truth.reshape(-1, 3))
                key = (seq.activity_id, state.tracking_length)
                sums[key] = sums.get(key, 0.0) + err
                counts[key] = counts.get(key, 0) + 1
            n_clips += 1
    if n_clips == 0:
        raise EmptyInput("no trackable clips in the given sequences")
    mje = {}
    for (activity, length), total in sums.items():
        mje.setdefault(activity, {})[length] = total / counts[(activity, length)]
    report = {"mje": mje, "n_clips": n_clips}
    if latencies:
        report["latency_ms"] = float(np.mean(latencies) * 1e3)
    return report


def mje_table_csv(report: dict) -> str:
    """CSV of tracking error rows (activity, tracking_length, mje)."""
    lines = ["activity,tracking_length,mje"]
    for activity in sorted(report["mje"]):
        for length in sorted(report["mje"][activity]):
            lines.append(f"{activity},{length},{report['mje'][activity][length]:.6f}")
    return "\n".join(lines) + "\n"
