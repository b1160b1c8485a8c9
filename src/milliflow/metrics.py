"""Evaluation metrics: end-point error, accuracy fractions, overall accuracy,
confusion matrix, mean IoU, and mean joint error.

Flow metrics are computed per frame and averaged over frames for dataset-level
reporting.  A point is moving when its reference flow exceeds 0.01 m;
accuracy thresholds are 0.025 m / 5% (strict) and 0.05 m / 10% (relax), with
the relative term guarded for near-zero reference flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, EmptyMask, LengthMismatch, ConfigError

MOVING_THRESHOLD = 0.01
STRICT_ABS, STRICT_REL = 0.025, 0.05
RELAX_ABS, RELAX_REL = 0.05, 0.10
REL_GUARD = 1e-6


@dataclass(frozen=True)
class FlowMetrics:
    epe_all: float
    epe_moving: float
    epe_static: float
    acc_strict: float
    acc_relax: float
    n_points: int
    n_moving: int
    n_static: int


def flow_metrics(pred: np.ndarray, gt: np.ndarray,
                 eval_mask: np.ndarray | None = None) -> FlowMetrics:
    """Frame-level flow metrics over the points selected by `eval_mask`.

    Sub-population means (moving/static) are NaN when the population is empty;
    aggregation skips NaNs.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise LengthMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    if eval_mask is None:
        eval_mask = np.ones(len(pred), dtype=bool)
    eval_mask = np.asarray(eval_mask, dtype=bool)
    if len(eval_mask) != len(pred):
        raise LengthMismatch(f"mask {len(eval_mask)} vs points {len(pred)}")
    if not eval_mask.any():
        raise EmptyMask("no points selected for evaluation")

    p = pred[eval_mask]
    g = gt[eval_mask]
    err = np.linalg.norm(p - g, axis=1)
    mag = np.linalg.norm(g, axis=1)
    moving = mag > MOVING_THRESHOLD

    def hit(abs_thr, rel_thr):
        rel_ok = (mag > REL_GUARD) & (err / np.maximum(mag, REL_GUARD) < rel_thr)
        return (err < abs_thr) | rel_ok

    strict = hit(STRICT_ABS, STRICT_REL)
    relax = hit(RELAX_ABS, RELAX_REL)

    def mean_or_nan(values):
        return float(values.mean()) if len(values) else float("nan")

    return FlowMetrics(
        epe_all=float(err.mean()),
        epe_moving=mean_or_nan(err[moving]),
        epe_static=mean_or_nan(err[~moving]),
        acc_strict=float(strict.mean()),
        acc_relax=float(relax.mean()),
        n_points=int(moving.size),
        n_moving=int(moving.sum()),
        n_static=int((~moving).sum()),
    )


def aggregate_flow_metrics(per_frame: list[FlowMetrics],
                           n_excluded: int = 0) -> dict:
    """Dataset-level report: mean of frame-level metrics, NaN-skipping for the
    moving/static sub-means.  `n_excluded` counts frames dropped upstream for
    having no evaluable points."""
    if not per_frame:
        raise EmptyInput("no frames to aggregate")

    def field(name):
        return np.array([getattr(m, name) for m in per_frame], dtype=np.float64)

    def nanmean(values):
        return float(np.nanmean(values)) if not np.all(np.isnan(values)) else float("nan")

    return {
        "epe3d": {
            "all": float(field("epe_all").mean()),
            "moving": nanmean(field("epe_moving")),
            "static": nanmean(field("epe_static")),
        },
        "acc3d": {
            "strict": float(field("acc_strict").mean()),
            "relax": float(field("acc_relax").mean()),
        },
        "n_frames": len(per_frame),
        "n_frames_excluded": int(n_excluded),
        "n_points": int(sum(m.n_points for m in per_frame)),
    }


def overall_accuracy(pred_labels, gt_labels) -> float:
    pred = np.asarray(pred_labels)
    gt = np.asarray(gt_labels)
    if pred.shape != gt.shape:
        raise LengthMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    if pred.size == 0:
        raise EmptyInput("no labels")
    return float(np.mean(pred == gt))


def confusion_matrix(pred, gt, n_classes: int) -> np.ndarray:
    """(n_classes, n_classes) counts, rows true class and columns predicted;
    the labels must match in length, be non-empty and lie in [0, n_classes)."""
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    if pred.shape != gt.shape:
        raise LengthMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    if pred.size == 0:
        raise EmptyInput("no labels")
    for arr, name in ((pred, "pred"), (gt, "gt")):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ConfigError(f"{name} labels outside [0, {n_classes})")
    cells = np.bincount(gt * n_classes + pred, minlength=n_classes * n_classes)
    return cells.reshape(n_classes, n_classes)


def mean_iou(pred, gt, n_classes: int) -> float:
    """Mean per-class IoU; classes absent from both pred and gt are excluded."""
    confusion = confusion_matrix(pred, gt, n_classes)
    hits = np.diag(confusion)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - hits
    present = union > 0
    return float(np.mean(hits[present] / union[present]))


def mean_joint_error(pred_endpoints, gt_endpoints) -> float:
    pred = np.asarray(pred_endpoints, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_endpoints, dtype=np.float64).reshape(-1, 3)
    if pred.shape != gt.shape:
        raise LengthMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    if len(pred) == 0:
        raise EmptyInput("no endpoints")
    return float(np.linalg.norm(pred - gt, axis=1).mean())
