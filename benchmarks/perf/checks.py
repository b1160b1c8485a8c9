"""Output checks of the three workloads, computed with numpy apart from the
program.  Each check raises `CheckFailed` and otherwise returns the figure it
measured (a worst-case error, an EPE, a count).

Every check takes plain arrays or the program's record types, so the tests in
`benchmarks/perf/tests` can hand it a corrupted output and see it refused.
"""

from __future__ import annotations

import numpy as np

from milliflow.dataio import INTENSITY_FLOOR, PREPROCESS_BOX
from milliflow.skeleton import BONES

_PARENT = np.array([p for p, _ in BONES])
_CHILD = np.array([c for _, c in BONES])

# worst exact-label drift of a point's bone-local coordinates; rigid bone
# motion keeps them to rounding error (about 2e-15 measured)
BONE_COORD_TOL = 1e-9
# largest |flow(permuted frame) - permuted flow(frame)| accepted from float32
# inference on a frame without selection ties (see `selection_ties`); at most
# 9e-8 measured against flows of up to 0.075
PERMUTATION_TOL = 1e-6


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _fail(msg: str):
    raise CheckFailed(msg)


# ----------------------------------------------------------------------
# labels (gen)


def check_label_rows(frames, labels) -> int:
    """One label per frame pair, and one label row per point of its source
    frame in every field.  Returns the number of rows checked."""
    if len(labels) != len(frames) - 1:
        _fail(f"{len(frames)} frames carry {len(labels)} labels, want {len(frames) - 1}")
    rows = 0
    for i, (frame, label) in enumerate(zip(frames, labels)):
        n = len(frame.points)
        for field in ("flows", "valid_mask", "bone_assignment", "segment_label"):
            if len(getattr(label, field)) != n:
                _fail(f"pair {i}: {field} has {len(getattr(label, field))} rows "
                      f"for {n} points")
        rows += n
    return rows


def bone_coordinates(points, keypoints, bones):
    """(axial, radial) coordinates of each point relative to its bone: the
    distance along the parent-to-child axis from the parent joint, and the
    distance from that axis."""
    a = keypoints[_PARENT[bones]]
    axis = keypoints[_CHILD[bones]] - a
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    rel = points - a
    axial = np.einsum("ij,ij->i", rel, axis)
    radial = np.linalg.norm(rel - axial[:, None] * axis, axis=1)
    return axial, radial


def bone_distances(points, keypoints) -> np.ndarray:
    """Distance from each point to the nearest bone segment of a pose."""
    a = keypoints[_PARENT][None]  # (1, B, 3)
    ab = keypoints[_CHILD][None] - a
    rel = points[:, None, :] - a  # (N, B, 3)
    t = np.clip(np.sum(rel * ab, axis=2) / np.sum(ab * ab, axis=2), 0.0, 1.0)
    return np.linalg.norm(rel - t[..., None] * ab, axis=2).min(axis=1, initial=np.inf)


def check_exact_labels(frames, poses, labels) -> float:
    """Ghost points (provenance -1) are masked invalid, and every valid point
    moved by its label keeps its axial and radial coordinates on its
    provenance bone between the true poses at t and t+1.  Returns the worst
    coordinate drift in metres."""
    check_label_rows(frames, labels)
    worst = 0.0
    for i, label in enumerate(labels):
        prov = np.asarray(frames[i].prov_bone)
        valid = np.asarray(label.valid_mask, dtype=bool)
        if np.any(valid & (prov < 0)):
            _fail(f"pair {i}: {int(np.sum(valid & (prov < 0)))} ghost points marked valid")
        if not valid.any():
            continue
        p0 = frames[i].points[valid]
        p1 = p0 + label.flows[valid]
        bones = prov[valid]
        ax0, rad0 = bone_coordinates(p0, poses[i], bones)
        ax1, rad1 = bone_coordinates(p1, poses[i + 1], bones)
        drift = max(np.max(np.abs(ax1 - ax0)), np.max(np.abs(rad1 - rad0)))
        if not drift <= BONE_COORD_TOL:
            _fail(f"pair {i}: valid exact label moves a point off its bone by {drift:.3g} m")
        worst = max(worst, float(drift))
    return worst


def label_epe(pred_labels, ref_labels) -> tuple[float, int]:
    """Mean endpoint error of one label set against another over the points
    valid in both, pooled over every pair; returns (EPE, points)."""
    total, count = 0.0, 0
    for pred, ref in zip(pred_labels, ref_labels, strict=True):
        both = np.asarray(pred.valid_mask, bool) & np.asarray(ref.valid_mask, bool)
        err = np.linalg.norm(pred.flows[both] - ref.flows[both], axis=1)
        total += float(err.sum())
        count += int(both.sum())
    if count == 0:
        _fail("no point is valid under both label sets")
    return total / count, count


# ----------------------------------------------------------------------
# training (train)


def check_finite_losses(history, log_rows) -> int:
    """Every epoch's logged training loss is finite, and the log file holds
    the returned history row for row."""
    if len(history) == 0:
        _fail("training returned no history")
    if len(log_rows) != len(history):
        _fail(f"log holds {len(log_rows)} rows, history {len(history)}")
    for row, logged in zip(history, log_rows):
        for key in ("train_loss", "val_epe3d"):
            if not np.isfinite(row[key]) or not np.isfinite(logged[key]):
                _fail(f"epoch {row['epoch']}: {key} is not finite")
            if row[key] != logged[key]:
                _fail(f"epoch {row['epoch']}: logged {key} {logged[key]} != {row[key]}")
    return len(history)


def central_differences(loss_at, params, picks, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of `loss_at()` with respect to the picked
    entries (name, flat index) of the parameter tensors in `params`."""
    out = np.empty(len(picks))
    for j, (name, flat) in enumerate(picks):
        data = params[name].data.reshape(-1)
        keep = data[flat]
        data[flat] = keep + eps
        up = loss_at()
        data[flat] = keep - eps
        down = loss_at()
        data[flat] = keep
        out[j] = (up - down) / (2.0 * eps)
    return out


def check_gradients(numeric, analytic, rtol: float = 1e-4, atol: float = 1e-9) -> float:
    """Autodiff gradients agree with finite differences; returns the worst
    relative error."""
    numeric = np.asarray(numeric, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if not np.any(np.abs(numeric) > atol):
        _fail("every finite-difference gradient is zero; the check sees nothing")
    err = np.abs(numeric - analytic)
    bound = atol + rtol * np.abs(numeric)
    if np.any(~(err <= bound)):
        j = int(np.argmax(err - bound))
        _fail(f"gradient {j}: autodiff {analytic[j]:.9g} vs finite difference {numeric[j]:.9g}")
    return float(np.max(err / np.maximum(np.abs(numeric), atol)))


def check_bitwise(preds_a, preds_b) -> int:
    """Two prediction lists are the same bit for bit; returns pairs compared."""
    if len(preds_a) != len(preds_b):
        _fail(f"{len(preds_a)} predictions vs {len(preds_b)}")
    for i, (a, b) in enumerate(zip(preds_a, preds_b)):
        if (a is None) != (b is None):
            _fail(f"pair {i}: one prediction is missing")
        if a is not None and (a.shape != b.shape or a.tobytes() != b.tobytes()):
            _fail(f"pair {i}: predictions differ")
    return len(preds_a)


def frame_mean_epe(flows_list, labels) -> float:
    """Mean over pairs of the per-pair EPE on valid points; pairs without a
    prediction or without a valid point are left out, as evaluation does."""
    per_pair = []
    for flows, label in zip(flows_list, labels, strict=True):
        if flows is None:
            continue
        valid = np.asarray(label.valid_mask, dtype=bool)
        if len(flows) != len(valid):
            _fail(f"{len(flows)} flows for {len(valid)} labelled points")
        if valid.any():
            per_pair.append(np.linalg.norm(flows[valid] - label.flows[valid], axis=1).mean())
    if not per_pair:
        _fail("no pair could be scored")
    return float(np.mean(per_pair))


def check_close(measured: float, reported: float, what: str, rtol: float = 1e-6) -> float:
    if not abs(measured - reported) <= rtol * abs(measured) + 1e-12:
        _fail(f"{what}: program reports {reported!r}, benchmark measures {measured!r}")
    return measured


# ----------------------------------------------------------------------
# evaluation, streaming inference and downstream tasks (sense)


def survivor_indices(frame) -> np.ndarray:
    """Points the test-mode preprocessing keeps: intensity above the floor and
    inside the box, in input order."""
    keep = np.asarray(frame.intensities) > INTENSITY_FLOOR
    for axis, (lo, hi) in enumerate(PREPROCESS_BOX):
        keep &= (frame.points[:, axis] >= lo) & (frame.points[:, axis] <= hi)
    return np.flatnonzero(keep)


def check_flows(flows, n_points: int, clamp: float) -> np.ndarray:
    """One finite flow per source point, within the network's clamp."""
    if flows is None:
        _fail(f"no prediction for a pair of non-empty frames ({n_points} points)")
    flows = np.asarray(flows)
    if flows.shape != (n_points, 3):
        _fail(f"flows of shape {flows.shape} for {n_points} points")
    if not np.all(np.isfinite(flows)):
        _fail("non-finite flow")
    if np.any(np.abs(flows) > float(np.float32(clamp))):
        _fail(f"flow {np.max(np.abs(flows)):.4g} outside the clamp {clamp}")
    return flows


def clip_count(sizes, clip_length: int) -> int:
    """Evaluation clips a sequence of preprocessed frame sizes gives: pairs
    with an empty frame are dropped, and each unbroken run of pairs is cut
    into whole clips of `clip_length` pairs."""
    clips = run = 0
    for a, b in zip(sizes, sizes[1:]):
        if a and b:
            run += 1
        else:
            clips, run = clips + run // clip_length, 0
    return clips + run // clip_length


def check_stream_records(records, sizes, clamp: float) -> int:
    """One record per pair; a zero-flow placeholder exactly where the source
    or the target frame is empty; otherwise one finite flow per source point
    within the clamp.  `sizes` are the preprocessed frame sizes.  Returns the
    number of placeholders."""
    if len(records) != len(sizes) - 1:
        _fail(f"{len(sizes)} frames gave {len(records)} records, want {len(sizes) - 1}")
    placeholders = 0
    for i, rec in enumerate(records):
        empty = sizes[i] == 0 or sizes[i + 1] == 0
        if bool(rec["placeholder"]) != empty:
            _fail(f"pair {i}: placeholder={rec['placeholder']} but frame sizes "
                  f"are {sizes[i]} and {sizes[i + 1]}")
        try:
            flows = check_flows(rec["flows"], sizes[i], clamp)
        except CheckFailed as e:
            _fail(f"pair {i}: {e}")
        if empty and np.any(flows != 0):
            _fail(f"pair {i}: placeholder flows are not zero")
        if not rec["latency"] > 0:
            _fail(f"pair {i}: latency {rec['latency']} is not positive")
        placeholders += empty
    return placeholders


def selection_ties(points, radii, samples, k) -> bool:
    """Whether a neighbour selection of the flow network's source encoder
    depends on point order: two float32 squared distances from one centroid
    tie where ball query (nearest first, up to `samples` within `radius`) or
    the k-nearest search cuts the sorted list, or a point is duplicated.  The
    kernels break such ties by index, so permuting the frame changes the
    selected neighbours."""
    p = np.asarray(points, dtype=np.float32)
    n = len(p)
    diff = p[:, None, :] - p[None, :, :]
    d2 = np.sort(diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2, axis=1)
    tie = n > 1 and bool(np.any(d2[:, 0] == d2[:, 1]))
    for radius, m in zip(radii, samples):
        if n > m:
            inside = np.sum(d2 <= radius * radius, axis=1)
            tie |= bool(np.any((inside > m) & (d2[:, m - 1] == d2[:, m])))
    if n > k:
        tie |= bool(np.any(d2[:, k - 1] == d2[:, k]))
    return tie


def check_permutation(flows, flows_of_permuted, perm, tol: float = PERMUTATION_TOL) -> float:
    """Permuting a frame's points permutes its flows; returns the worst
    difference."""
    diff = float(np.max(np.abs(np.asarray(flows)[perm] - np.asarray(flows_of_permuted))))
    if not diff <= tol:
        _fail(f"permuted frame changes its flows by {diff:.3g} (tolerance {tol})")
    return diff


def check_count(got: int, want: int, what: str) -> int:
    if got != want:
        _fail(f"{what}: program gives {got}, inputs give {want}")
    return got
