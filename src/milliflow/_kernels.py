"""Hot numeric kernels: neighbour search, farthest point sampling,
point-to-segment distances and CA-CFAR.

The network's geometry comes from ``NeighbourTable``: one float64 distance
matrix and one stable ``argsort`` per frame, from which every ball query and
every k-nearest lookup of that frame is read.  It is plain numpy whether or
not numba is installed, so network outputs do not depend on the install.
``cfar_mask`` likewise always runs its numpy path: the loop version sums each
training window cell by cell, which rounds differently from a cumulative-sum
difference, so it is kept only as a test reference.

The standalone kernels (``knn_indices``, ``farthest_point_sample``,
``point_segment_distances``) dispatch to an
explicit-loop version compiled with ``numba.njit`` when numba is importable
and ``MFL_NO_NUMBA`` is not ``1``, and to a vectorised numpy version
otherwise.  The integer-valued kernels agree bit for bit on both paths; the
float-valued segment distances agree to within last-ulp rounding (the paths
associate the arithmetic differently).
"""

from __future__ import annotations

import functools
import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and os.environ.get("MFL_NO_NUMBA", "0") != "1"


# ---------------------------------------------------------------------------
# neighbour search: k nearest and ball queries


class NeighbourTable:
    """Every query point's neighbours among the reference points, sorted once.

    Squared distances are taken in float64 and sorted with one stable
    ``argsort`` per row: nearest first, exact ties broken by lower index.
    Ball queries at any radius and k-nearest lookups are then read from the
    sorted table, so one frame's grouping at every radius, and its self-kNN,
    cost one sort.  ``ref`` defaults to ``query``.
    """

    def __init__(self, query: np.ndarray, ref: np.ndarray | None = None):
        query = np.asarray(query, dtype=np.float64)
        ref = query if ref is None else np.asarray(ref, dtype=np.float64)
        diff = query[:, None, :] - ref[None, :, :]
        self._d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
        self.order = np.argsort(self._d2, axis=1, kind="stable")

    @functools.cached_property
    def sorted_d2(self) -> np.ndarray:
        """Squared distances in the order of ``self.order``; built on the
        first ball query, as a k-nearest lookup does not need them."""
        return np.take_along_axis(self._d2, self.order, axis=1)

    def ball(self, radius: float, max_samples: int, rows=None) -> np.ndarray:
        """Up to ``max_samples`` reference indices within ``radius`` of each
        query row (all rows, or those ``rows`` selects).

        Nearest first, padded by repeating the nearest hit.  A row with no
        point inside the radius falls back to its single nearest point.
        """
        order, sorted_d2 = self.order, self.sorted_d2
        if rows is not None:
            order, sorted_d2 = order[rows], sorted_d2[rows]
        # the rows are sorted, so the hits among the first max_samples
        # columns are min(hits, max_samples)
        hits = np.count_nonzero(sorted_d2[:, :max_samples] <= radius * radius, axis=1)
        col = np.arange(max_samples)
        return np.take_along_axis(order, np.where(col < hits[:, None], col, 0), axis=1)

    def knn(self, k: int) -> np.ndarray:
        """The ``k`` nearest reference indices per query row, nearest first."""
        return np.ascontiguousarray(self.order[:, :k])


def knn_indices_np(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest ``ref`` points per ``query`` point.

    Nearest first; exact distance ties broken by lower index. ``k`` may not
    exceed ``len(ref)``.
    """
    return NeighbourTable(query, ref).knn(k)


def _knn_indices_loop(query, ref, k):
    n = query.shape[0]
    m = ref.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    best_d = np.empty(k, dtype=np.float64)
    for i in range(n):
        count = 0
        for j in range(m):
            dx = query[i, 0] - ref[j, 0]
            dy = query[i, 1] - ref[j, 1]
            dz = query[i, 2] - ref[j, 2]
            d2 = dx * dx + dy * dy + dz * dz
            if count < k:
                pos = count
                while pos > 0 and best_d[pos - 1] > d2:
                    best_d[pos] = best_d[pos - 1]
                    out[i, pos] = out[i, pos - 1]
                    pos -= 1
                best_d[pos] = d2
                out[i, pos] = j
                count += 1
            elif d2 < best_d[k - 1]:
                pos = k - 1
                while pos > 0 and best_d[pos - 1] > d2:
                    best_d[pos] = best_d[pos - 1]
                    out[i, pos] = out[i, pos - 1]
                    pos -= 1
                best_d[pos] = d2
                out[i, pos] = j
    return out


def ball_query_np(
    centroids: np.ndarray, points: np.ndarray, radius: float, max_samples: int
) -> np.ndarray:
    """``NeighbourTable(centroids, points).ball(radius, max_samples)``."""
    return NeighbourTable(centroids, points).ball(radius, max_samples)


def _ball_query_loop(centroids, points, radius, max_samples):
    n = centroids.shape[0]
    m = points.shape[0]
    r2 = radius * radius
    out = np.empty((n, max_samples), dtype=np.int64)
    cand_d = np.empty(max_samples, dtype=np.float64)
    for i in range(n):
        count = 0
        nearest_j = 0
        nearest_d = np.inf
        for j in range(m):
            dx = centroids[i, 0] - points[j, 0]
            dy = centroids[i, 1] - points[j, 1]
            dz = centroids[i, 2] - points[j, 2]
            d2 = dx * dx + dy * dy + dz * dz
            if d2 < nearest_d:
                nearest_d = d2
                nearest_j = j
            if d2 <= r2:
                if count < max_samples:
                    pos = count
                    while pos > 0 and cand_d[pos - 1] > d2:
                        cand_d[pos] = cand_d[pos - 1]
                        out[i, pos] = out[i, pos - 1]
                        pos -= 1
                    cand_d[pos] = d2
                    out[i, pos] = j
                    count += 1
                elif d2 < cand_d[max_samples - 1]:
                    pos = max_samples - 1
                    while pos > 0 and cand_d[pos - 1] > d2:
                        cand_d[pos] = cand_d[pos - 1]
                        out[i, pos] = out[i, pos - 1]
                        pos -= 1
                    cand_d[pos] = d2
                    out[i, pos] = j
        if count == 0:
            for s in range(max_samples):
                out[i, s] = nearest_j
        else:
            for s in range(count, max_samples):
                out[i, s] = out[i, 0]
    return out


# ---------------------------------------------------------------------------
# farthest point sampling


def farthest_point_sample_np(points: np.ndarray, k: int, start: int = 0) -> np.ndarray:
    """Greedy max-min selection of ``k`` indices starting at ``start``."""
    n = points.shape[0]
    sel = np.empty(k, dtype=np.int64)
    sel[0] = start
    d2 = np.sum((points - points[start]) ** 2, axis=1)
    for s in range(1, k):
        nxt = int(np.argmax(d2))
        sel[s] = nxt
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return sel


def _fps_loop(points, k, start):
    n = points.shape[0]
    sel = np.empty(k, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    sel[0] = start
    for j in range(n):
        dx = points[j, 0] - points[start, 0]
        dy = points[j, 1] - points[start, 1]
        dz = points[j, 2] - points[start, 2]
        d2[j] = dx * dx + dy * dy + dz * dz
    for s in range(1, k):
        best = 0
        best_d = d2[0]
        for j in range(1, n):
            if d2[j] > best_d:
                best_d = d2[j]
                best = j
        sel[s] = best
        for j in range(n):
            dx = points[j, 0] - points[best, 0]
            dy = points[j, 1] - points[best, 1]
            dz = points[j, 2] - points[best, 2]
            nd = dx * dx + dy * dy + dz * dz
            if nd < d2[j]:
                d2[j] = nd
    return sel


# ---------------------------------------------------------------------------
# point-to-segment distances


def point_segment_distances_np(
    points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray
) -> np.ndarray:
    """Distance from each point (N,3) to each segment (B,3)//(B,3) -> (N,B).

    Zero-length segments degrade to point distance.
    """
    ab = seg_b - seg_a  # (B,3)
    ab2 = np.sum(ab**2, axis=1)  # (B,)
    ap = points[:, None, :] - seg_a[None, :, :]  # (N,B,3)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.einsum("nbk,bk->nb", ap, ab) / ab2[None, :]
    t = np.where(ab2[None, :] > 0.0, t, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = seg_a[None, :, :] + t[..., None] * ab[None, :, :]
    d = points[:, None, :] - closest
    return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)


def _point_segment_distances_loop(points, seg_a, seg_b):
    n = points.shape[0]
    b = seg_a.shape[0]
    out = np.empty((n, b), dtype=np.float64)
    for j in range(b):
        abx = seg_b[j, 0] - seg_a[j, 0]
        aby = seg_b[j, 1] - seg_a[j, 1]
        abz = seg_b[j, 2] - seg_a[j, 2]
        ab2 = abx * abx + aby * aby + abz * abz
        for i in range(n):
            apx = points[i, 0] - seg_a[j, 0]
            apy = points[i, 1] - seg_a[j, 1]
            apz = points[i, 2] - seg_a[j, 2]
            if ab2 > 0.0:
                t = (apx * abx + apy * aby + apz * abz) / ab2
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
            else:
                t = 0.0
            dx = apx - t * abx
            dy = apy - t * aby
            dz = apz - t * abz
            out[i, j] = np.sqrt(dx * dx + dy * dy + dz * dz)
    return out


# ---------------------------------------------------------------------------
# cell-averaging CFAR along the leading (range) axis


def cfar_mask_np(
    heatmap: np.ndarray, train_cells: int, guard_cells: int, scale_factor: float
) -> np.ndarray:
    """CA-CFAR detection mask along axis 0 of a (range, ...) heatmap.

    Training cells on both sides of the cell under test, excluding the guard
    band; edge cells use whatever training cells exist in bounds.  A cell is
    detected when ``value > ((left sum) + (right sum)) / count * scale_factor``,
    in that order of operations.  Expects ``train_cells >= 1`` and
    ``guard_cells >= 0``.
    """
    r = heatmap.shape[0]
    reach = guard_cells + train_cells
    # csum[lead + k] is the sum of range cells [0, k) with k clipped to
    # [0, r], so every window sum is a difference of two row slices of csum
    lead = reach + 1
    csum = np.empty((r + 2 * lead,) + heatmap.shape[1:], dtype=np.float64)
    csum[: lead + 1] = 0.0
    np.cumsum(heatmap, axis=0, out=csum[lead + 1 : lead + 1 + r])
    csum[lead + 1 + r :] = csum[lead + r]
    idx = np.arange(r)
    count = (
        np.clip(idx - guard_cells, 0, r) - np.clip(idx - reach, 0, r)
        + np.clip(idx + reach + 1, 0, r) - np.clip(idx + guard_cells + 1, 0, r)
    )

    def rows(k):  # csum at clipped position k + i for every range cell i
        return csum[lead + k : lead + k + r]

    # the threshold is built in place, in the order the docstring states
    total = np.subtract(rows(-guard_cells), rows(-reach))
    total += np.subtract(rows(reach + 1), rows(guard_cells + 1))
    with np.errstate(invalid="ignore", divide="ignore"):
        total /= count.astype(np.float64).reshape((r,) + (1,) * (heatmap.ndim - 1))
    total *= scale_factor
    detect = np.greater(heatmap, total)
    detect[count == 0] = False
    return detect


def _cfar_mask_loop(flat, train_cells, guard_cells, scale_factor):
    """Explicit-loop CA-CFAR on a (range, cells) array; a reference for tests,
    never dispatched (see the module docstring)."""
    r, c = flat.shape
    out = np.zeros((r, c), dtype=np.bool_)
    for j in range(c):
        for i in range(r):
            acc = 0.0
            n = 0
            lo = i - guard_cells - train_cells
            hi = i - guard_cells
            for t in range(max(lo, 0), max(hi, 0)):
                acc += flat[t, j]
                n += 1
            lo = i + guard_cells + 1
            hi = i + guard_cells + train_cells + 1
            for t in range(min(lo, r), min(hi, r)):
                acc += flat[t, j]
                n += 1
            if n > 0 and flat[i, j] > scale_factor * (acc / n):
                out[i, j] = True
    return out


# ---------------------------------------------------------------------------
# dispatch

if USE_NUMBA:
    _knn_indices_jit = njit(cache=True)(_knn_indices_loop)
    _fps_jit = njit(cache=True)(_fps_loop)
    _psd_jit = njit(cache=True)(_point_segment_distances_loop)

    def knn_indices(query, ref, k):
        return _knn_indices_jit(
            np.ascontiguousarray(query, dtype=np.float64),
            np.ascontiguousarray(ref, dtype=np.float64),
            k,
        )

    def farthest_point_sample(points, k, start=0):
        return _fps_jit(np.ascontiguousarray(points, dtype=np.float64), k, start)

    def point_segment_distances(points, seg_a, seg_b):
        return _psd_jit(
            np.ascontiguousarray(points, dtype=np.float64),
            np.ascontiguousarray(seg_a, dtype=np.float64),
            np.ascontiguousarray(seg_b, dtype=np.float64),
        )

else:
    def knn_indices(query, ref, k):
        return knn_indices_np(
            np.asarray(query, dtype=np.float64), np.asarray(ref, dtype=np.float64), k
        )

    def farthest_point_sample(points, k, start=0):
        return farthest_point_sample_np(np.asarray(points, dtype=np.float64), k, start)

    def point_segment_distances(points, seg_a, seg_b):
        return point_segment_distances_np(
            np.asarray(points, dtype=np.float64),
            np.asarray(seg_a, dtype=np.float64),
            np.asarray(seg_b, dtype=np.float64),
        )


def cfar_mask(heatmap, train_cells, guard_cells, scale_factor):
    return cfar_mask_np(
        np.asarray(heatmap, dtype=np.float64), train_cells, guard_cells, float(scale_factor)
    )
