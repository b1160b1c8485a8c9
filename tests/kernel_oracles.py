"""Explicit-loop reference versions of the numeric kernels in
``milliflow._kernels``, one point or cell at a time, and the scalar
point-to-segment distance.  ``test_kernels.py`` compares the vectorised
kernels against them.
"""

import numpy as np


def knn_indices_loop(query, ref, k):
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


def ball_query_loop(centroids, points, radius, max_samples):
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


def fps_loop(points, k, start):
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


def point_segment_distances_loop(points, seg_a, seg_b):
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


def point_segment_distance(p, a, b) -> float:
    """Euclidean distance from ``p`` to the segment [a, b], as vector
    arithmetic on one point and one segment.

    A zero-length segment degrades to the distance to ``a``.
    """
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    ab2 = float(np.dot(ab, ab))
    if ab2 == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.dot(p - a, ab)) / ab2
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def cfar_mask_loop(flat, train_cells, guard_cells, scale_factor):
    """CA-CFAR on a (range, cells) array, each training window summed cell by
    cell (which rounds differently from ``cfar_mask``'s cumulative sums)."""
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
