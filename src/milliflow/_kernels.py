"""Hot numeric kernels: neighbour search, farthest point sampling,
point-to-segment distances and CA-CFAR, each one vectorised numpy path.

The network's geometry comes from ``NeighbourTable``: one float64 distance
matrix and one stable ``argsort`` per frame, from which every ball query and
every k-nearest lookup of that frame is read.  Inputs are taken in float64,
so results do not depend on the caller's dtype.  The tests compare each
kernel with an explicit-loop reference that works one point or cell at a
time (``tests/kernel_oracles.py``): the integer-valued kernels agree bit for
bit, the segment distances to within last-ulp rounding, and CA-CFAR
wherever its threshold is not within rounding of a cell's value.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadK


# ---------------------------------------------------------------------------
# neighbour search: k nearest and ball queries


def squared_distances(query, ref) -> np.ndarray:
    """(N, M) float64 squared distances from each query point to each ref point."""
    diff = np.asarray(query, np.float64)[:, None, :] - np.asarray(ref, np.float64)[None, :, :]
    return diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2


class NeighbourTable:
    """Every query point's neighbours among the reference points, sorted once.

    Squared distances are taken in float64 and sorted with one stable
    ``argsort`` per row: nearest first, exact ties broken by lower index.
    Ball queries at any radius and k-nearest lookups are then read from the
    sorted table, so one frame's grouping at every radius, and its self-kNN,
    cost one sort.  ``ref`` defaults to ``query``.
    """

    def __init__(self, query: np.ndarray, ref: np.ndarray | None = None):
        d2 = squared_distances(query, query if ref is None else ref)
        self.order = np.argsort(d2, axis=1, kind="stable")
        self.sorted_d2 = np.take_along_axis(d2, self.order, axis=1)

    def ball(self, radius: float, max_samples: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """The reference indices within ``radius`` of each query row (all
        rows, or those ``rows`` selects), nearest first and at most
        ``max_samples``, as ragged lists: ``(neighbours, counts)``, where a
        row's list is the next ``counts[i]`` entries of ``neighbours``.  A
        row with no point inside the radius gets its single nearest point.
        """
        order, sorted_d2 = self.order, self.sorted_d2
        if rows is not None:
            order, sorted_d2 = order[rows], sorted_d2[rows]
        # the rows are sorted, so the hits among the first max_samples
        # columns are min(hits, max_samples)
        order, sorted_d2 = order[:, :max_samples], sorted_d2[:, :max_samples]
        counts = np.maximum(np.count_nonzero(sorted_d2 <= radius * radius, axis=1), 1)
        return order[np.arange(order.shape[1]) < counts[:, None]], counts

    def knn(self, k: int) -> np.ndarray:
        """The ``k`` nearest reference indices per query row, nearest first
        (all of them when there are fewer)."""
        return np.ascontiguousarray(self.order[:, :k])


def knn_indices(query, ref, k: int) -> np.ndarray:
    """Indices of the k nearest ``ref`` points per ``query`` point.

    Nearest first; exact distance ties broken by lower index. ``k`` may not
    exceed ``len(ref)``.
    """
    return NeighbourTable(query, ref).knn(k)


# ---------------------------------------------------------------------------
# farthest point sampling


def farthest_point_sample(points, k: int, start: int = 0) -> np.ndarray:
    """Greedy max-min selection of ``k`` indices starting at ``start``."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= k <= n:
        raise BadK(f"k must be in [1, {n}], got {k}")
    if not 0 <= start < n:
        raise BadK(f"start must index a point, got {start}")
    sel = np.empty(k, dtype=np.int64)
    sel[0] = start
    d2 = np.sum((points - points[start]) ** 2, axis=1)
    for s in range(1, k):
        nxt = int(np.argmax(d2))
        sel[s] = nxt
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return sel


# ---------------------------------------------------------------------------
# point-to-segment distances


def point_segment_distances(points, seg_a, seg_b) -> np.ndarray:
    """Distance from each point (N,3) to each segment (B,3)//(B,3) -> (N,B).

    Zero-length segments degrade to point distance.
    """
    points, seg_a, seg_b = (np.asarray(a, dtype=np.float64) for a in (points, seg_a, seg_b))
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


# ---------------------------------------------------------------------------
# cell-averaging CFAR along the leading (range) axis


# range columns per block of `cfar_mask`: each block's temporaries are then
# a few hundred kB, where a pipeline frame's whole heatmap's are 1.5 MB each
# (3 MB over all 302 range bins)
CFAR_BLOCK_COLUMNS = 128


def cfar_mask(heatmap, train_cells: int, guard_cells: int, scale_factor: float) -> np.ndarray:
    """CA-CFAR detection mask along axis 0 of a (range, ...) heatmap.

    Training cells on both sides of the cell under test, excluding the guard
    band; edge cells use whatever training cells exist in bounds.  A cell is
    detected when ``value > ((left sum) + (right sum)) / count * scale_factor``,
    in that order of operations.  Expects ``train_cells >= 1`` and
    ``guard_cells >= 0``.  Each range column is tested on its own, so the
    prefix sums and thresholds are built for about ``CFAR_BLOCK_COLUMNS``
    columns at a time (whole slices along axis 1), with the bytes of one
    pass over the whole heatmap.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    scale_factor = float(scale_factor)
    r = heatmap.shape[0]
    reach = guard_cells + train_cells
    # csum[lead + k] is the sum of range cells [0, k) with k clipped to
    # [0, r], so every window sum is a difference of two row slices of csum
    lead = reach + 1
    idx = np.arange(r)
    count = (
        np.clip(idx - guard_cells, 0, r) - np.clip(idx - reach, 0, r)
        + np.clip(idx + reach + 1, 0, r) - np.clip(idx + guard_cells + 1, 0, r)
    )
    divisor = count.astype(np.float64).reshape((r,) + (1,) * (heatmap.ndim - 1))
    # laid out in memory as the heatmap is, as is every temporary below, so
    # every step runs over memory in order
    detect = np.empty_like(heatmap, dtype=np.bool_)
    width = heatmap.shape[1] if heatmap.ndim > 1 else 1
    step = max(1, CFAR_BLOCK_COLUMNS // math.prod(heatmap.shape[2:]))
    for start in range(0, width, step):
        block = (slice(None), slice(start, start + step))[: heatmap.ndim]
        hm = heatmap[block]
        csum = np.empty_like(hm, shape=(r + 2 * lead,) + hm.shape[1:])
        csum[: lead + 1] = 0.0
        np.cumsum(hm, axis=0, out=csum[lead + 1 : lead + 1 + r])
        csum[lead + 1 + r :] = csum[lead + r]

        def rows(k):  # csum at clipped position k + i for every range cell i
            return csum[lead + k : lead + k + r]

        # the threshold is built in place, in the order the docstring states
        total = np.subtract(rows(-guard_cells), rows(-reach))
        total += np.subtract(rows(reach + 1), rows(guard_cells + 1))
        with np.errstate(invalid="ignore", divide="ignore"):
            total /= divisor
        total *= scale_factor
        np.greater(hm, total, out=detect[block])
    detect[count == 0] = False
    return detect
