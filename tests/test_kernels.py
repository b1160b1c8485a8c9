import numpy as np
import pytest

import kernel_oracles as oracle

from milliflow import _kernels as k


def brute_knn(query, ref, kk):
    # Oracle: per-query exhaustive scan with (distance, index) ordering.
    out = np.empty((len(query), kk), dtype=np.int64)
    for i, q in enumerate(query):
        d = [(float(np.sum((q - r) ** 2)), j) for j, r in enumerate(ref)]
        d.sort()
        out[i] = [j for _, j in d[:kk]]
    return out


def padded(lists, max_samples):
    """Ragged ball lists ``(neighbours, counts)`` as the padded rows of
    ``oracle.ball_query_loop``: each list repeats its first (nearest) entry
    up to ``max_samples``."""
    neighbours, counts = lists
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    col = np.arange(max_samples)
    return neighbours[starts[:, None] + np.where(col < counts[:, None], col, 0)]


@pytest.fixture(scope="module")
def clouds():
    rng = np.random.default_rng(42)
    return rng.normal(size=(50, 3)), rng.normal(size=(80, 3))


class TestKnn:
    def test_against_brute_force(self, clouds):
        q, r = clouds
        expect = brute_knn(q, r, 5)
        np.testing.assert_array_equal(k.knn_indices(q, r, 5), expect)
        np.testing.assert_array_equal(oracle.knn_indices_loop(q, r, 5), expect)

    def test_tie_break_lowest_index(self):
        ref = np.array([[1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        q = np.array([[1.0, 0, 0]])
        np.testing.assert_array_equal(k.knn_indices(q, ref, 3), [[0, 2, 1]])
        np.testing.assert_array_equal(oracle.knn_indices_loop(q, ref, 3), [[0, 2, 1]])

    def test_k_equals_m(self, clouds):
        q, r = clouds
        got = k.knn_indices(q[:4], r, r.shape[0])
        assert sorted(got[0].tolist()) == list(range(r.shape[0]))


class TestBallQuery:
    def test_against_brute_force(self, clouds):
        q, r = clouds
        radius, ms = 0.8, 6
        neighbours, counts = k.NeighbourTable(q, r).ball(radius, ms)
        got = padded((neighbours, counts), ms)
        np.testing.assert_array_equal(got, oracle.ball_query_loop(q, r, radius, ms))
        lists = np.split(neighbours, np.cumsum(counts)[:-1])
        for i, c in enumerate(q):
            d = [(float(np.sum((c - p) ** 2)), j) for j, p in enumerate(r)]
            d.sort()
            hits = [j for dd, j in d if dd <= radius * radius]
            expect = hits[:ms] if hits else [d[0][1]]
            assert lists[i].tolist() == expect

    def test_empty_ball_falls_back_to_nearest(self):
        pts = np.array([[10.0, 0, 0], [20.0, 0, 0]])
        neighbours, counts = k.NeighbourTable(np.zeros((1, 3)), pts).ball(0.5, 4)
        np.testing.assert_array_equal(neighbours, [0])
        np.testing.assert_array_equal(counts, [1])

    def test_lists_hold_only_the_hits(self):
        pts = np.array([[0.3, 0, 0], [0.1, 0, 0], [9.0, 0, 0]])
        neighbours, counts = k.NeighbourTable(np.zeros((1, 3)), pts).ball(0.5, 5)
        np.testing.assert_array_equal(neighbours, [1, 0])
        np.testing.assert_array_equal(counts, [2])


def tied_clouds():
    """Clouds whose squared distances tie exactly: integer grid points, and
    points mirrored about the origin in x (the polar radar grid makes such
    mirror pairs common), each with its own float32 rounding."""
    grid = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * 3), axis=-1).reshape(-1, 3)
    rng = np.random.default_rng(7)
    half = rng.uniform(0.05, 0.4, (20, 3)).astype(np.float32).astype(np.float64)
    # points on the mirror plane x = 0 see each mirrored pair at one distance
    mirror = np.concatenate([half, half * [-1.0, 1.0, 1.0], half[:6] * [0.0, 1.0, 1.0]])
    return {"grid": grid, "mirror": mirror[rng.permutation(len(mirror))]}


class TestNeighbourTable:
    """`NeighbourTable.ball` and `.knn` against the explicit-loop oracles."""

    @pytest.mark.parametrize("name", ["grid", "mirror", "normal"])
    def test_ball_matches_loop(self, name, clouds):
        pts = clouds[0] if name == "normal" else tied_clouds()[name]
        table = k.NeighbourTable(pts)
        rows = np.array([len(pts) - 1, 0, 3, 3, 1])
        for radius in (1e-3, 0.1, 0.3, 1.0, 1.5, 2.0, 10.0):
            for ms in (1, 2, 5, 16, len(pts), len(pts) + 7):
                want = oracle.ball_query_loop(pts, pts, radius, ms)
                np.testing.assert_array_equal(padded(table.ball(radius, ms), ms), want)
                np.testing.assert_array_equal(padded(table.ball(radius, ms, rows=rows), ms),
                                              want[rows])

    def test_no_hit_falls_back_to_nearest(self):
        pts = np.array([[10.0, 0, 0], [20.0, 0, 0], [0.0, 30.0, 0]])
        table = k.NeighbourTable(np.zeros((1, 3)), pts)
        np.testing.assert_array_equal(padded(table.ball(0.5, 4), 4), [[0, 0, 0, 0]])

    def test_query_against_other_cloud(self, clouds):
        q, r = clouds
        table = k.NeighbourTable(q, r)
        np.testing.assert_array_equal(padded(table.ball(0.8, 6), 6),
                                      oracle.ball_query_loop(q, r, 0.8, 6))
        np.testing.assert_array_equal(table.knn(5), oracle.knn_indices_loop(q, r, 5))

    @pytest.mark.parametrize("name", ["grid", "mirror", "normal"])
    def test_knn_matches_loop(self, name, clouds):
        pts = clouds[0] if name == "normal" else tied_clouds()[name]
        table = k.NeighbourTable(pts)
        for kk in (1, 2, 8, len(pts)):
            got = table.knn(kk)
            np.testing.assert_array_equal(got, oracle.knn_indices_loop(pts, pts, kk))
            np.testing.assert_array_equal(got, k.knn_indices(pts, pts, kk))
            assert got.dtype == np.int64 and got.flags.c_contiguous


class TestFps:
    def test_two_point_selection(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0], [2.0, 0, 0]])
        np.testing.assert_array_equal(k.farthest_point_sample(pts, 2, start=0), [0, 2])

    def test_paths_agree(self, clouds):
        q, _ = clouds
        np.testing.assert_array_equal(k.farthest_point_sample(q, 10, 3),
                                      oracle.fps_loop(q, 10, 3))

    def test_greedy_invariant(self, clouds):
        # Each newly selected point is the farthest (max-min) from the set so far.
        q, _ = clouds
        sel = k.farthest_point_sample(q, 8, 0)
        assert len(set(sel.tolist())) == 8
        for s in range(1, 8):
            chosen = sel[:s]
            dmin = np.min(
                np.linalg.norm(q[:, None, :] - q[chosen][None, :, :], axis=2), axis=1
            )
            assert dmin[sel[s]] == pytest.approx(dmin.max())


class TestPointSegment:
    def test_against_scalar_function(self, clouds):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 3))
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        b[3] = a[3]  # zero-length segment
        got = k.point_segment_distances(pts, a, b)
        got_loop = oracle.point_segment_distances_loop(pts, a, b)
        np.testing.assert_allclose(got, got_loop, atol=1e-14)
        for i in range(20):
            for j in range(5):
                assert got[i, j] == pytest.approx(
                    oracle.point_segment_distance(pts[i], a[j], b[j]), abs=1e-12
                )


def cfar_threshold_reference(hm, train, guard, scale):
    """CA-CFAR threshold (left sum + right sum) / count * scale, each window
    sum a difference of one cumulative sum at the clipped window edges."""
    r = hm.shape[0]
    flat = hm.reshape(r, -1)
    csum = np.zeros((r + 1, flat.shape[1]))
    np.cumsum(flat, axis=0, out=csum[1:])
    i = np.arange(r)
    lo_l, hi_l = np.clip(i - guard - train, 0, r), np.clip(i - guard, 0, r)
    lo_r, hi_r = np.clip(i + guard + 1, 0, r), np.clip(i + guard + train + 1, 0, r)
    total = (csum[hi_l] - csum[lo_l]) + (csum[hi_r] - csum[lo_r])
    count = (hi_l - lo_l + hi_r - lo_r).astype(np.float64)[:, None]
    return (total / count * scale).reshape(hm.shape)


class TestCfar:
    def test_spike_example(self):
        hm = np.array([1.0, 1.0, 10.0, 1.0, 1.0]).reshape(5, 1, 1)
        mask = k.cfar_mask(hm, train_cells=2, guard_cells=0, scale_factor=4.0)
        np.testing.assert_array_equal(mask.ravel(), [False, False, True, False, False])

    def test_uniform_field_no_detection(self):
        hm = np.ones((16, 3, 3))
        assert not k.cfar_mask(hm, 4, 1, 1.5).any()

    def test_paths_agree(self):
        rng = np.random.default_rng(11)
        shapes = [(32, 6, 5), (7, 3, 2), (3, 4, 4), (1, 2, 2), (40, 1, 1)]
        # (train, guard, scale); a guard of 10 swallows every window of the
        # shorter range axes, so those cells have no training cells at all
        params = [(5, 2, 3.0), (1, 0, 1.0), (8, 6, 5.0), (2, 10, 1.5), (3, 0, 0.5)]
        for shape in shapes:
            for hm in (rng.exponential(size=shape),
                       rng.integers(0, 4, size=shape).astype(np.float64)):
                # a transposed view, as heatmap() returns, as well as a C array
                views = (hm, np.ascontiguousarray(hm.transpose(1, 2, 0)).transpose(2, 0, 1))
                for train, guard, scale in params:
                    loop = oracle.cfar_mask_loop(hm.reshape(shape[0], -1), train, guard, scale)
                    for view in views:
                        np.testing.assert_array_equal(k.cfar_mask(view, train, guard, scale),
                                                      loop.reshape(shape))

    def test_threshold_association(self):
        # cells set on the threshold, and one ulp above it, detect as the
        # reference only if the threshold is rounded as
        # (left + right) / count * scale
        rng = np.random.default_rng(5)
        hm = rng.exponential(size=(24, 16, 16))
        row = 10
        for _ in range(5):  # the row's own values shift the cumsum rounding
            hm[row] = cfar_threshold_reference(hm, 3, 2, 3.0)[row]
        above = hm.copy()
        above[row] = np.nextafter(hm[row], np.inf)
        for field in (hm, above):
            threshold = cfar_threshold_reference(field, 3, 2, 3.0)
            assert np.sum(np.abs(field[row] - threshold[row])
                          <= np.spacing(threshold[row])) > 200
            np.testing.assert_array_equal(k.cfar_mask(field, 3, 2, 3.0), field > threshold)

    def test_edge_cells_use_partial_window(self):
        hm = np.array([10.0, 1.0, 1.0, 1.0]).reshape(4, 1, 1)
        # cell 0 has only the right-hand training window (mean 1.0)
        mask = k.cfar_mask(hm, 3, 0, 4.0)
        assert mask[0, 0, 0]

    def test_all_guard_no_train_in_bounds(self):
        hm = np.array([5.0, 1.0]).reshape(2, 1, 1)
        mask = k.cfar_mask(hm, 1, 3, 1.0)  # guard swallows everything in bounds
        assert not mask.any()
