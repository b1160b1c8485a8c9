import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import is_rotation
from kernel_oracles import point_segment_distance

from milliflow.errors import DegenerateInput
from milliflow.geometry import (
    RigidTransform,
    axis_angle_rotation,
    cross,
    kabsch,
    rotation_between,
)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestApply:
    def test_identity(self):
        t = RigidTransform(np.eye(3))
        assert np.array_equal(t.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), np.array([0.1, 0.0, 0.0]))
        np.testing.assert_allclose(t.apply(np.zeros(3)), [0.1, 0.0, 0.0])

    def test_rotation_90deg_about_z(self):
        t = RigidTransform(axis_angle_rotation([0, 0, 1], np.pi / 2), np.zeros(3))
        np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(7, 3))
        batch = t.apply(pts)
        for i in range(7):
            np.testing.assert_allclose(batch[i], t.apply(pts[i]))

    def test_is_valid(self):
        # the rotation check the rigidity tests rely on tells rotations apart
        assert is_rotation(np.eye(3))
        assert is_rotation(axis_angle_rotation([1, 2, 3], 0.7))
        assert not is_rotation(np.eye(3) * 2.0)
        assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # a reflection


class TestKabsch:
    def test_zero_residual_identity(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(4, 3))
        t = kabsch(src, src)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-12)

    def test_pure_translation(self):
        rng = np.random.default_rng(4)
        src = rng.normal(size=(5, 3))
        t = kabsch(src, src + np.array([0.1, 0.0, 0.0]))
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, [0.1, 0.0, 0.0], atol=1e-12)

    def test_recovers_rz30_with_tiny_residual(self):
        # Oracle: the residual of the returned transform must be ~0 for an
        # exactly rigid motion, and the matrix must equal the closed-form
        # z-rotation written out from cos/sin directly.
        rng = np.random.default_rng(5)
        src = rng.normal(size=(5, 3))
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        rz30 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        dst = src @ rz30.T
        t = kabsch(src, dst)
        residual = np.linalg.norm(t.apply(src) - dst)
        assert residual < 1e-9
        np.testing.assert_allclose(t.rotation, rz30, atol=1e-6)

    def test_noiseless_recovery_many_seeds(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            r = random_rotation(rng)
            trans = rng.normal(size=3)
            src = rng.normal(size=(6, 3))
            dst = src @ r.T + trans
            t = kabsch(src, dst)
            assert np.linalg.norm(t.rotation - r) < 1e-6
            assert np.linalg.norm(t.translation - trans) < 1e-6

    def test_optimality_vs_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            src = rng.normal(size=(8, 3))
            dst = rng.normal(size=(8, 3))
            t = kabsch(src, dst)
            res = np.sum((t.apply(src) - dst) ** 2)
            res_id = np.sum((src - dst) ** 2)
            assert res <= res_id + 1e-9

    def test_det_plus_one_even_for_reflection_like_data(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(6, 3))
        dst = src * np.array([1.0, 1.0, -1.0])  # mirrored
        t = kabsch(src, dst)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points_raises(self):
        with pytest.raises(DegenerateInput):
            kabsch(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_raises(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        with pytest.raises(DegenerateInput):
            kabsch(src, src)


class TestPointSegmentDistance:
    def test_perpendicular_foot_inside(self):
        assert point_segment_distance([0, 1, 0], [-1, 0, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_clamped_to_endpoint(self):
        assert point_segment_distance([2, 0, 0], [-1, 0, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_interior_direct(self):
        assert point_segment_distance([0.5, 0.5, 0], [-1, 0, 0], [1, 0, 0]) == pytest.approx(0.5)

    def test_degenerate_segment_returns_point_distance(self):
        a = np.array([1.0, 2.0, 3.0])
        assert point_segment_distance([1.0, 2.0, 7.0], a, a) == pytest.approx(4.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_nonneg_and_matches_line_distance_when_interior(self, seed):
        rng = np.random.default_rng(seed)
        p, a, b = rng.normal(size=(3, 3))
        if np.allclose(a, b):
            return
        d = point_segment_distance(p, a, b)
        assert d >= 0.0
        ab = b - a
        t = np.dot(p - a, ab) / np.dot(ab, ab)
        if 0.0 <= t <= 1.0:
            line_d = np.linalg.norm(np.cross(p - a, ab)) / np.linalg.norm(ab)
            assert d == pytest.approx(line_d, abs=1e-12)
        else:
            assert d >= min(np.linalg.norm(p - a), np.linalg.norm(p - b)) - 1e-12


class TestRotationHelpers:
    def test_axis_angle_matches_quaternion_construction(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            ang = rng.uniform(-np.pi, np.pi)
            r = axis_angle_rotation(axis, ang)
            q = np.concatenate([[np.cos(ang / 2)], np.sin(ang / 2) * axis])
            w, x, y, z = q
            r_q = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                ]
            )
            np.testing.assert_allclose(r, r_q, atol=1e-12)

    def test_zero_axis_raises(self):
        with pytest.raises(DegenerateInput):
            axis_angle_rotation([0.0, 0.0, 0.0], 1.0)

    def test_rotation_between_maps_u_to_v(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u, v = rng.normal(size=(2, 3))
            r = rotation_between(u, v)
            got = r @ (u / np.linalg.norm(u))
            np.testing.assert_allclose(got, v / np.linalg.norm(v), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_rotation_between_parallel_is_identity(self):
        np.testing.assert_allclose(
            rotation_between([0, 2, 0], [0, 5, 0]), np.eye(3), atol=1e-15
        )

    def test_rotation_between_antiparallel(self):
        r = rotation_between([1, 0, 0], [-1, 0, 0])
        np.testing.assert_allclose(r @ [1, 0, 0], [-1, 0, 0], atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


class TestCross:
    """`cross` is `np.cross` bit for bit: it replaces it on the data path."""

    @staticmethod
    def assert_bit_equal(a, b):
        got, want = cross(a, b), np.cross(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (a, b, got, want)

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        # products from the subnormal range up to about 1e301, none overflowing
        for scale in (1e-160, 1e-8, 1.0, 1e8, 1e150):
            for a, b in rng.normal(size=(2000, 2, 3)) * scale:
                self.assert_bit_equal(a, b)

    def test_signed_zeros(self):
        # every pair of vectors whose components are +0, -0 or +-1: the
        # difference of two zero products keeps or flips their sign as
        # np.cross's does
        values = (0.0, -0.0, 1.0, -1.0)
        vectors = [np.array(v) for v in itertools.product(values, repeat=3)]
        for a, b in itertools.product(vectors, repeat=2):
            self.assert_bit_equal(a, b)

    def test_rows_of_one_array(self):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(9, 3))
        for a, b in zip(rows[:-1], rows[1:]):
            self.assert_bit_equal(a, b)
