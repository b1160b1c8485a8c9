"""Rigid 3D geometry: transforms, rotations and Kabsch alignment.

Coordinate frame throughout the package: x right, y forward (away from the
radar), z up, all in meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput

__all__ = [
    "RigidTransform",
    "axis_angle_rotation",
    "perpendicular",
    "rotation_between",
    "kabsch",
]


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (3x3, det +1) followed by translation (3,)."""

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Transform a single point (3,) or a batch (N, 3)."""
        p = np.asarray(p, dtype=np.float64)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation


def axis_angle_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about ``axis`` (need not be unit length)."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise DegenerateInput("rotation axis has zero length")
    x, y, z = axis / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def perpendicular(u: np.ndarray) -> np.ndarray:
    """A direction perpendicular to the unit vector ``u`` (not normalized): u
    crossed with the x axis, or with the y axis when u lies near x."""
    probe = np.array([0.0, 1.0, 0.0]) if abs(u[0]) > 0.9 else np.array([1.0, 0.0, 0.0])
    return np.cross(u, probe)


def rotation_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minimal rotation taking direction ``u`` onto direction ``v``.

    The rotation axis is u x v; parallel inputs give the identity.  For
    anti-parallel inputs the axis is ambiguous, so an arbitrary perpendicular
    axis is chosen deterministically.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInput("cannot rotate a zero-length direction")
    u = u / nu
    v = v / nv
    axis = np.cross(u, v)
    s = np.linalg.norm(axis)
    c = float(np.dot(u, v))
    if s < 1e-15:
        if c > 0.0:
            return np.eye(3)
        # 180 degrees: about any axis perpendicular to u
        return axis_angle_rotation(perpendicular(u), np.pi)
    return axis_angle_rotation(axis, float(np.arctan2(s, c)))


def kabsch(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Rigid transform minimizing the squared alignment residual.

    Raises DegenerateInput for fewer than 3 correspondences or when the
    source points are all collinear, since the rotation is then not unique.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if src.shape != dst.shape:
        raise DegenerateInput(
            f"source and destination differ in shape: {src.shape} vs {dst.shape}"
        )
    n = src.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 correspondences, got {n}")
    w = np.full(n, 1.0 / n)
    centroid_src = w @ src
    centroid_dst = w @ dst
    src_c = src - centroid_src
    dst_c = dst - centroid_dst

    sv = np.linalg.svd(src_c, compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1.0):
        raise DegenerateInput("source points are collinear; rotation is not unique")

    h = (w[:, None] * src_c).T @ dst_c
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = centroid_dst - rotation @ centroid_src
    return RigidTransform(rotation, translation)
