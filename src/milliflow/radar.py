"""Stepped-frequency radar forward model.

The chain per frame: body reflectors -> complex array response cube ->
sliding-window clutter removal -> range/angle FFT heatmap -> CA-CFAR peaks ->
3D point cloud with intensities, visibility dropout and multipath ghosts.

Conventions: the radar sits at the origin of a right-handed x-right /
y-forward / z-up frame.  The virtual uniform rectangular array is spaced at
half the center-frequency wavelength; direction cosines are u = x/R (azimuth
axis) and v = z/R (elevation axis).  Reflectors sit on the bone frames of
`SkeletonModel.bone_frames`, which exact labels move points with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import cfar_mask, squared_distances
from .errors import ConfigError
from .skeleton import BONE_PARENT, BONES, SkeletonModel, SkeletonPose

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass(frozen=True)
class CfarParams:
    # wide guard band: the body spans several adjacent range bins, and a
    # narrow one lets body cells inflate the training mean and mask each other
    train_cells: int = 8
    guard_cells: int = 6
    scale_factor: float = 5.0

    def __post_init__(self):
        if self.train_cells < 1:
            raise ConfigError("train_cells must be >= 1")
        if self.guard_cells < 0:
            raise ConfigError("guard_cells must be >= 0")
        if self.scale_factor <= 0:
            raise ConfigError("scale_factor must be positive")


@dataclass(frozen=True)
class RadarConfig:
    """The defaults are the Vayyar board's: 62-63.6 GHz, 151 steps, 20x16
    virtual array: 9.375 cm bins, ~14 m reach."""

    f_min: float = 62.0e9
    f_max: float = 63.6e9
    n_freq_steps: int = 151
    n_az: int = 20
    n_el: int = 16
    cfar: CfarParams = field(default_factory=CfarParams)
    ghost_prob: float = 0.05
    visibility_half_angle: float = 1.4  # radians
    reflectors_per_bone: int = 14
    snr_db: float | None = 20.0  # None disables receiver noise
    # per-frame reflector jitter; 1 mm is several wavelengths of phase at
    # 62 GHz, so nominally static body parts decorrelate across the clutter
    # window and survive mean subtraction (nobody holds a limb sub-mm still)
    micro_motion_std: float = 1.0e-3
    pad_factor: int = 2

    def __post_init__(self):
        if not self.f_min > 0:
            raise ConfigError("f_min must be positive")
        if self.f_max <= self.f_min:
            raise ConfigError("f_max must exceed f_min")
        if not 0 <= self.ghost_prob <= 1:
            raise ConfigError("ghost_prob must be in [0, 1]")
        if self.reflectors_per_bone < 1:
            raise ConfigError("reflectors_per_bone must be positive")
        if self.micro_motion_std < 0:
            raise ConfigError("micro_motion_std must be nonnegative")
        if self.n_freq_steps < 2:
            raise ConfigError("need at least 2 frequency steps")
        for name in ("n_az", "n_el", "pad_factor"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    @property
    def bandwidth(self) -> float:
        return self.f_max - self.f_min

    @property
    def freq_step(self) -> float:
        return self.bandwidth / (self.n_freq_steps - 1)

    @property
    def center_freq(self) -> float:
        return 0.5 * (self.f_min + self.f_max)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.center_freq

    @property
    def element_spacing(self) -> float:
        return 0.5 * self.wavelength

    @property
    def range_resolution(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth)

    @property
    def max_range(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.freq_step)

    @property
    def n_virtual_pairs(self) -> int:
        return self.n_az * self.n_el

    @property
    def frequencies(self) -> np.ndarray:
        return self.f_min + self.freq_step * np.arange(self.n_freq_steps)


@dataclass(frozen=True)
class Reflectors:
    """Point scatterers attached to skeleton bones."""

    positions: np.ndarray  # (K, 3)
    reflectivities: np.ndarray  # (K,)
    normals: np.ndarray  # (K, 3) unit outward
    bone_index: np.ndarray  # (K,) int

    def __len__(self) -> int:
        return len(self.positions)

    def subset(self, mask: np.ndarray) -> "Reflectors":
        return Reflectors(
            self.positions[mask],
            self.reflectivities[mask],
            self.normals[mask],
            self.bone_index[mask],
        )


@dataclass(frozen=True)
class RadarFrame:
    points: np.ndarray  # (N, 3)
    intensities: np.ndarray  # (N,)
    frame_index: int
    timestamp: float
    prov_bone: np.ndarray | None = None  # (N,) generating bone, -1 for ghosts

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, idx: np.ndarray) -> "RadarFrame":
        prov = None if self.prov_bone is None else self.prov_bone[idx]
        return replace(
            self,
            points=self.points[idx],
            intensities=self.intensities[idx],
            prov_bone=prov,
        )


def sample_bone_local_reflectors(model: SkeletonModel, cfg: RadarConfig, seed: int):
    """Material reflector coordinates (t along bone, angle around it) per bone.

    Drawing these once per subject keeps reflector identity stable across
    frames, so exact per-reflector motion is available for ground truth.
    """
    rng = np.random.default_rng(seed)
    n = cfg.reflectors_per_bone
    t = rng.uniform(0.0, 1.0, size=(13, n))
    psi = rng.uniform(0.0, 2.0 * np.pi, size=(13, n))
    radial = rng.uniform(0.85, 1.0, size=(13, n))  # just under the envelope
    return t, psi, radial


def place_reflectors(
    model: SkeletonModel,
    pose: SkeletonPose,
    local_coords,
    jitter_std: float = 0.0,
    jitter_seed: int = 0,
) -> Reflectors:
    """Map bone-local reflector coordinates into the world for one pose, on
    the bone frames of `model.bone_frames`."""
    t, psi, radial = local_coords
    n = t.shape[1]
    axis, length, e1, e2 = model.bone_frames(pose.keypoints)
    parent = pose.keypoints[BONE_PARENT]
    radius = model.body_radius_per_bone[:, None] * radial
    outward = np.cos(psi)[..., None] * e1[:, None] + np.sin(psi)[..., None] * e2[:, None]
    positions = (
        parent[:, None] + t[..., None] * (length[:, None] * axis)[:, None]
        + radius[..., None] * outward
    ).reshape(-1, 3)
    normals = outward.reshape(-1, 3)
    # scaled so a detected body cell clears the downstream intensity
    # floor of 0.5 even after clutter-removal and straddle losses
    reflectivities = np.repeat(model.body_radius_per_bone / 0.0125, n)
    bone_index = np.repeat(np.arange(len(BONES)), n)
    if jitter_std > 0.0:
        rng = np.random.default_rng(jitter_seed)
        positions = positions + rng.normal(0.0, jitter_std, size=positions.shape)
    return Reflectors(positions, reflectivities, normals, bone_index)


def visibility_filter(reflectors: Reflectors, half_angle: float) -> Reflectors:
    """Keep reflectors whose outward normal faces the sensor, at the origin,
    within half_angle."""
    to_sensor = np.subtract(0.0, reflectors.positions)  # unlike -positions, keeps +0.0
    to_sensor = to_sensor / np.linalg.norm(to_sensor, axis=1, keepdims=True)
    cosang = np.sum(reflectors.normals * to_sensor, axis=1)
    return reflectors.subset(cosang >= np.cos(half_angle) - 1e-12)


def synthesize_cube(
    reflectors: Reflectors, cfg: RadarConfig, seed: int = 0
) -> np.ndarray:
    """Complex response cube of shape (n_az, n_el, n_freq_steps).

    Each reflector contributes a range phase ramp over the frequency steps and
    a URA steering vector over the two array axes; receiver noise is complex
    Gaussian at cfg.snr_db relative to mean signal power.
    """
    shape = (cfg.n_az, cfg.n_el, cfg.n_freq_steps)
    cube = np.zeros(shape, dtype=np.complex128)
    if len(reflectors) > 0:
        pos = reflectors.positions
        r = np.linalg.norm(pos, axis=1)
        u = pos[:, 0] / r
        v = pos[:, 2] / r
        k_wave = 2.0 * np.pi / cfg.wavelength
        d = cfg.element_spacing
        phase_range = np.exp(
            -1j * (2.0 * np.pi * 2.0 / SPEED_OF_LIGHT) * np.outer(r, cfg.frequencies)
        )
        phase_az = np.exp(-1j * k_wave * d * np.outer(u, np.arange(cfg.n_az)))
        phase_el = np.exp(-1j * k_wave * d * np.outer(v, np.arange(cfg.n_el)))
        weighted = reflectors.reflectivities[:, None] * phase_az
        cube = np.einsum("ka,ke,km->aem", weighted, phase_el, phase_range, optimize=True)
    if cfg.snr_db is not None:
        rng = np.random.default_rng(seed)
        sig_power = np.mean(np.abs(cube) ** 2) if len(reflectors) else 1.0
        noise_power = sig_power / (10.0 ** (cfg.snr_db / 10.0))
        sigma = np.sqrt(noise_power / 2.0)
        # added in place, part by part: the same sums as adding the complex
        # noise sigma * (a + 1j * b), with a drawn before b
        cube.real += sigma * rng.standard_normal(shape)
        cube.imag += sigma * rng.standard_normal(shape)
    return cube


def clutter_removal(cubes: list[np.ndarray]) -> np.ndarray:
    """Subtract the per-cell window mean from the newest cube.

    The window is summed left to right, as a reduction over a stacked window
    would sum it, and divided by its length, so no stacked copy is made.
    """
    if len(cubes) < 2:
        raise ConfigError("clutter removal needs a window of at least 2 cubes")
    mean = np.add(cubes[0], cubes[1])
    for cube in cubes[2:]:
        mean += cube
    mean /= len(cubes)
    return np.subtract(cubes[-1], mean, out=mean)


def _shift_halves(n: int):
    """(source, destination) slices that move the two halves of an axis of
    length n to where `np.fft.fftshift` puts them."""
    k = n // 2
    return (slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))


def heatmap(cube: np.ndarray, cfg: RadarConfig) -> np.ndarray:
    """Magnitude spectrum over (range, azimuth, elevation), each axis
    zero-padded `cfg.pad_factor` times.

    The synthesis phase convention uses negative exponents, so the cube is
    conjugated before the forward FFT; angle axes are shifted to center zero
    spatial frequency.  Returns a new array on each call, of shape
    (pad * n_freq_steps, pad * n_az, pad * n_el): a transposed view of a
    C-ordered (az, el, range) array.
    """
    p = cfg.pad_factor
    shape = (p * cfg.n_az, p * cfg.n_el, p * cfg.n_freq_steps)
    # conjugated into C order, whatever the cube's layout: the FFT's passes
    # then read their lines from memory in order
    spec = np.fft.fftn(np.conj(cube, order="C"), s=shape, axes=(0, 1, 2))
    # the angle-axis shift is fused into the magnitude: |.| of each quadrant
    # is written straight to its shifted place, then scaled in place
    mag = np.empty(shape)
    for (a_src, a_dst), (e_src, e_dst) in itertools.product(
        _shift_halves(shape[0]), _shift_halves(shape[1])
    ):
        np.abs(spec[a_src, e_src], out=mag[a_dst, e_dst])
    mag /= cfg.n_az * cfg.n_el * cfg.n_freq_steps
    return mag.transpose(2, 0, 1)  # (range, az, el)


def range_axis(cfg: RadarConfig) -> np.ndarray:
    n = cfg.pad_factor * cfg.n_freq_steps
    return np.arange(n) * SPEED_OF_LIGHT / (2.0 * cfg.freq_step * n)


def _direction_cosine_axis(n_elements: int, pad_factor: int, cfg: RadarConfig) -> np.ndarray:
    n = pad_factor * n_elements
    spatial_freq = (np.arange(n) - n // 2) / n  # cycles per element after shift
    return spatial_freq * cfg.wavelength / cfg.element_spacing


def azimuth_cosine_axis(cfg: RadarConfig) -> np.ndarray:
    return _direction_cosine_axis(cfg.n_az, cfg.pad_factor, cfg)


def elevation_cosine_axis(cfg: RadarConfig) -> np.ndarray:
    return _direction_cosine_axis(cfg.n_el, cfg.pad_factor, cfg)


def cfar_detect(hm: np.ndarray, cfar: CfarParams) -> np.ndarray:
    """CA-CFAR along range plus 3x3x3 local-maximum suppression.

    A CFAR hit is kept when no cell of its 3x3x3 neighbourhood is larger,
    cells outside the heatmap counting as 0.  Returns a (D, 4) array of
    (range_bin, az_bin, el_bin, intensity) rows in lexicographic bin order.
    """
    detected = cfar_mask(hm, cfar.train_cells, cfar.guard_cells, cfar.scale_factor)
    # test only the hits, on a zero-padded copy so that no neighbour index
    # leaves the array; filtering offset by offset keeps the bin order
    padded = np.zeros([n + 2 for n in hm.shape], dtype=hm.dtype)
    padded[(slice(1, -1),) * hm.ndim] = hm
    flat = padded.reshape(-1)
    steps = np.array(padded.strides) // padded.itemsize
    hits = np.unravel_index(np.flatnonzero(detected), hm.shape)
    at = np.ravel_multi_index([idx + 1 for idx in hits], padded.shape)
    values = flat[at]
    for offset in itertools.product((-1, 0, 1), repeat=hm.ndim):
        if any(offset):
            keep = values >= flat[at + np.dot(offset, steps)]
            at, values = at[keep], values[keep]
    cells = np.column_stack(np.unravel_index(at, padded.shape)) - 1
    return np.column_stack([cells.astype(np.float64), values])


def to_point_cloud(
    detections: np.ndarray,
    cfg: RadarConfig,
    seed: int,
    frame_index: int = 0,
    timestamp: float = 0.0,
    reflectors: Reflectors | None = None,
) -> RadarFrame:
    """Convert CFAR cells to Cartesian points; optionally append ghosts.

    Cells whose direction cosines fall outside the unit disk have no physical
    direction and are dropped.  Each kept point spawns, with probability
    `cfg.ghost_prob`, a range-extended ghost with attenuated intensity.  When the
    generating reflectors are passed in, every real point is tagged with the
    bone of its nearest reflector and ghosts are tagged -1; a frame with no
    visible reflector tags all its points -1, as noise.  Without reflectors
    the frame carries no provenance.
    """
    detections = np.asarray(detections, dtype=np.float64).reshape(-1, 4)
    bins = detections[:, :3].astype(np.int64)
    r = range_axis(cfg)[bins[:, 0]]
    u = azimuth_cosine_axis(cfg)[bins[:, 1]]
    v = elevation_cosine_axis(cfg)[bins[:, 2]]
    w2 = 1.0 - u * u - v * v
    keep = ~((w2 <= 0.0) | (r <= 0.0))
    r, u, v, w2 = r[keep], u[keep], v[keep], w2[keep]
    pts = np.column_stack([r * u, r * np.sqrt(w2), r * v])
    intens = detections[keep, 3]

    prov = None
    if reflectors is not None:
        prov = -np.ones(len(pts), dtype=np.int64)
        if len(pts) and len(reflectors):
            # argmin takes the first of equal minima, the lower index
            nearest = squared_distances(pts, reflectors.positions).argmin(axis=1)
            prov = reflectors.bone_index[nearest]

    rng = np.random.default_rng(seed)
    ghost_pts, ghost_int = [], []
    for i in range(len(pts)):
        if rng.uniform() < cfg.ghost_prob:
            stretch = 1.0 + rng.uniform(0.15, 0.5)
            ghost_pts.append(pts[i] * stretch)
            ghost_int.append(intens[i] * rng.uniform(0.3, 0.7))
    if ghost_pts:
        pts = np.vstack([pts, ghost_pts])
        intens = np.concatenate([intens, ghost_int])
        if prov is not None:
            prov = np.concatenate([prov, -np.ones(len(ghost_pts), dtype=np.int64)])
    return RadarFrame(pts, intens, frame_index, timestamp, prov)
