import dataclasses
import itertools

import numpy as np
import pytest

import kernel_oracles as oracle

from milliflow._kernels import cfar_mask
from milliflow.errors import ConfigError
from milliflow.radar import (
    SPEED_OF_LIGHT,
    CfarParams,
    RadarConfig,
    Reflectors,
    azimuth_cosine_axis,
    cfar_detect,
    clutter_removal,
    elevation_cosine_axis,
    heatmap,
    place_reflectors,
    range_axis,
    sample_bone_local_reflectors,
    synthesize_cube,
    to_point_cloud,
    visibility_filter,
)
from milliflow.skeleton import (
    BONE_CHILD, BONE_PARENT, ActivitySpec, generate_motion, make_subject,
)


def quiet_cfg(**kw) -> RadarConfig:
    return RadarConfig(snr_db=None, ghost_prob=0.0, micro_motion_std=0.0, **kw)


def single_reflector(position, reflectivity=1.0, normal=(0.0, -1.0, 0.0)):
    return Reflectors(
        np.array([position], dtype=float),
        np.array([reflectivity]),
        np.array([normal], dtype=float),
        np.array([0], dtype=np.int64),
    )


def reflectors_at(positions):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    return Reflectors(
        positions,
        np.ones(n),
        np.tile([0.0, -1.0, 0.0], (n, 1)),
        np.zeros(n, dtype=np.int64),
    )


def dft_oracle(signal, k):
    # plain summation definition of the DFT with positive exponent
    m = np.arange(len(signal))
    return np.sum(np.conj(signal) * np.exp(-2j * np.pi * k * m / len(signal)))


class TestConfig:
    def test_derived_quantities(self):
        cfg = RadarConfig()
        assert cfg.bandwidth == pytest.approx(1.6e9)
        assert cfg.range_resolution == pytest.approx(0.09375, abs=1e-12)
        assert cfg.freq_step == pytest.approx(10.666e6, rel=1e-3)
        assert cfg.max_range == pytest.approx(14.0, abs=0.1)
        assert cfg.n_virtual_pairs == 320
        assert cfg.n_freq_steps == 151
        # half-wavelength spacing at the center frequency
        assert cfg.element_spacing == pytest.approx(
            SPEED_OF_LIGHT / 62.8e9 / 2.0, rel=1e-12
        )

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            RadarConfig(f_min=63e9, f_max=62e9)
        with pytest.raises(ConfigError):
            RadarConfig(n_freq_steps=1)


class TestSynthesizeCube:
    def test_range_fft_peak_bin_21(self):
        # 2.00 m / 0.09375 m = 21.33 -> peak at bin 21 of the unpadded
        # 151-point spectrum, checked against an explicit-sum DFT oracle on
        # several antennas.
        cfg = quiet_cfg()
        cube = synthesize_cube(single_reflector((0.0, 2.0, 0.0)), cfg)
        assert cube.shape == (20, 16, 151)
        for a, e in [(0, 0), (7, 3), (19, 15)]:
            mags = [abs(dft_oracle(cube[a, e], k)) for k in range(151)]
            assert int(np.argmax(mags)) == 21

    def test_zero_reflectors_zero_cube(self):
        cfg = quiet_cfg()
        cube = synthesize_cube(reflectors_at(np.empty((0, 3))), cfg)
        assert np.all(cube == 0)

    def test_two_reflectors_resolved_iff_separated(self):
        cfg = quiet_cfg()
        for dr, expected_peaks in [(0.20, 2), (0.05, 1)]:
            refl = reflectors_at([(0.0, 2.0, 0.0), (0.0, 2.0 + dr, 0.0)])
            cube = synthesize_cube(refl, cfg)
            sig = cube[0, 0]
            mags = np.array([abs(dft_oracle(sig, k)) for k in range(151)])
            # count prominent local maxima near the target bins
            floor = 0.25 * mags.max()
            peaks = [
                k
                for k in range(1, 150)
                if mags[k] > floor and mags[k] >= mags[k - 1] and mags[k] >= mags[k + 1]
            ]
            assert len(peaks) == expected_peaks

    def test_permutation_invariance(self):
        cfg = quiet_cfg()
        rng = np.random.default_rng(0)
        pos = rng.uniform([-1, 2, -1], [1, 4, 1], size=(30, 3))
        refl = reflectors_at(pos)
        perm = rng.permutation(30)
        refl_p = Reflectors(
            refl.positions[perm],
            refl.reflectivities[perm],
            refl.normals[perm],
            refl.bone_index[perm],
        )
        a = synthesize_cube(refl, cfg)
        b = synthesize_cube(refl_p, cfg)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_noise_determinism_and_level(self):
        cfg = RadarConfig(snr_db=20.0)
        refl = single_reflector((0.0, 3.0, 0.0))
        a = synthesize_cube(refl, cfg, seed=5)
        b = synthesize_cube(refl, cfg, seed=5)
        assert np.array_equal(a, b)
        clean = synthesize_cube(refl, quiet_cfg(), seed=5)
        noise = a - clean
        snr = np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2)
        assert 10 * np.log10(snr) == pytest.approx(20.0, abs=1.0)


class TestClutterRemoval:
    def test_static_cancels(self):
        cfg = quiet_cfg()
        cube = synthesize_cube(single_reflector((0.5, 2.5, 0.2)), cfg)
        residual = clutter_removal([cube.copy() for _ in range(4)])
        assert np.max(np.abs(residual)) < 1e-12

    def test_moving_leaves_residual(self):
        cfg = quiet_cfg()
        cubes = [
            synthesize_cube(single_reflector((0.0, 2.0 + 0.05 * i, 0.0)), cfg)
            for i in range(4)
        ]
        residual = clutter_removal(cubes)
        assert np.max(np.abs(residual)) > 1.0

    def test_zero_window(self):
        z = np.zeros((20, 16, 151), dtype=complex)
        assert np.all(clutter_removal([z, z, z]) == 0)

    def test_window_too_short(self):
        with pytest.raises(ConfigError):
            clutter_removal([np.zeros((2, 2, 4), dtype=complex)])


class TestHeatmap:
    def test_single_reflector_peak_location(self):
        cfg = quiet_cfg()
        cube = synthesize_cube(single_reflector((0.0, 2.0, 0.0)), cfg)
        hm = heatmap(cube, cfg)
        assert hm.shape == (302, 40, 32)
        r, a, e = np.unravel_index(np.argmax(hm), hm.shape)
        assert range_axis(cfg)[r] == pytest.approx(2.0, abs=cfg.range_resolution)
        assert abs(azimuth_cosine_axis(cfg)[a]) <= 0.051
        assert abs(elevation_cosine_axis(cfg)[e]) <= 0.0626

    def test_range_linearity_grid(self):
        cfg = quiet_cfg()
        pad = cfg.pad_factor
        for r_true in np.linspace(0.5, 5.0, 10):
            cube = synthesize_cube(single_reflector((0.0, r_true, 0.0)), cfg)
            profile = heatmap(cube, cfg)[:, 20, 16]
            peak = int(np.argmax(profile))
            expected = round(r_true / cfg.range_resolution * pad)
            assert abs(peak - expected) <= 1

    def test_azimuth_angle_mapping(self):
        cfg = quiet_cfg()
        for az_deg in (-25.0, 10.0, 30.0):
            u = np.sin(np.deg2rad(az_deg))
            pos = (2.5 * u, 2.5 * np.sqrt(1 - u * u), 0.0)
            hm = heatmap(synthesize_cube(single_reflector(pos), cfg), cfg)
            _, a, _ = np.unravel_index(np.argmax(hm), hm.shape)
            u_axis = azimuth_cosine_axis(cfg)
            assert abs(u_axis[a] - u) <= (u_axis[1] - u_axis[0]) + 1e-9

    def test_elevation_angle_mapping(self):
        cfg = quiet_cfg()
        v = np.sin(np.deg2rad(15.0))
        pos = (0.0, 2.5 * np.sqrt(1 - v * v), 2.5 * v)
        hm = heatmap(synthesize_cube(single_reflector(pos), cfg), cfg)
        _, _, e = np.unravel_index(np.argmax(hm), hm.shape)
        v_axis = elevation_cosine_axis(cfg)
        assert abs(v_axis[e] - v) <= (v_axis[1] - v_axis[0]) + 1e-9

    def test_zero_cube(self):
        cfg = quiet_cfg()
        assert np.all(heatmap(np.zeros((20, 16, 151), complex), cfg) == 0)

    def test_real_cube_magnitude_symmetry(self):
        cfg = quiet_cfg()
        rng = np.random.default_rng(3)
        cube = rng.normal(size=(20, 16, 151)) + 0j
        hm = heatmap(cube, cfg)
        un = np.fft.ifftshift(hm, axes=(1, 2))  # undo the angle-axis shift
        mirrored = un.copy()
        for ax in range(3):
            mirrored = np.flip(np.roll(mirrored, -1, axis=ax), axis=ax)
        np.testing.assert_allclose(un, mirrored, atol=1e-9)


def dense_local_max(hm):
    """Oracle: hm >= its 3x3x3 neighbourhood max, outside cells reading 0."""
    padded = np.pad(hm, 1, mode="constant", constant_values=0.0)
    r, a, e = hm.shape
    neighbourhood_max = np.full(hm.shape, -np.inf)
    for dr, da, de in itertools.product(range(3), repeat=3):
        np.maximum(neighbourhood_max, padded[dr : dr + r, da : da + a, de : de + e],
                   out=neighbourhood_max)
    return hm >= neighbourhood_max


def dense_detect(hm, cfar):
    """Oracle for cfar_detect: the CFAR mask and the dense local maximum."""
    mask = cfar_mask(hm, cfar.train_cells, cfar.guard_cells, cfar.scale_factor)
    cells = np.argwhere(mask & dense_local_max(hm))
    return np.column_stack([cells.astype(np.float64), hm[tuple(cells.T)]])


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestCfarDetectOracle:
    PARAMS = [CfarParams(1, 0, 0.5), CfarParams(2, 1, 1.0), CfarParams(8, 6, 5.0),
              CfarParams(3, 0, 1.5)]

    @pytest.mark.parametrize("shape", [(16, 6, 5), (7, 1, 4), (1, 5, 5), (9, 3, 1),
                                       (1, 1, 1), (2, 2, 2)])
    @pytest.mark.parametrize("kind", ["exponential", "ties", "signed"])
    def test_random_heatmaps(self, shape, kind):
        rng = np.random.default_rng([*shape, len(kind)])
        for _ in range(20):
            if kind == "exponential":
                hm = rng.exponential(size=shape)
            elif kind == "ties":  # plateaus and equal neighbours
                hm = rng.integers(0, 3, size=shape).astype(np.float64)
            else:  # negative cells, also on the boundary
                hm = rng.normal(size=shape)
            for cfar in self.PARAMS:
                assert_same_bytes(cfar_detect(hm, cfar), dense_detect(hm, cfar))

    def test_faces_and_corners(self):
        hm = np.full((12, 4, 4), 0.01)
        corners = list(itertools.product((0, 11), (0, 3), (0, 3)))
        faces = [(5, 0, 1), (6, 3, 2), (0, 1, 2), (11, 2, 1), (3, 2, 0), (8, 1, 3)]
        for cell in corners + faces:
            hm[cell] = 9.0
        det = cfar_detect(hm, CfarParams(2, 0, 3.0))
        assert_same_bytes(det, dense_detect(hm, CfarParams(2, 0, 3.0)))
        assert {tuple(int(v) for v in row[:3]) for row in det} == set(corners + faces)

    def test_negative_boundary_hit_loses_to_outside_zero(self):
        # every cell is negative; a CFAR hit on the boundary is never a local
        # maximum because the cells outside the heatmap read 0
        hm = -np.ones((10, 3, 3))
        hm[0, 1, 1] = -0.5
        hm[5, 1, 1] = -0.5
        cfar = CfarParams(1, 0, 1.0)
        assert cfar_mask(hm, 1, 0, 1.0)[0, 1, 1]
        assert cfar_mask(hm, 1, 0, 1.0)[5, 1, 1]
        det = cfar_detect(hm, cfar)
        assert_same_bytes(det, dense_detect(hm, cfar))
        assert det[:, :3].tolist() == [[5.0, 1.0, 1.0]]

    def test_tied_neighbours_both_kept(self):
        hm = np.full((12, 3, 3), 0.01)
        hm[5, 1, 1] = hm[6, 1, 1] = 4.0
        cfar = CfarParams(2, 1, 3.0)
        det = cfar_detect(hm, cfar)
        assert_same_bytes(det, dense_detect(hm, cfar))
        assert det[:, 0].tolist() == [5.0, 6.0]

    def test_empty_mask(self):
        hm = np.ones((6, 2, 2))
        det = cfar_detect(hm, CfarParams(2, 0, 1.5))
        assert_same_bytes(det, np.empty((0, 4)))
        assert_same_bytes(det, dense_detect(hm, CfarParams(2, 0, 1.5)))

    def test_pipeline_heatmap(self):
        cfg = RadarConfig()
        refl = reflectors_at([(0.1, 2.5, 0.2), (-0.3, 3.0, -0.1), (0.0, 2.0, 0.0)])
        hm = heatmap(synthesize_cube(refl, cfg, seed=4), cfg)
        det = cfar_detect(hm, cfg.cfar)
        assert len(det) > 0
        assert_same_bytes(det, dense_detect(hm, cfg.cfar))


class TestCfarDetect:
    def test_two_injected_peaks(self):
        hm = np.ones((64, 8, 8)) * 0.01
        hm[10, 3, 4] = 5.0
        hm[40, 5, 2] = 4.0
        det = cfar_detect(hm, CfarParams(train_cells=6, guard_cells=2, scale_factor=3.0))
        assert det.shape == (2, 4)
        assert det[0][:3].tolist() == [10, 3, 4]
        assert det[1][:3].tolist() == [40, 5, 2]
        assert det[0][3] == pytest.approx(5.0)

    def test_uniform_no_detection(self):
        hm = np.ones((32, 4, 4))
        assert len(cfar_detect(hm, CfarParams(8, 2, 1.5))) == 0

    def test_resolution_law_full_chain(self):
        cfg = quiet_cfg()
        res = cfg.range_resolution
        for sep, expected in [(2 * res, 2), (0.5 * res, 1)]:
            refl = reflectors_at([(0.0, 2.0, 0.0), (0.0, 2.0 + sep, 0.0)])
            hm = heatmap(synthesize_cube(refl, cfg), cfg)
            det = cfar_detect(hm, cfg.cfar)
            # look only at the range column through boresight
            on_axis = det[(det[:, 1] == 20) & (det[:, 2] == 16)]
            assert len(on_axis) == expected

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            CfarParams(train_cells=0)
        with pytest.raises(ConfigError):
            CfarParams(scale_factor=0.0)
        with pytest.raises(ConfigError):
            CfarParams(guard_cells=-1)


class TestToPointCloud:
    def test_on_axis_conversion(self):
        cfg = quiet_cfg()
        det = np.array([[43.0, 20.0, 16.0, 2.5]])
        frame = to_point_cloud(det, cfg, seed=0)
        assert len(frame) == 1
        x, y, z = frame.points[0]
        assert x == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(range_axis(cfg)[43])
        assert frame.intensities[0] == pytest.approx(2.5)

    def test_ghost_prob_zero_and_one(self):
        cfg = quiet_cfg()
        det = np.array(
            [[43.0, 20.0, 16.0, 2.0], [50.0, 22.0, 14.0, 1.0], [60.0, 18.0, 17.0, 3.0]]
        )
        refl = reflectors_at([(0.0, 2.0, 0.0)])
        none = to_point_cloud(det, cfg, seed=1, reflectors=refl)
        assert len(none) == 3
        doubled = to_point_cloud(det, dataclasses.replace(cfg, ghost_prob=1.0), seed=1,
                                 reflectors=refl)
        assert len(doubled) == 6
        assert np.all(doubled.prov_bone[:3] >= 0)
        assert np.all(doubled.prov_bone[3:] == -1)
        for g in range(3):
            assert doubled.intensities[3 + g] < doubled.intensities[g]
            # ghosts sit farther along the same ray
            assert np.linalg.norm(doubled.points[3 + g]) > np.linalg.norm(
                doubled.points[g]
            )

    def test_unphysical_cells_dropped(self):
        cfg = quiet_cfg()
        det = np.array([[43.0, 0.0, 0.0, 1.0]])  # u=-1, v=-1: outside unit disk
        frame = to_point_cloud(det, cfg, seed=0)
        assert len(frame) == 0

    def test_provenance_is_bone_of_nearest_reflector(self):
        cfg = quiet_cfg()
        rng = np.random.default_rng(5)
        det = np.column_stack([rng.integers(30, 60, 40), rng.integers(12, 28, 40),
                               rng.integers(10, 22, 40), np.ones(40)]).astype(float)
        positions = rng.uniform([-1.0, 1.5, -1.0], [1.0, 4.0, 1.0], size=(50, 3))
        # each position twice: on an exact tie the lower index, bone i, wins
        refl = Reflectors(np.repeat(positions, 2, axis=0), np.ones(100),
                          np.tile([0.0, -1.0, 0.0], (100, 1)),
                          np.tile([0, -5], 50) + np.repeat(np.arange(50), 2))
        frame = to_point_cloud(det, cfg, seed=0, reflectors=refl)
        d2 = ((frame.points[:, None, :] - positions[None]) ** 2).sum(axis=2)
        assert len(frame) > 20
        np.testing.assert_array_equal(frame.prov_bone, d2.argmin(axis=1))

    def test_no_reflectors_means_no_provenance(self):
        cfg = quiet_cfg()
        det = np.array([[43.0, 20.0, 16.0, 1.0]])
        assert to_point_cloud(det, cfg, seed=0).prov_bone is None


class TestReflectors:
    def test_count_and_radius(self):
        from milliflow._kernels import point_segment_distances

        model = make_subject(0)
        pose = generate_motion(model, ActivitySpec("ArmSwing"), 2)[0]
        cfg = quiet_cfg(reflectors_per_bone=10)
        refl = place_reflectors(model, pose, sample_bone_local_reflectors(model, cfg, 3))
        assert len(refl) == 130
        d = point_segment_distances(refl.positions, pose.keypoints[BONE_PARENT],
                                    pose.keypoints[BONE_CHILD])
        for i in range(len(refl)):
            b = refl.bone_index[i]
            assert d[i, b] <= model.body_radius_per_bone[b] + 1e-9

    def test_determinism(self):
        model = make_subject(1)
        pose = generate_motion(model, ActivitySpec("Bowing"), 2)[1]
        cfg = quiet_cfg()
        a = place_reflectors(model, pose, sample_bone_local_reflectors(model, cfg, 7))
        b = place_reflectors(model, pose, sample_bone_local_reflectors(model, cfg, 7))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.normals, b.normals)

    def test_visibility_filter(self):
        rng = np.random.default_rng(0)
        n = 50
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        refl = Reflectors(
            np.tile([0.0, 3.0, 0.0], (n, 1)),
            np.ones(n),
            normals,
            np.zeros(n, dtype=np.int64),
        )
        assert len(visibility_filter(refl, np.pi)) == n
        assert len(visibility_filter(refl, 0.0)) == 0
        toward = Reflectors(
            np.array([[0.0, 3.0, 0.0]]),
            np.ones(1),
            np.array([[0.0, -1.0, 0.0]]),
            np.zeros(1, dtype=np.int64),
        )
        assert len(visibility_filter(toward, np.pi / 4)) == 1


class TestStagesMatchFirstForm:
    """The radar stages give the bytes of the expressions and loops they were
    first written as (``kernel_oracles``)."""

    CONFIGS = [RadarConfig(), RadarConfig(n_az=5, n_el=3, n_freq_steps=7, pad_factor=1),
               RadarConfig(n_az=3, n_el=4, n_freq_steps=5, pad_factor=3)]

    @staticmethod
    def random_cube(rng, shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("cfg_index", range(3))
    def test_heatmap(self, cfg_index):
        cfg = self.CONFIGS[cfg_index]
        rng = np.random.default_rng(cfg_index)
        for _ in range(3):
            cube = self.random_cube(rng, (cfg.n_az, cfg.n_el, cfg.n_freq_steps))
            # a C array and the layout `synthesize_cube` returns
            einsum_order = np.ascontiguousarray(cube.transpose(1, 0, 2)).transpose(1, 0, 2)
            for laid_out in (cube, einsum_order):
                got, want = heatmap(laid_out, cfg), oracle.heatmap_expr(cube, cfg)
                assert_same_bytes(got, want)
                assert got.strides == want.strides

    def test_heatmap_returns_a_new_array_each_call(self):
        cfg = RadarConfig()
        rng = np.random.default_rng(11)
        first_cube, second_cube = (self.random_cube(rng, (20, 16, 151)) for _ in range(2))
        first = heatmap(first_cube, cfg)
        second = heatmap(second_cube, cfg)
        assert not np.shares_memory(first, second)
        assert_same_bytes(first, oracle.heatmap_expr(first_cube, cfg))
        assert_same_bytes(second, oracle.heatmap_expr(second_cube, cfg))

    @pytest.mark.parametrize("window", [2, 3, 4, 5])
    def test_clutter_removal(self, window):
        rng = np.random.default_rng(window)
        cubes = [self.random_cube(rng, (6, 5, 9)) for _ in range(window)]
        cubes[0] = np.ascontiguousarray(cubes[0].transpose(1, 0, 2)).transpose(1, 0, 2)
        before = [c.copy() for c in cubes]
        assert_same_bytes(clutter_removal(cubes), oracle.clutter_removal_stack(cubes))
        for cube, copy in zip(cubes, before):  # the window is left as it was
            assert_same_bytes(cube, copy)

    @pytest.mark.parametrize("snr_db", [20.0, None])
    def test_synthesize_cube(self, snr_db):
        cfg = RadarConfig(snr_db=snr_db)
        model = make_subject(2)
        local = sample_bone_local_reflectors(model, cfg, 2)
        none = Reflectors(np.empty((0, 3)), np.empty(0), np.empty((0, 3)),
                          np.empty(0, dtype=np.int64))
        for i, pose in enumerate(generate_motion(model, ActivitySpec("LegSwing"), 3)):
            refl = visibility_filter(place_reflectors(model, pose, local),
                                     cfg.visibility_half_angle)
            for r in (refl, none):
                assert_same_bytes(synthesize_cube(r, cfg, seed=i),
                                  oracle.synthesize_cube_expr(r, cfg, seed=i))

    @pytest.mark.parametrize("activity", ["ArmSwing", "Bowing", "Sitting"])
    def test_place_reflectors(self, activity):
        cfg = RadarConfig()
        for subject in range(3):
            model = make_subject(subject)
            local = sample_bone_local_reflectors(model, cfg, subject)
            for i, pose in enumerate(generate_motion(model, ActivitySpec(activity), 4)):
                jitter = 1e-3 * (i % 2)
                got = place_reflectors(model, pose, local, jitter, i)
                want = oracle.place_reflectors_loop(model, pose, local, jitter, i)
                for name in ("positions", "reflectivities", "normals", "bone_index"):
                    assert_same_bytes(getattr(got, name), getattr(want, name))

    def test_rest_triads_made_once_and_read_only(self):
        model = make_subject(4)
        assert model.rest_triads is model.rest_triads
        with pytest.raises(ValueError):
            model.rest_triads[0][0][0] = 1.0

    @pytest.mark.parametrize("ghost_prob", [0.0, 0.5, 1.0])
    def test_to_point_cloud(self, ghost_prob):
        cfg = RadarConfig(ghost_prob=ghost_prob)
        rng = np.random.default_rng(int(ghost_prob * 10))
        n = 60
        det = np.column_stack([rng.integers(0, 302, n), rng.integers(0, 40, n),
                               rng.integers(0, 32, n), rng.exponential(size=n)]).astype(float)
        # the r = 0 bin, and cells outside the unit disk of direction cosines
        det[:3, 0] = 0.0
        det[3:6, 1:3] = [[0.0, 0.0], [39.0, 0.0], [0.0, 31.0]]
        positions = rng.uniform([-1.0, 1.5, -1.0], [1.0, 4.0, 1.0], size=(30, 3))
        refl = reflectors_at(positions)
        refl = Reflectors(refl.positions, refl.reflectivities, refl.normals,
                          rng.integers(0, 13, 30))
        for detections in (det, det[:0]):
            for reflectors in (refl, refl.subset(np.zeros(30, dtype=bool)), None):
                frame = to_point_cloud(detections, cfg, seed=3,
                                       frame_index=4, timestamp=0.5, reflectors=reflectors)
                pts, intens, prov = oracle.to_point_cloud_loop(detections, cfg, ghost_prob,
                                                               seed=3, reflectors=reflectors)
                assert_same_bytes(frame.points, pts)
                assert_same_bytes(frame.intensities, intens)
                if reflectors is None:
                    assert frame.prov_bone is None
                else:
                    assert_same_bytes(frame.prov_bone, prov)
                assert (frame.frame_index, frame.timestamp) == (4, 0.5)
