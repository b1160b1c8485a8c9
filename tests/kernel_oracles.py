"""Explicit-loop reference versions of the numeric kernels in
``milliflow._kernels``, one point or cell at a time, and the scalar
point-to-segment distance.  ``test_kernels.py`` compares the vectorised
kernels against them.

The radar stages follow, as first written: whole-array expressions that
build every temporary, and per-bone and per-detection loops.
``test_radar.py`` checks that the stages give the same bytes.

The labellers' bone motion follows, as first written: a list of one
``RigidTransform`` per bone (None for an invalid one) applied point by
point.  ``test_labeling.py`` checks that the stacked form gives the same
bytes.

The networks close the file, as first written: set abstraction on the
padded ball rows of ``ball_query_loop`` max-pooled by ``tmax``, the cost
volume on the concatenated (N, k, 2C + 3) pair input, and every first layer
on its whole input, with the rows that every point shares broadcast and
concatenated.  ``test_network_oracle.py`` checks that the block forms give
the same flows, scores and gradients to rounding.
"""

import numpy as np

from milliflow import autodiff as ad
from milliflow._kernels import farthest_point_sample
from milliflow.autodiff import Tensor
from milliflow.flownet import RESET_PERIOD, broadcast_rows, mean_flow_loss
from milliflow.geometry import RigidTransform, rotation_between
from milliflow.layers import global_pool
from milliflow.radar import (
    SPEED_OF_LIGHT,
    Reflectors,
    azimuth_cosine_axis,
    elevation_cosine_axis,
    range_axis,
)
from milliflow.skeleton import BONE_PARENT, BONES


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


# ---------------------------------------------------------------------------
# radar stages


def place_reflectors_loop(model, pose, local_coords, jitter_std=0.0, jitter_seed=0):
    """Bone by bone, with the rest triads rebuilt on each call."""
    t, psi, radial = local_coords
    n = t.shape[1]
    positions = np.empty((13 * n, 3))
    normals = np.empty((13 * n, 3))
    reflectivities = np.empty(13 * n)
    bone_index = np.empty(13 * n, dtype=np.int64)
    kp = pose.keypoints
    for b, (p, c) in enumerate(BONES):
        rest_axis = model.rest_keypoints[c] - model.rest_keypoints[p]
        rest_axis = rest_axis / np.linalg.norm(rest_axis)
        probe = np.array([1.0, 0.0, 0.0])
        if abs(rest_axis[0]) > 0.9:
            probe = np.array([0.0, 1.0, 0.0])
        rest_e1 = np.cross(rest_axis, probe)
        rest_e1 /= np.linalg.norm(rest_e1)
        rest_e2 = np.cross(rest_axis, rest_e1)
        axis = kp[c] - kp[p]
        length = np.linalg.norm(axis)
        axis = axis / length
        r = rotation_between(rest_axis, axis)
        e1, e2 = r @ rest_e1, r @ rest_e2
        radius = model.body_radius_per_bone[b] * radial[b]
        outward = np.cos(psi[b])[:, None] * e1 + np.sin(psi[b])[:, None] * e2
        sl = slice(b * n, (b + 1) * n)
        positions[sl] = kp[p] + t[b][:, None] * (length * axis) + radius[:, None] * outward
        normals[sl] = outward
        reflectivities[sl] = model.body_radius_per_bone[b] / 0.0125
        bone_index[sl] = b
    if jitter_std > 0.0:
        rng = np.random.default_rng(jitter_seed)
        positions = positions + rng.normal(0.0, jitter_std, size=positions.shape)
    return Reflectors(positions, reflectivities, normals, bone_index)


def synthesize_cube_expr(reflectors, cfg, seed=0):
    """The noise as one complex expression, sigma * (a + 1j * b)."""
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
        cube = cube + sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return cube


def clutter_removal_stack(cubes):
    """The window stacked into one array and averaged along its first axis."""
    stack = np.stack(cubes)
    return stack[-1] - stack.mean(axis=0)


def heatmap_expr(cube, cfg):
    """FFT, a shifted copy, its magnitude and the quotient, one after another."""
    p = cfg.pad_factor
    spec = np.fft.fftn(
        np.conj(cube),
        s=(p * cfg.n_az, p * cfg.n_el, p * cfg.n_freq_steps),
        axes=(0, 1, 2),
    )
    spec = np.fft.fftshift(spec, axes=(0, 1))
    mag = np.abs(spec) / (cfg.n_az * cfg.n_el * cfg.n_freq_steps)
    return mag.transpose(2, 0, 1)


def to_point_cloud_loop(detections, cfg, ghost_prob, seed, reflectors=None):
    """(points, intensities, provenance) of ``to_point_cloud``, one detection,
    one point and one ghost draw at a time."""
    ranges = range_axis(cfg)
    u_ax = azimuth_cosine_axis(cfg)
    v_ax = elevation_cosine_axis(cfg)
    pts, intens = [], []
    for rb, ab, eb, val in detections:
        r = ranges[int(rb)]
        u = u_ax[int(ab)]
        v = v_ax[int(eb)]
        w2 = 1.0 - u * u - v * v
        if w2 <= 0.0 or r <= 0.0:
            continue
        pts.append((r * u, r * np.sqrt(w2), r * v))
        intens.append(val)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    intens = np.asarray(intens, dtype=np.float64)

    prov = None
    if reflectors is not None:
        # with no reflector to come from, every point is noise
        prov = np.array(
            [reflectors.bone_index[np.argmin(((reflectors.positions - p) ** 2).sum(axis=1))]
             if len(reflectors) else -1 for p in pts],
            dtype=np.int64,
        )

    rng = np.random.default_rng(seed)
    ghost_pts, ghost_int = [], []
    for i in range(len(pts)):
        if rng.uniform() < ghost_prob:
            stretch = 1.0 + rng.uniform(0.15, 0.5)
            ghost_pts.append(pts[i] * stretch)
            ghost_int.append(intens[i] * rng.uniform(0.3, 0.7))
    if ghost_pts:
        pts = np.vstack([pts, ghost_pts])
        intens = np.concatenate([intens, ghost_int])
        if prov is not None:
            prov = np.concatenate([prov, -np.ones(len(ghost_pts), dtype=np.int64)])
    return pts, intens, prov


# ---------------------------------------------------------------------------
# labelling


def bone_transforms_list(kp_t, kp_t1, valid_bones):
    """Midpoint-anchored minimal-rotation transform per valid bone, None for
    an invalid one."""
    transforms = []
    for b, (p, c) in enumerate(BONES):
        if not valid_bones[b]:
            transforms.append(None)
            continue
        a0, b0 = kp_t.positions[p], kp_t.positions[c]
        a1, b1 = kp_t1.positions[p], kp_t1.positions[c]
        rotation = rotation_between(b0 - a0, b1 - a1)
        mid0 = 0.5 * (a0 + b0)
        mid1 = 0.5 * (a1 + b1)
        transforms.append(RigidTransform(rotation, mid1 - rotation @ mid0))
    return transforms


def true_bone_transforms_list(model, pose_t, pose_t1):
    """Exact transform per bone, one column stack of its triad at a time."""
    kp0, kp1 = pose_t.keypoints, pose_t1.keypoints
    ax0, _, e10, e20 = model.bone_frames(kp0)
    ax1, _, e11, e21 = model.bone_frames(kp1)
    out = []
    for b, p in enumerate(BONE_PARENT):
        m0 = np.column_stack([ax0[b], e10[b], e20[b]])
        m1 = np.column_stack([ax1[b], e11[b], e21[b]])
        rotation = m1 @ m0.T
        out.append(RigidTransform(rotation, kp1[p] - rotation @ kp0[p]))
    return out


def bone_flows_loop(points, bone, transforms):
    """Each point's motion under its bone's transform, point by point; zero
    where ``bone`` is -1."""
    flows = np.zeros((len(points), 3))
    for i in np.flatnonzero(bone >= 0):
        p = points[i]
        flows[i] = transforms[bone[i]].apply(p) - p
    return flows


# ---------------------------------------------------------------------------
# networks


def tmax(a, axis) -> Tensor:
    """Max reduction over `axis`; exact ties share the gradient equally."""
    out_data = a.data.max(axis=axis)

    def backward(g):
        g = np.expand_dims(g, axis)
        mask = a.data == np.expand_dims(out_data, axis)
        share = (mask / mask.sum(axis=axis, keepdims=True)).astype(a.dtype)
        a._accumulate(np.broadcast_to(g, a.shape) * share)

    return ad._make(out_data, (a,), backward)


def concat_rows(rows: Tensor, shared: Tensor) -> Tensor:
    """[rows || shared] with the one vector `shared` repeated on every row."""
    return ad.concat([rows, broadcast_rows(shared, rows.shape[0])], axis=1)


def set_abstraction_padded(mlp, points, feats, radius, n_samples, centroid_idx=None):
    """The shared MLP on every padded ball row, max-pooled by `tmax`."""
    centroids = points if centroid_idx is None else points[centroid_idx]
    idx = ball_query_loop(centroids, points, radius, n_samples)  # (N', k)
    rel = points[idx] - centroids[:, None, :]
    local = ad.concat([Tensor(rel), ad.take(feats, idx)], axis=2)
    return tmax(mlp(local), axis=1)


def encode_concat(encoder, points, feats):
    """(z = [k || g] built whole, g) of a `CloudEncoder`."""
    outs = [post(set_abstraction_padded(sa, points, feats, radius, samples))
            for sa, post, radius, samples in zip(encoder.sas, encoder.posts,
                                                 encoder.cfg.sa_radii, encoder.cfg.sa_samples)]
    k = ad.concat(outs, axis=1)
    g = global_pool(encoder.attn, k)
    return concat_rows(k, g), g


def cost_volume_concat(cv, pts_p, feats_p, pts_q, feats_q):
    """A `CostVolume` whose cost MLP reads the (N, k, 2C + 3) pair input."""
    n, m = len(pts_p), len(pts_q)
    k1 = min(cv.k, m)
    idx_q = knn_indices_loop(pts_p, pts_q, k1)
    disp = pts_q[idx_q] - pts_p[:, None, :]
    fq = ad.take(feats_q, idx_q)
    fp = ad.concat([ad.reshape(feats_p, (n, 1, -1))] * k1, axis=1)
    cost = cv.cost_mlp(ad.concat([fp, fq, Tensor(disp)], axis=2))
    w1 = ad.softmax(cv.weight_mlp1(Tensor(disp)), axis=1)
    patch_cost = ad.tsum(ad.mul(w1, cost), axis=1)
    k2 = min(cv.k, n)
    idx_p = knn_indices_loop(pts_p, pts_p, k2)
    disp2 = pts_p[idx_p] - pts_p[:, None, :]
    w2 = ad.softmax(cv.weight_mlp2(Tensor(disp2)), axis=1)
    return ad.tsum(ad.mul(w2, ad.take(patch_cost, idx_p)), axis=1)


def flow_forward_concat(model, source, target, h, steps):
    """One `FlowNet.forward`, every frame encoded afresh: (flows, final, h, steps)."""
    def inputs(frame):
        return (np.asarray(frame.points, dtype=model.dtype),
                Tensor(frame.intensities.astype(model.dtype)[:, None]))

    (pts_p, feats_p), (pts_q, feats_q) = inputs(source), inputs(target)
    z_p, _ = encode_concat(model.local, pts_p, feats_p)
    z_q, _ = encode_concat(model.local, pts_q, feats_q)
    z_c, _ = encode_concat(model.ctx, pts_p, feats_p)
    stacked = ad.concat([cost_volume_concat(model.cv, pts_p, z_p, pts_q, z_q), z_c], axis=1)
    emb = ad.concat([branch(stacked) for branch in model.embed], axis=1)
    g_b = global_pool(model.embed_attn, emb)
    h_new = model.gru(h, g_b) if model.cfg.temporal else h
    final = concat_rows(emb, h_new if model.cfg.temporal else g_b)
    flows = ad.clamp(model.regressor(final), -model.cfg.clamp, model.cfg.clamp)
    steps += 1
    if steps >= RESET_PERIOD:
        h_new, steps = model.initial_state().h, 0
    return flows, final, h_new, steps


def flow_clip_loss_concat(model, clip):
    """`flownet.clip_loss` through `flow_forward_concat`, with the flows of
    every pair; no pair of `clip` may hold an empty frame."""
    h, steps, pairs = model.initial_state().h, 0, []
    for sample in clip:
        flows, _, h, steps = flow_forward_concat(model, sample.source, sample.target, h, steps)
        pairs.append((flows, sample.label))
    return mean_flow_loss(pairs, model.cfg), [flows for flows, _ in pairs]


def har_frame_vector_concat(har, frame, feats):
    """`HarNet.frame_vector` with stage 2 on the padded rows of z built whole."""
    points = np.asarray(frame.points, dtype=har.dtype)
    z, _ = encode_concat(har.encoder, points, feats)
    start = int(np.lexsort((points[:, 2], points[:, 1], points[:, 0]))[0])
    centroid_idx = farthest_point_sample(points, min(har.cfg.fps_centroids, len(points)), start)
    pooled = set_abstraction_padded(har.stage2, points, z, har.cfg.stage2_radius,
                                    har.cfg.stage2_samples, centroid_idx)
    return global_pool(har.stage2_attn, pooled)


def har_forward_concat(har, frames, feats_list):
    """`HarNet.forward` through `har_frame_vector_concat`; no frame may be empty."""
    h = c = Tensor(np.zeros(har.cfg.lstm_hidden, dtype=har.dtype))
    for frame, feats in zip(frames, feats_list):
        h, c = har.lstm(h, c, har_frame_vector_concat(har, frame, feats))
    return har.head(h)


def hp_forward_concat(hp, frames, feats_list):
    """`HpNet.forward` with each head input [z || h] built whole; no frame
    may be empty."""
    h = Tensor(np.zeros(hp.cfg.gru_hidden, dtype=hp.dtype))
    scores = []
    for frame, feats in zip(frames, feats_list):
        z, g = encode_concat(hp.encoder, np.asarray(frame.points, dtype=hp.dtype), feats)
        h = hp.gru(h, g)
        scores.append(hp.head(concat_rows(z, h)))
    return scores
