"""Each output check of the benchmark accepts the program's output and
refuses a corrupted copy of it.

Run from the repository root:  python3 -m pytest -q benchmarks/perf/tests
"""

import dataclasses

import numpy as np
import pytest

import checks
from milliflow import flownet
from milliflow.config import GenConfig, NetConfig, RunConfig
from milliflow.dataio import Sample
from milliflow.labeling import FlowLabel, ground_truth_flow, label_frame_pair
from milliflow.pipeline import generate_sequence
from milliflow.radar import RadarFrame
from milliflow.skeleton import make_subject
from tracer import Tracer

SMALL_NET = NetConfig(sa_radii=(0.2, 0.4), sa_samples=(4, 8), sa_mlp=(8, 8),
                      post_sa_mlp=(8, 8), attention_hidden=8, cv_k=4, cv_dcost=8,
                      embed_mlp=(16, 8), gru_hidden=8, regressor=(16, 3))


@pytest.fixture(scope="module")
def sequence():
    cfg = RunConfig(gen=GenConfig(n_subjects=1, n_scenes=1, frames_per_sequence=4,
                                  in_set=("ArmSwing",), out_of_set=()))
    seq = generate_sequence(cfg, 0, "ArmSwing", 0)
    model = make_subject(0)
    exact = [ground_truth_flow(seq.frames[i], seq.poses[i], seq.poses[i + 1], model)
             for i in range(seq.n_samples)]
    pseudo = [label_frame_pair(seq.frames[i], seq.observed_kps[i], seq.observed_kps[i + 1])
              for i in range(seq.n_samples)]
    poses = [p.keypoints for p in seq.poses]
    return seq, poses, exact, pseudo


def _replace(labels, i, **fields):
    out = list(labels)
    out[i] = dataclasses.replace(out[i], **fields)
    return out


# ----------------------------------------------------------------------
# gen


def test_exact_labels_accepted(sequence):
    seq, poses, exact, _ = sequence
    assert checks.check_exact_labels(seq.frames, poses, exact) < 1e-12


def test_flipped_flow_sign_refused(sequence):
    seq, poses, exact, _ = sequence
    bad = _replace(exact, 1, flows=-exact[1].flows)
    with pytest.raises(checks.CheckFailed, match="off its bone"):
        checks.check_exact_labels(seq.frames, poses, bad)


def test_shuffled_labels_refused(sequence):
    seq, poses, exact, _ = sequence
    perm = np.random.default_rng(0).permutation(len(exact[0]))
    bad = _replace(exact, 0, flows=exact[0].flows[perm])
    with pytest.raises(checks.CheckFailed, match="off its bone"):
        checks.check_exact_labels(seq.frames, poses, bad)


def test_valid_ghost_refused(sequence):
    seq, poses, exact, _ = sequence
    i = next(i for i, f in enumerate(seq.frames[:-1]) if np.any(f.prov_bone < 0))
    valid = exact[i].valid_mask | (seq.frames[i].prov_bone < 0)
    with pytest.raises(checks.CheckFailed, match="ghost"):
        checks.check_exact_labels(seq.frames, poses, _replace(exact, i, valid_mask=valid))


def test_dropped_label_and_row_refused(sequence):
    seq, poses, exact, _ = sequence
    with pytest.raises(checks.CheckFailed, match="labels"):
        checks.check_label_rows(seq.frames, exact[:-1])
    short = _replace(exact, 0, segment_label=exact[0].segment_label[:-1])
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_label_rows(seq.frames, short)


def test_label_epe(sequence):
    _, _, exact, pseudo = sequence
    assert checks.label_epe(exact, exact)[0] == 0.0
    epe, points = checks.label_epe(pseudo, exact)
    assert epe > 0 and points > 0
    flipped = [dataclasses.replace(l, flows=-l.flows) for l in exact]
    assert checks.label_epe(flipped, exact)[0] > epe


def test_bone_distances_of_points_on_and_off_the_body(sequence):
    _, poses, _, _ = sequence
    kp = poses[0]
    on = 0.5 * (kp[1] + kp[0])[None]  # midpoint of the neck-head bone
    assert checks.bone_distances(on, kp)[0] < 1e-12
    assert checks.bone_distances(on + [[0.0, 5.0, 0.0]], kp)[0] > 4.0


# ----------------------------------------------------------------------
# train


def _synthetic_clip(seed: int, n: int = 20, length: int = 2):
    rng = np.random.default_rng(seed)
    frames = [RadarFrame(rng.uniform(-0.3, 0.3, (n, 3)) + [0, 3, 0],
                         rng.uniform(0.6, 2.0, n), t, t / 13.2)
              for t in range(length + 1)]
    labels = [FlowLabel(rng.normal(0, 0.03, (n, 3)), np.ones(n, bool),
                        np.zeros(n, np.int64), np.zeros(n, np.int64))
              for _ in range(length)]
    return [Sample(frames[t], frames[t + 1], labels[t], t) for t in range(length)]


def test_finite_losses():
    rows = [{"epoch": 0, "train_loss": 0.1, "val_epe3d": 0.2}]
    assert checks.check_finite_losses(rows, rows) == 1
    nan = [dict(rows[0], train_loss=float("nan"))]
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.check_finite_losses(nan, nan)
    with pytest.raises(checks.CheckFailed, match="log holds"):
        checks.check_finite_losses(rows + rows, rows)
    with pytest.raises(checks.CheckFailed, match="logged"):
        checks.check_finite_losses(rows, [dict(rows[0], train_loss=0.2)])


def test_gradient_check_refuses_perturbed_gradient():
    model = flownet.FlowNet(SMALL_NET, seed=3, dtype=np.float64)
    params = model.named_params()
    clip = _synthetic_clip(0)
    flownet.clip_loss(model, clip).backward()
    picks = [(name, int(np.argmax(np.abs(params[name].grad))))
             for name in ("reg.b1", "reg.w0", "cv.cost.b1")]
    analytic = np.array([params[n].grad.reshape(-1)[i] for n, i in picks])
    numeric = checks.central_differences(
        lambda: float(flownet.clip_loss(model, clip).data), params, picks)
    assert checks.check_gradients(numeric, analytic) < 1e-4
    for bad in (analytic * (1 + 1e-3), -analytic, analytic + [0, 0, 1e-4]):
        with pytest.raises(checks.CheckFailed, match="autodiff"):
            checks.check_gradients(numeric, bad)
    with pytest.raises(checks.CheckFailed, match="sees nothing"):
        checks.check_gradients(np.zeros(3), np.zeros(3))


def test_bitwise():
    a = [np.array([[0.1, 0.2, 0.3]]), None]
    assert checks.check_bitwise(a, [x if x is None else x.copy() for x in a]) == 2
    nudged = np.nextafter(a[0], 1.0)
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_bitwise(a, [nudged, None])
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_bitwise(a, [a[0], a[0]])
    with pytest.raises(checks.CheckFailed, match="predictions vs"):
        checks.check_bitwise(a, a[:1])


def test_frame_mean_epe_and_agreement():
    clip = _synthetic_clip(1)
    labels = [s.label for s in clip]
    exact = [l.flows for l in labels]
    assert checks.frame_mean_epe(exact, labels) == 0.0
    zero = [np.zeros_like(f) for f in exact]
    epe = checks.frame_mean_epe(zero + [None], labels + [labels[0]])
    assert epe == pytest.approx(np.mean([np.linalg.norm(f, axis=1).mean() for f in exact]))
    assert checks.check_close(epe, epe * (1 + 1e-9), "epe") == epe
    with pytest.raises(checks.CheckFailed, match="program reports"):
        checks.check_close(epe, epe * 1.01, "epe")
    with pytest.raises(checks.CheckFailed, match="flows for"):
        checks.frame_mean_epe([exact[0][:-1]], labels[:1])


# ----------------------------------------------------------------------
# sense


@pytest.fixture(scope="module")
def stream():
    clip = _synthetic_clip(2, length=3)
    frames = [clip[0].source, clip[1].source,
              RadarFrame(np.zeros((0, 3)), np.zeros(0), 2, 2 / 13.2), clip[2].target]
    model = flownet.FlowNet(SMALL_NET, seed=1)
    records, _ = flownet.infer_sequence(model, frames)
    return model, frames, records


def test_stream_records_accepted(stream):
    model, frames, records = stream
    sizes = [len(f) for f in frames]
    assert checks.check_stream_records(records, sizes, model.cfg.clamp) == 2


def test_dropped_record_refused(stream):
    model, frames, records = stream
    with pytest.raises(checks.CheckFailed, match="records"):
        checks.check_stream_records(records[:-1], [len(f) for f in frames], model.cfg.clamp)


def test_misplaced_placeholder_refused(stream):
    model, frames, records = stream
    sizes = [len(f) for f in frames]
    bad = [dict(r) for r in records]
    bad[1]["placeholder"] = False
    with pytest.raises(checks.CheckFailed, match="placeholder"):
        checks.check_stream_records(bad, sizes, model.cfg.clamp)
    with pytest.raises(checks.CheckFailed, match="placeholder"):
        checks.check_stream_records(records, [sizes[0], sizes[1], 5, sizes[3]],
                                    model.cfg.clamp)


@pytest.mark.parametrize("corrupt", [
    lambda f: f + 0.2,  # outside the clamp
    lambda f: np.where(np.arange(len(f))[:, None] == 0, np.nan, f),
    lambda f: f[:-1],
])
def test_bad_flows_refused(stream, corrupt):
    model, frames, records = stream
    bad = [dict(r) for r in records]
    bad[0]["flows"] = corrupt(bad[0]["flows"])
    with pytest.raises(checks.CheckFailed):
        checks.check_stream_records(bad, [len(f) for f in frames], model.cfg.clamp)


@pytest.mark.parametrize("corrupt, match", [
    (lambda f: None, "no prediction"),
    (lambda f: f[:-1], "shape"),
    (lambda f: -10 * f, "clamp"),
    (lambda f: np.where(np.arange(len(f))[:, None] == 0, np.inf, f), "non-finite"),
])
def test_check_flows(stream, corrupt, match):
    model, frames, records = stream
    flows = records[0]["flows"]
    assert checks.check_flows(flows, len(frames[0]), model.cfg.clamp) is not None
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_flows(corrupt(flows), len(frames[0]), model.cfg.clamp)


def test_clip_count():
    # an empty frame drops the pairs on either side of it and breaks the run
    assert checks.clip_count([5] * 6, 5) == 1
    assert checks.clip_count([5] * 11, 5) == 2
    assert checks.clip_count([5, 5, 5, 0, 5, 5, 5, 5, 5, 5], 5) == 1
    assert checks.clip_count([5, 5, 0, 5, 5, 5, 5, 5], 5) == 0
    assert checks.clip_count([], 5) == 0


def test_kept_results_restores_the_name(stream):
    import workloads

    model, frames, _ = stream
    original = flownet.infer_sequence
    with workloads.kept_results(flownet, "infer_sequence") as calls:
        records, _ = flownet.infer_sequence(model, frames[:2])
    assert flownet.infer_sequence is original
    assert len(calls) == 1 and calls[0][1] is records


def test_permutation(stream):
    model, frames, _ = stream
    source, target = frames[0], frames[1]
    net = model.cfg
    assert not checks.selection_ties(source.points, net.sa_radii, net.sa_samples, net.cv_k)
    perm = np.random.default_rng(0).permutation(len(source))
    plain, _ = flownet.infer_sequence(model, [source, target])
    permuted, _ = flownet.infer_sequence(model, [source.subset(perm), target])
    assert checks.check_permutation(plain[0]["flows"], permuted[0]["flows"], perm) <= 1e-6
    with pytest.raises(checks.CheckFailed, match="permuted"):
        checks.check_permutation(plain[0]["flows"], permuted[0]["flows"][::-1], perm)


def test_selection_ties_found_on_mirrored_points():
    # two points mirrored about the first one tie at every selection size
    pts = np.array([[0.0, 3.0, 0.0], [0.05, 3.0, 0.0], [-0.05, 3.0, 0.0],
                    [0.0, 3.3, 0.2], [0.3, 3.1, -0.2]])
    assert checks.selection_ties(pts, (0.1,), (2,), 4)
    assert checks.selection_ties(np.vstack([pts[:1], pts]), (1.0,), (8,), 8)
    assert not checks.selection_ties(pts[[0, 1, 3, 4]], (0.1,), (2,), 3)


def test_count():
    assert checks.check_count(3, 3, "clips") == 3
    with pytest.raises(checks.CheckFailed, match="clips"):
        checks.check_count(2, 3, "clips")


# ----------------------------------------------------------------------
# tracer


def test_tracer_records_self_time_and_restores_names(stream):
    import milliflow.flownet as fn
    import milliflow.layers as layers

    original = (layers.ball_query, layers.MLP.__call__, fn.FlowNet.forward)
    model, frames, _ = stream
    tracer = Tracer()
    tracer.install()
    try:
        flownet.infer_sequence(model, frames[:2])
    finally:
        tracer.uninstall()
    assert (layers.ball_query, layers.MLP.__call__, fn.FlowNet.forward) == original
    self_s, calls = tracer.self_times(), tracer.calls_in_round(0)
    assert calls["flownet.forward"] == 1
    assert calls["layers.ball_query"] == 3 * len(SMALL_NET.sa_radii)
    spans = {name: end - start for name, start, end, parent, _ in tracer.spans
             if parent < 0}
    assert list(spans) == ["flownet.forward"]
    assert 0 < self_s["flownet.forward"] < spans["flownet.forward"]
    assert sum(self_s.values()) == pytest.approx(tracer.covered_seconds())
