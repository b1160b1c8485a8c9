import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import MISFITS, misfit

import milliflow
from milliflow.autodiff import Tensor
from milliflow.cli import main
from milliflow.downstream import load_task_model
from milliflow.flownet import load_flow_model
from milliflow.layers import load_checkpoint, save_checkpoint

CONFIG = {
    "gen": {
        "n_subjects": 3,
        "n_scenes": 1,
        "frames_per_sequence": 12,
        "in_set": ["ArmSwing", "Bowing"],
        "out_of_set": [],
    },
    "task": {"window": 4, "fps_centroids": 8},
    "train": {"epochs": 1, "batch_clips": 4},
    "explicit_split": {"train": [0], "val": [1], "test": [2]},
    "seed": 3,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    data = root / "ds"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["label", "--data", str(data)]) == 0
    return root


@pytest.fixture(scope="module")
def dataset(workdir):
    return str(workdir / "ds")


@pytest.fixture(scope="module")
def flow_ckpt(workdir, dataset):
    ckpt = workdir / "flow.ckpt"
    assert main(["train", "--task", "flow", "--data", dataset,
                 "--ckpt", str(ckpt)]) == 0
    return str(ckpt)


@pytest.fixture(scope="module")
def har_ckpt(workdir, dataset):
    ckpt = workdir / "har.ckpt"
    assert main(["train", "--task", "har", "--data", dataset,
                 "--ckpt", str(ckpt)]) == 0
    return str(ckpt)


@pytest.fixture(scope="module")
def har_s1_ckpt(workdir, dataset, flow_ckpt):
    ckpt = workdir / "har_s1.ckpt"
    assert main(["train", "--task", "har", "--strategy", "s1", "--flow-ckpt", flow_ckpt,
                 "--data", dataset, "--ckpt", str(ckpt)]) == 0
    return str(ckpt)


class TestGen:
    def test_manifest_and_frame_counts(self, workdir, dataset):
        manifest = json.loads((workdir / "ds" / "manifest.json").read_text())
        assert manifest["config"]["gen"]["frames_per_sequence"] == 12
        assert manifest["config"]["seed"] == 3
        assert manifest["split"]["test_subjects"] == [2]
        in_set = sum(s["n_frames"] for s in manifest["sequences"] if s["in_set"])
        assert in_set == 3 * 2 * 12

    def test_rerun_byte_identical(self, workdir):
        out = workdir / "ds_again"
        assert main(["gen", "--config", str(workdir / "config.json"),
                     "--out", str(out)]) == 0
        a = (workdir / "ds" / "manifest.json").read_bytes()
        assert (out / "manifest.json").read_bytes() == a
        rel = "seq_002_ArmSwing_00/frames.jsonl"
        assert ((out / rel).read_bytes()
                == (workdir / "ds" / rel).read_bytes())

    def test_seed_flag_overrides_config(self, workdir, tmp_path):
        out = tmp_path / "seeded"
        cfg = dict(CONFIG)
        cfg["gen"] = dict(CONFIG["gen"], frames_per_sequence=3,
                          in_set=["ArmSwing"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(path), "--out", str(out),
                     "--seed", "11"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["seed"] == 11

    def test_regenerating_a_labelled_dataset_drops_its_labels(self, tmp_path):
        # a rewritten sequence's old labels describe other frames: left in
        # place, they made `label`, `eval` and `train` refuse the dataset
        cfg = dict(CONFIG, gen=dict(CONFIG["gen"], frames_per_sequence=6, in_set=["ArmSwing"]))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["gen", "--config", str(path), "--out", str(reused), "--seed", "1"]) == 0
        assert main(["label", "--data", str(reused)]) == 0
        assert main(["gen", "--config", str(path), "--out", str(reused), "--seed", "2"]) == 0
        assert not list(reused.rglob("labels.jsonl"))
        assert not (reused / "label_summary.json").exists()
        assert main(["gen", "--config", str(path), "--out", str(fresh), "--seed", "2"]) == 0
        reports = []
        for data in (reused, fresh):
            assert main(["label", "--data", str(data)]) == 0
            out = tmp_path / f"{data.name}.json"
            assert main(["eval", "--task", "flow", "--data", str(data), "--oracle",
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"nosuchsection": {}}))
        assert main(["gen", "--config", str(unknown),
                     "--out", str(tmp_path / "y")]) == 2

    def test_bad_cfar_config_exits_2_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "cfar.json"
        bad.write_text(json.dumps(dict(CONFIG, radar={"cfar": {"train_cells": 0}})))
        out = tmp_path / "ds"
        assert main(["gen", "--config", str(bad), "--out", str(out)]) == 2
        assert "train_cells" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"explicit_split": [0, 1, 2]},
        {"explicit_split": {"train": [0, 1], "val": [1], "test": [2]}},
        {"explicit_split": {"train": [0], "val": [], "test": [2]}},
        {"seed": 3.7},
        {"gen": dict(CONFIG["gen"], in_set=["ArmSwing", "Jumping"])},
        {"gen": dict(CONFIG["gen"], out_of_set=["Bowing"])},
        # sizes that a later stage cannot use
        {"net": {"regressor": []}},
        {"net": {"cv_k": 0}},
        {"radar": {"pad_factor": 0}},
        {"radar": {"n_az": 0}},
        {"radar": {"n_el": 0}},
        # values that a later stage refused after writing, or misread
        {"gen": dict(CONFIG["gen"], frame_rate=0)},
        {"radar": {"ghost_prob": 2.0}},
        {"radar": {"reflectors_per_bone": 0}},
        {"radar": {"f_min": -1}},
        # ranges a scene draws from, each usable for every seed
        {"gen": dict(CONFIG["gen"], distance_range=[1.0, 5.0])},
        {"gen": dict(CONFIG["gen"], period_range=[2.4, 1.6])},
        {"gen": dict(CONFIG["gen"], amplitude_range=[0.5, 0.7, 0.9])},
        # layer widths below 1, probabilities outside [0, 1], negative spreads
        {"net": {"attention_hidden": 0}},
        {"net": {"cv_dcost": 0}},
        {"net": {"gru_hidden": 0}},
        {"task": {"lstm_hidden": 0}},
        {"task": {"classifier": [0]}},
        {"task": {"gru_hidden": 0}},
        {"gen": dict(CONFIG["gen"], kp_noise_std=-0.1)},
        {"gen": dict(CONFIG["gen"], kp_dropout=2.0)},
        {"radar": {"micro_motion_std": -1.0}},
        # an angle that the cosine would read as another one
        {"radar": {"visibility_half_angle": -1.0}},
        {"radar": {"visibility_half_angle": 3.5}},
        # numbers that are not finite, and a field that no longer exists
        {"radar": {"f_max": float("nan")}},
        {"net": {"clamp": float("nan")}},
        {"radar": {"cfar": {"scale_factor": float("inf")}}},
        {"net": {"clamp": 10**400}},  # an integer that no float holds
        {"net": {"input_features": 2}},
        {"seed": -1},
    ])
    def test_malformed_config_exits_2_before_writing(self, tmp_path, capsys, change):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CONFIG, **change)))
        out = tmp_path / "ds"
        assert main(["gen", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_exits_2(self, workdir, tmp_path, capsys, workers):
        out = tmp_path / "ds"
        assert main(["gen", "--config", str(workdir / "config.json"), "--out", str(out),
                     "--workers", workers]) == 2
        assert "worker" in capsys.readouterr().err
        assert not out.exists()


class TestLabel:
    def test_summary_written(self, workdir):
        summary = json.loads((workdir / "ds" / "label_summary.json").read_text())
        assert summary["n_sequences"] == 6
        assert 0.0 < summary["valid_ratio"] <= 1.0
        assert summary["config"]["gen"]["n_subjects"] == 3  # config echo

    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["label", "--data", str(tmp_path / "nowhere")]) == 3

    @pytest.mark.parametrize("command", ["train", "eval", "track"])
    @pytest.mark.parametrize("with_config", [False, True])
    def test_missing_dataset_exits_3_for_every_command(self, workdir, tmp_path, capsys,
                                                       command, with_config):
        nowhere = tmp_path / "nowhere"
        args = {"train": ["train", "--task", "flow", "--ckpt", str(tmp_path / "flow.ckpt")],
                "eval": ["eval", "--task", "flow", "--oracle"],
                "track": ["track", "--oracle"]}[command] + ["--data", str(nowhere)]
        if with_config:
            args += ["--config", str(workdir / "config.json")]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err == f"error: no dataset manifest at {nowhere / 'manifest.json'}\n"

    @pytest.mark.parametrize("cut", ["record", "line"])
    def test_cut_frame_file_exits_2(self, dataset, tmp_path, capsys, cut):
        # a cut inside a record is malformed JSON; a cut between records of
        # an unlabelled sequence disagrees with the manifest's frame count
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        seq_dir = next(data.glob("seq_*"))
        (seq_dir / "labels.jsonl").unlink()
        frames = seq_dir / "frames.jsonl"
        whole = frames.read_bytes()
        end = whole.index(b"\n") + 1
        frames.write_bytes(whole[: end // 2] if cut == "record" else whole[:end])
        assert main(["label", "--data", str(data)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("change", ["13 keypoints", "rows of 5"])
    def test_frame_of_another_shape_exits_2(self, dataset, tmp_path, capsys, change):
        # 13 keypoints, with a pose of 13 joints, stop the labeller; in an
        # unlabelled sequence, a frame without provenance has nothing else
        # that counts its points, so 184 rows of 5 could be read as 230 points
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        seq_dir = data / "seq_000_ArmSwing_00"
        (seq_dir / "labels.jsonl").unlink()
        frames = seq_dir / "frames.jsonl"
        first, rest = frames.read_text().split("\n", 1)
        rec = json.loads(first)
        if change == "13 keypoints":
            rec["keypoints"], rec["pose_gt"] = rec["keypoints"][:13], rec["pose_gt"][:13]
        else:
            del rec["bone_prov"]
            rec["points"] = [[0.0, 2.0, 0.0, 1.0, 1.0]] * 184
        frames.write_text(json.dumps(rec) + "\n" + rest)
        assert main(["label", "--data", str(data)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {frames}: malformed record: ")

    def test_bone_provenance_out_of_range_exits_2(self, dataset, tmp_path, capsys):
        # subject 2 is the test split, whose exact labels read the provenance
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        frames = data / "seq_002_ArmSwing_00" / "frames.jsonl"
        first, rest = frames.read_text().split("\n", 1)
        rec = json.loads(first)
        rec["bone_prov"][0] = 99
        frames.write_text(json.dumps(rec) + "\n" + rest)
        assert main(["label", "--data", str(data)]) == 2
        assert "bone_prov holds a value outside [-1, 12]" in capsys.readouterr().err

    def test_label_mask_of_another_kind_exits_2(self, dataset, tmp_path, capsys):
        # numpy would read a stored 7 as True; subject 2 is the test split
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        labels = data / "seq_002_ArmSwing_00" / "labels.jsonl"
        first, rest = labels.read_text().split("\n", 1)
        rec = json.loads(first)
        rec["valid"][0] = 7
        labels.write_text(json.dumps(rec) + "\n" + rest)
        assert main(["eval", "--task", "flow", "--data", str(data), "--oracle"]) == 2
        assert "valid holds a value that is not a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["label", "train"])
    def test_frame_index_not_an_integer_exits_2(self, dataset, tmp_path, capsys, command):
        # a frame_index of 2.7 would be read as frame 2, and clips are cut
        # at gaps in frame_index
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        for frames in data.glob("seq_*/frames.jsonl"):
            first, rest = frames.read_text().split("\n", 1)
            rec = json.loads(first)
            rec["frame_index"] = 2.7
            frames.write_text(json.dumps(rec) + "\n" + rest)
        ckpt = tmp_path / "flow.ckpt"
        args = {"label": ["label"],
                "train": ["train", "--task", "flow", "--ckpt", str(ckpt)]}[command]
        assert main(args + ["--data", str(data)]) == 2
        assert "frame_index 2.7 is not an integer" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", [
        ["eval", "--task", "flow", "--oracle"], ["eval", "--task", "flow", "--baseline", "zero"],
        ["track", "--oracle"],
    ])
    @pytest.mark.parametrize("name, key, literal", [
        ("labels.jsonl", "flows", "NaN"), ("frames.jsonl", "points", "Infinity"),
    ])
    def test_non_finite_stored_number_exits_2(self, dataset, tmp_path, capsys, command,
                                              name, key, literal):
        # Python's json reads NaN and Infinity; subject 2 is the test split
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        path = data / "seq_002_ArmSwing_00" / name
        first, rest = path.read_text().split("\n", 1)
        rec = json.loads(first)
        rec[key][0][0] = "@"
        path.write_text(json.dumps(rec).replace('"@"', literal) + "\n" + rest)
        assert main(command + ["--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: malformed record: {key} holds a value "
                              f"that is not finite")

    def test_cut_manifest_exits_2(self, dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = data / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:100])
        assert main(["eval", "--task", "flow", "--data", str(data), "--oracle"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_manifest_config_value_of_wrong_type_exits_2(self, dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = data / "manifest.json"
        content = json.loads(manifest.read_text())
        content["config"]["net"]["sa_radii"] = 5
        manifest.write_text(json.dumps(content))
        assert main(["eval", "--task", "flow", "--data", str(data), "--oracle"]) == 2
        assert "bad NetConfig value" in capsys.readouterr().err

    def test_frames_bin_alone_exits_2(self, dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        seq_dir = data / "seq_002_ArmSwing_00"
        (seq_dir / "labels.jsonl").unlink()
        (seq_dir / "frames.jsonl").rename(seq_dir / "frames.bin")
        assert main(["eval", "--task", "flow", "--data", str(data), "--oracle"]) == 2
        assert "no frame data under" in capsys.readouterr().err

    def test_merged_label_integers_exit_2(self, dataset, tmp_path, capsys):
        # a "," flipped to "." merges two bone indices into one float
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        labels = data / "seq_002_ArmSwing_00" / "labels.jsonl"
        whole = labels.read_bytes()
        at = whole.index(b",", whole.index(b'"bone":['))
        labels.write_bytes(whole[:at] + b"." + whole[at + 1:])
        assert main(["eval", "--task", "flow", "--data", str(data), "--oracle"]) == 2
        assert "bone of shape" in capsys.readouterr().err

    def test_manifest_without_keys_exits_2(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{}")
        assert main(["label", "--data", str(tmp_path)]) == 2
        assert "not a dataset manifest" in capsys.readouterr().err


class TestConfigKinds:
    @pytest.mark.parametrize("net", [
        {"sa_mlp": [32, 32, 64.5]}, {"gru_hidden": "256"}, {"cv_k": 8.0},
        {"cv_weight_hidden": [8.8]}, {"temporal": 1},
    ])
    def test_wrong_typed_net_value_exits_2(self, dataset, tmp_path, capsys, net):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CONFIG, net=net)))
        ckpt = tmp_path / "flow.ckpt"
        assert main(["train", "--task", "flow", "--data", dataset, "--config", str(bad),
                     "--ckpt", str(ckpt)]) == 2
        assert "bad NetConfig value" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_wrong_typed_checkpoint_config_exits_2(self, dataset, flow_ckpt, tmp_path,
                                                   capsys):
        # one flipped bit turns the "," of [8,8] into "."
        whole = Path(flow_ckpt).read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(whole.replace(b'"cv_weight_hidden":[8,8]',
                                      b'"cv_weight_hidden":[8.8]', 1))
        assert bad.read_bytes() != whole
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", str(bad)]) == 2
        assert "malformed checkpoint config" in capsys.readouterr().err


class TestEvalFlow:
    def test_oracle_epe_zero(self, dataset, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--oracle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["epe3d"]["all"] == 0.0
        assert report["acc3d"]["strict"] == 1.0
        assert report["config"]["seed"] == 3  # config echo

    def test_baseline_report(self, dataset, tmp_path):
        out = tmp_path / "zero.json"
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--baseline", "zero", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["epe3d"]["all"] > 0.0

    def test_model_eval_prints_latency(self, dataset, flow_ckpt, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", flow_ckpt, "--out", str(out)]) == 0
        assert "latency" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert set(report["epe3d"]) == {"all", "moving", "static"}

    def test_report_reruns_byte_identical(self, dataset, tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["eval", "--task", "flow", "--data", dataset,
                         "--oracle", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_checkpoint_exits_4(self, dataset, tmp_path):
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", str(tmp_path / "none.ckpt")]) == 4

    def test_truncated_checkpoint_exits_2(self, dataset, flow_ckpt, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        whole = Path(flow_ckpt).read_bytes()
        cut.write_bytes(whole[: len(whole) // 2])
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", str(cut)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("header", [
        b"{}", b"{not json",
        b'{"format_version":1,"config":{},"params":[{"name":"w","shape":[true,3]}]}',
    ])
    def test_malformed_checkpoint_header_exits_2(self, dataset, tmp_path, capsys, header):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"MFLW" + struct.pack("<I", len(header)) + header)
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", str(bad)]) == 2
        assert "malformed checkpoint header" in capsys.readouterr().err

    def test_flow_config_without_net_exits_2(self, dataset, flow_ckpt, tmp_path, capsys):
        values, config = load_checkpoint(flow_ckpt)
        del config["net"]
        bad = tmp_path / "no_net.ckpt"
        save_checkpoint(bad, values, config=config)
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", str(bad)]) == 2
        assert "malformed checkpoint config" in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", ["float16", "complex64", "int64"])
    def test_checkpoint_dtype_other_than_float32_or_float64_exits_2(
            self, dataset, flow_ckpt, har_ckpt, tmp_path, capsys, dtype):
        for task, ckpt in (("flow", flow_ckpt), ("har", har_ckpt)):
            values, config = load_checkpoint(ckpt)
            bad = tmp_path / f"{task}.ckpt"
            save_checkpoint(bad, values, config=dict(config, dtype=dtype))
            assert main(["eval", "--task", task, "--data", dataset,
                         "--ckpt", str(bad)]) == 2
            assert "unsupported model dtype" in capsys.readouterr().err

    @pytest.mark.parametrize("change", MISFITS)
    def test_checkpoint_values_that_do_not_fit_exit_2(self, dataset, flow_ckpt, har_ckpt,
                                                      tmp_path, capsys, change):
        # har_ckpt is a raw checkpoint, so a flow entry in it is never read
        for task, ckpt in (("flow", flow_ckpt), ("har", har_ckpt)):
            values, config = load_checkpoint(ckpt)
            bad = tmp_path / f"{task}.ckpt"
            save_checkpoint(bad, misfit(values, change), config=config)
            assert main(["eval", "--task", task, "--data", dataset,
                         "--ckpt", str(bad)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_no_model_and_no_oracle_exits_2(self, dataset):
        assert main(["eval", "--task", "flow", "--data", dataset]) == 2

    @pytest.mark.parametrize("sources", [
        ["--oracle", "--baseline", "zero"],
        ["--baseline", "zero", "--ckpt", "/nonexistent.ckpt"],
        ["--oracle", "--ckpt", "/nonexistent.ckpt"],
    ])
    def test_two_flow_sources_exit_2(self, dataset, tmp_path, capsys, sources):
        out = tmp_path / "report.json"
        assert main(["eval", "--task", "flow", "--data", dataset, "--out", str(out)]
                    + sources) == 2
        assert "exactly one of --oracle, --baseline or --ckpt" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_flow_artifacts(self, workdir, dataset, flow_ckpt):
        ckpt = Path(flow_ckpt)
        assert ckpt.exists()
        log_rows = [json.loads(line) for line in
                    ckpt.with_suffix(".ckpt.log.jsonl").read_text().splitlines()]
        assert set(log_rows[0]) == {"epoch", "train_loss", "val_epe3d", "lr"}
        sidecar = json.loads(Path(str(ckpt) + ".manifest.json").read_text())
        assert sidecar["task"] == "flow"
        assert sidecar["config"]["train"]["epochs"] == 1  # config echo

    def test_non_finite_loss_exits_2(self, dataset, tmp_path, capsys, monkeypatch):
        import milliflow.flownet as flownet

        monkeypatch.setattr(flownet, "clip_loss",
                            lambda model, clip: Tensor(np.array(np.nan, np.float32)))
        ckpt = tmp_path / "nan.ckpt"
        assert main(["train", "--task", "flow", "--data", dataset,
                     "--ckpt", str(ckpt)]) == 2
        assert "loss is nan" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_epochs_flag_overrides_config(self, workdir, dataset, tmp_path):
        ckpt = tmp_path / "two.ckpt"
        assert main(["train", "--task", "flow", "--data", dataset,
                     "--ckpt", str(ckpt), "--epochs", "2"]) == 0
        rows = (tmp_path / "two.ckpt.log.jsonl").read_text().splitlines()
        assert len(rows) == 2

    def test_har_and_confusion_csv(self, workdir, dataset, har_ckpt, tmp_path):
        out = tmp_path / "har.json"
        assert main(["eval", "--task", "har", "--data", dataset,
                     "--ckpt", har_ckpt, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["oa"] <= 1.0
        csv_lines = (tmp_path / "har.confusion.csv").read_text().splitlines()
        assert csv_lines[0] == "truth\\prediction,ArmSwing,Bowing"
        assert len(csv_lines) == 3

    def test_hp_round_trip(self, workdir, dataset, tmp_path):
        ckpt = tmp_path / "hp.ckpt"
        assert main(["train", "--task", "hp", "--data", dataset,
                     "--ckpt", str(ckpt)]) == 0
        out = tmp_path / "hp.json"
        assert main(["eval", "--task", "hp", "--data", dataset,
                     "--ckpt", str(ckpt), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"oa", "miou", "n_points"} <= set(report)

    def test_s1_needs_flow_ckpt(self, dataset, tmp_path):
        assert main(["train", "--task", "har", "--strategy", "s1",
                     "--data", dataset, "--ckpt", str(tmp_path / "x.ckpt")]) == 2

    def test_s1_round_trip(self, dataset, har_s1_ckpt):
        # evaluating under a different strategy is refused
        assert main(["eval", "--task", "har", "--strategy", "raw",
                     "--data", dataset, "--ckpt", har_s1_ckpt]) == 5
        # the checkpoint holds its flow model, so eval needs no flow flag
        assert main(["eval", "--task", "har", "--strategy", "s1",
                     "--data", dataset, "--ckpt", har_s1_ckpt]) == 0

    def test_s1_checkpoint_stores_its_flow_model(self, flow_ckpt, har_s1_ckpt):
        _, config = load_checkpoint(har_s1_ckpt)
        assert config["flow"] == load_checkpoint(flow_ckpt)[1]
        _, strategy, flow_model = load_task_model(har_s1_ckpt, task="har")
        assert strategy == "s1"
        expected = load_flow_model(flow_ckpt).named_params()
        got = flow_model.named_params()
        assert sorted(got) == sorted(expected)
        for name, t in expected.items():
            assert got[name].data.tobytes() == t.data.tobytes()

    def test_eval_takes_no_flow_checkpoint(self, dataset, flow_ckpt, har_s1_ckpt):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--task", "har", "--strategy", "s1", "--flow-ckpt", flow_ckpt,
                  "--data", dataset, "--ckpt", har_s1_ckpt])
        assert e.value.code == 2

    def test_s1_checkpoint_without_its_flow_model_exits_2(self, dataset, har_s1_ckpt,
                                                           tmp_path, capsys):
        # the layout s1 checkpoints had before they stored their flow model
        values, config = load_checkpoint(har_s1_ckpt)
        old = tmp_path / "old_s1.ckpt"
        save_checkpoint(old, {k: v for k, v in values.items() if not k.startswith("flow.")},
                        config={k: v for k, v in config.items() if k != "flow"})
        assert main(["eval", "--task", "har", "--strategy", "s1",
                     "--data", dataset, "--ckpt", str(old)]) == 2
        assert "malformed checkpoint config: KeyError('flow')" in capsys.readouterr().err

    def test_sidecar_records_the_trained_strategy(self, flow_ckpt, har_ckpt):
        # har_ckpt is trained without --strategy, so with the default raw
        for ckpt, strategy in ((flow_ckpt, None), (har_ckpt, "raw")):
            sidecar = json.loads(Path(ckpt + ".manifest.json").read_text())
            assert sidecar["strategy"] == strategy

    @pytest.mark.parametrize("case, code", [
        ("no dataset", 3), ("no flow checkpoint", 4), ("strategy for flow", 2),
        ("zero lr", 2), ("negative lr", 2), ("zero attention width", 2),
        ("zero lstm width", 2), ("nan clamp", 2), ("one activity", 2),
    ])
    def test_refused_run_makes_no_directory(self, workdir, dataset, tmp_path, capsys,
                                            case, code):
        flags = {
            "no dataset": ["--task", "flow", "--data", str(tmp_path / "nowhere")],
            "no flow checkpoint": ["--task", "har", "--strategy", "s1", "--data", dataset,
                                   "--flow-ckpt", str(tmp_path / "nope.ckpt")],
            "strategy for flow": ["--task", "flow", "--strategy", "s1", "--data", dataset],
            "zero lr": ["--task", "flow", "--data", dataset, "--lr", "0"],
            "negative lr": ["--task", "flow", "--data", dataset, "--lr", "-0.001"],
            "zero attention width": ["--task", "flow", "--data", dataset],
            "zero lstm width": ["--task", "har", "--data", dataset],
            "nan clamp": ["--task", "flow", "--data", dataset],
            # the classifier's class count is known only once the model is built
            "one activity": ["--task", "har", "--data", dataset],
        }[case]
        change = {
            "zero attention width": {"net": {"attention_hidden": 0}},
            "zero lstm width": {"task": dict(CONFIG["task"], lstm_hidden=0)},
            "nan clamp": {"net": {"clamp": float("nan")}},
            "one activity": {"gen": dict(CONFIG["gen"], in_set=["ArmSwing"])},
        }.get(case, {})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(CONFIG, **change)))
        ckpt = tmp_path / "out" / "deep" / "x.ckpt"
        assert main(["train", "--config", str(config), "--ckpt", str(ckpt)] + flags) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_strategy_rejected_for_flow(self, dataset, tmp_path):
        assert main(["train", "--task", "flow", "--strategy", "s1",
                     "--data", dataset, "--ckpt", str(tmp_path / "x.ckpt")]) == 2

    def test_flow_ckpt_rejected_for_flow(self, dataset, flow_ckpt, tmp_path, capsys):
        ckpt = tmp_path / "x.ckpt"
        assert main(["train", "--task", "flow", "--flow-ckpt", flow_ckpt,
                     "--data", dataset, "--ckpt", str(ckpt)]) == 2
        assert "--flow-ckpt" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_wrong_task_checkpoint_exits_5(self, dataset, flow_ckpt, har_ckpt):
        assert main(["eval", "--task", "har", "--data", dataset,
                     "--ckpt", flow_ckpt]) == 5
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", har_ckpt]) == 5
        assert main(["eval", "--task", "hp", "--data", dataset,
                     "--ckpt", har_ckpt]) == 5

    def test_class_count_mismatch_exits_5(self, workdir, dataset, har_ckpt, tmp_path, capsys):
        # har_ckpt scores the dataset's two in-set activities; a third in the
        # catalogue would put Bowing's windows in class 2
        cfg = dict(CONFIG, gen=dict(CONFIG["gen"], in_set=["ArmSwing", "LegSwing", "Bowing"]))
        path = tmp_path / "three.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "har.json"
        assert main(["eval", "--task", "har", "--data", dataset, "--ckpt", har_ckpt,
                     "--config", str(path), "--out", str(out)]) == 5
        assert "checkpoint scores 2 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_rejected_for_tasks(self, dataset, har_ckpt):
        assert main(["eval", "--task", "har", "--data", dataset,
                     "--ckpt", har_ckpt, "--oracle"]) == 2


class TestTrack:
    def test_oracle_csv_rows(self, dataset, tmp_path):
        out = tmp_path / "track.csv"
        assert main(["track", "--data", dataset, "--oracle",
                     "--length", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "activity,tracking_length,mje"
        # only ArmSwing is trackable in this dataset: 4 rows for lengths 1-4
        assert len(lines) == 5
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "2", "3", "4"]

    def test_length_trims_rows(self, dataset, tmp_path):
        out = tmp_path / "short.csv"
        assert main(["track", "--data", dataset, "--oracle",
                     "--length", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_model_flows_print_latency(self, dataset, flow_ckpt, tmp_path, capsys):
        assert main(["track", "--data", dataset, "--ckpt", flow_ckpt,
                     "--length", "1", "--out", str(tmp_path / "t.csv")]) == 0
        assert "latency" in capsys.readouterr().out

    def test_flag_validation(self, dataset, flow_ckpt):
        assert main(["track", "--data", dataset, "--oracle", "--length", "7"]) == 2
        assert main(["track", "--data", dataset]) == 2
        assert main(["track", "--data", dataset, "--oracle",
                     "--ckpt", flow_ckpt]) == 2

    def test_missing_checkpoint_exits_4(self, dataset, tmp_path):
        assert main(["track", "--data", dataset,
                     "--ckpt", str(tmp_path / "none.ckpt")]) == 4

    def test_checkpoint_shape_beyond_the_file_exits_2(self, dataset, tmp_path, capsys):
        bad = tmp_path / "big.ckpt"
        header = b'{"format_version":1,"config":{},"params":[{"name":"w","shape":[%d]}]}' % 10**12
        bad.write_bytes(b"MFLW" + struct.pack("<I", len(header)) + header)
        assert main(["track", "--data", dataset, "--ckpt", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_untrackable_activity_exits_2(self, dataset, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["track", "--data", dataset, "--oracle", "--activities",
                     "ArmSwing", "ArmSwng", "--out", str(out)]) == 2
        assert "ArmSwng" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_unknown_flag_exits_2(self, dataset):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--task", "flow", "--data", dataset, "--frobnicate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("command", ["gen --out ds", "label --data ds"])
    def test_binary_flag_exits_2(self, command):
        with pytest.raises(SystemExit) as e:
            main(command.split() + ["--binary"])
        assert e.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_module_entry_point(self):
        # the fresh interpreter finds the package this one imported
        src = str(Path(milliflow.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "milliflow.cli", "--help"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("gen", "label", "train", "eval", "track"):
            assert sub in proc.stdout
