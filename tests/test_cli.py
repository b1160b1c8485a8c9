import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from milliflow.autodiff import Tensor
from milliflow.cli import main
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

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"nosuchsection": {}}))
        assert main(["gen", "--config", str(unknown),
                     "--out", str(tmp_path / "y")]) == 2


class TestLabel:
    def test_summary_written(self, workdir):
        summary = json.loads((workdir / "ds" / "label_summary.json").read_text())
        assert summary["n_sequences"] == 6
        assert 0.0 < summary["valid_ratio"] <= 1.0
        assert summary["config"]["gen"]["n_subjects"] == 3  # config echo

    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["label", "--data", str(tmp_path / "nowhere")]) == 3

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

    @pytest.mark.parametrize("header", [b"{}", b"{not json"])
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

    def test_no_model_and_no_oracle_exits_2(self, dataset):
        assert main(["eval", "--task", "flow", "--data", dataset]) == 2


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

    def test_s1_round_trip(self, workdir, dataset, flow_ckpt, tmp_path):
        ckpt = tmp_path / "har_s1.ckpt"
        assert main(["train", "--task", "har", "--strategy", "s1",
                     "--flow-ckpt", flow_ckpt, "--data", dataset,
                     "--ckpt", str(ckpt)]) == 0
        # evaluating under a different strategy is refused
        assert main(["eval", "--task", "har", "--strategy", "raw",
                     "--data", dataset, "--ckpt", str(ckpt)]) == 5
        assert main(["eval", "--task", "har", "--strategy", "s1",
                     "--flow-ckpt", flow_ckpt, "--data", dataset,
                     "--ckpt", str(ckpt)]) == 0

    def test_strategy_rejected_for_flow(self, dataset, tmp_path):
        assert main(["train", "--task", "flow", "--strategy", "s1",
                     "--data", dataset, "--ckpt", str(tmp_path / "x.ckpt")]) == 2

    def test_wrong_task_checkpoint_exits_5(self, dataset, flow_ckpt, har_ckpt):
        assert main(["eval", "--task", "har", "--data", dataset,
                     "--ckpt", flow_ckpt]) == 5
        assert main(["eval", "--task", "flow", "--data", dataset,
                     "--ckpt", har_ckpt]) == 5
        assert main(["eval", "--task", "hp", "--data", dataset,
                     "--ckpt", har_ckpt]) == 5

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
        proc = subprocess.run([sys.executable, "-m", "milliflow.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("gen", "label", "train", "eval", "track"):
            assert sub in proc.stdout
