import dataclasses
import json
import typing

import numpy as np
import pytest

from milliflow import autodiff as ad
from milliflow import pipeline
from milliflow.autodiff import Tensor
from milliflow.config import (
    GenConfig,
    NetConfig,
    RunConfig,
    TaskConfig,
    TrainConfig,
    from_dict,
    load_config,
    model_dtype,
)
from milliflow.dataio import write_json
from milliflow.downstream import HarNet, HpNet
from milliflow.errors import ConfigError
from milliflow.flownet import FlowNet
from milliflow.radar import CfarParams, RadarConfig, RadarFrame
from milliflow.skeleton import generate_motion, make_subject, observe_keypoints


class TestValidation:
    def test_defaults_construct(self):
        cfg = RunConfig()
        assert cfg.gen.n_subjects == 12
        assert cfg.net.gru_hidden == 256
        assert cfg.train.lr == pytest.approx(1e-3)

    def test_bad_clutter_window(self):
        with pytest.raises(ConfigError):
            GenConfig(clutter_window=1)

    def test_bad_subject_count(self):
        with pytest.raises(ConfigError):
            GenConfig(n_subjects=0)

    def test_sa_lists_must_pair(self):
        with pytest.raises(ConfigError):
            NetConfig(sa_radii=(0.1, 0.2), sa_samples=(4,))

    def test_regressor_must_end_in_3(self):
        for regressor in ((64, 16), ()):
            with pytest.raises(ConfigError, match="must end in 3"):
                NetConfig(regressor=regressor)

    @pytest.mark.parametrize("cls, name", [
        (NetConfig, "cv_k"), (RadarConfig, "n_az"), (RadarConfig, "n_el"),
        (RadarConfig, "pad_factor"),
    ])
    def test_sizes_must_be_positive(self, cls, name):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=f"{name} must be positive"):
                cls(**{name: value})

    def test_bad_clamp(self):
        with pytest.raises(ConfigError):
            NetConfig(clamp=0.0)

    def test_bad_dtype(self):
        with pytest.raises(ConfigError):
            TrainConfig(dtype="float16")

    def test_bad_lr_decay(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_decay=0.0)

    @pytest.mark.parametrize("name", ["epochs", "batch_clips", "patience"])
    def test_counts_must_be_positive(self, name):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=f"{name} must be positive"):
                TrainConfig(**{name: value})

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan")])
    def test_lr_must_be_positive(self, lr):
        with pytest.raises(ConfigError, match="lr must be positive"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("name", ["float16", "complex64", "int64", "", None, ["float32"]])
    def test_model_dtype_is_float32_or_float64(self, name):
        assert model_dtype("float32") == np.float32
        assert model_dtype("float64") == np.float64
        with pytest.raises(ConfigError, match="unsupported model dtype"):
            model_dtype(name)

    @pytest.mark.parametrize("gen", [
        {"in_set": ("Jumping",)},
        {"out_of_set": ("Sitting", "Bouncing")},
        {"in_set": ("ArmSwing", "Sitting"), "out_of_set": ("Sitting",)},
        {"in_set": ("ArmSwing", "ArmSwing")},
    ])
    def test_activities_known_and_listed_once(self, gen):
        with pytest.raises(ConfigError):
            GenConfig(**gen)

    def test_explicit_split_accepts_empty_parts(self):
        gen = GenConfig(n_subjects=2)
        split = {"train": [], "val": [], "test": [1, 0]}
        assert RunConfig(gen=gen, explicit_split=split).explicit_split == split

    @pytest.mark.parametrize("split", [
        [0, 1, 2],
        {"train": [0], "val": [1]},
        {"train": [0], "val": [1], "test": [2], "holdout": []},
        {"train": [0, 1], "val": [1], "test": [2]},
        {"train": [0], "val": [1], "test": []},
        {"train": [0], "val": [1], "test": [3]},
        {"train": [0], "val": [1], "test": 2},
        {"train": (0,), "val": [1], "test": [2]},
        {"train": [0], "val": [True], "test": [2]},
        {"train": [0.0], "val": [1], "test": [2]},
        {"train": ["0"], "val": [1], "test": [2]},
    ])
    def test_explicit_split_checked_when_built(self, split):
        with pytest.raises(ConfigError, match="explicit_split"):
            RunConfig(gen=GenConfig(n_subjects=3), explicit_split=split)


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = RunConfig(seed=7)
        again = from_dict(RunConfig, cfg.as_dict())
        assert again == cfg

    def test_nested_cfar_rebuilt(self):
        d = RunConfig().as_dict()
        d["radar"]["cfar"]["scale_factor"] = 9.5
        cfg = from_dict(RunConfig, d)
        assert isinstance(cfg.radar.cfar, CfarParams)
        assert cfg.radar.cfar.scale_factor == 9.5

    def test_lists_coerced_to_tuples(self):
        d = RunConfig().as_dict()
        d["net"]["sa_radii"] = [0.1, 0.2]
        d["net"]["sa_samples"] = [4, 8]
        cfg = from_dict(RunConfig, d)
        assert cfg.net.sa_radii == (0.1, 0.2)

    def test_unknown_key_rejected(self):
        d = RunConfig().as_dict()
        d["net"]["nonsense"] = 1
        with pytest.raises(ConfigError, match="nonsense"):
            from_dict(RunConfig, d)

    def test_unknown_top_level_key_rejected(self):
        d = RunConfig().as_dict()
        d["extra"] = {}
        with pytest.raises(ConfigError):
            from_dict(RunConfig, d)

    def test_from_dict_section(self):
        net = from_dict(NetConfig, {"sa_radii": [0.1, 0.2], "sa_samples": [4, 8]})
        assert net == NetConfig(sa_radii=(0.1, 0.2), sa_samples=(4, 8))
        with pytest.raises(ConfigError, match="nonsense"):
            from_dict(NetConfig, {"nonsense": 1})
        with pytest.raises(ConfigError, match="object"):
            from_dict(NetConfig, [1, 2])

    def test_explicit_split_survives(self):
        cfg = RunConfig(
            gen=GenConfig(n_subjects=4),
            explicit_split={"train": [0, 1], "val": [2], "test": [3]},
        )
        again = from_dict(RunConfig, cfg.as_dict())
        assert again.explicit_split == cfg.explicit_split

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(seed=3, gen=GenConfig(n_scenes=2))
        path = tmp_path / "run.json"
        write_json(path, cfg.as_dict())
        assert load_config(path) == cfg

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 11, "gen": {"n_subjects": 7}}))
        cfg = load_config(path)
        assert cfg.seed == 11
        assert cfg.gen.n_subjects == 7
        assert cfg.gen.n_scenes == GenConfig().n_scenes

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("content", [
        {"net": {"sa_radii": 5}},
        {"train": {"lr_decay": "fast"}},
        {"seed": [1]},
        {"seed": "x"},
        {"seed": 3.7},
        {"seed": "3"},
        {"seed": True},
        {"gen": {"in_set": ["Jumping"]}},
        {"gen": {"n_subjects": 3}, "explicit_split": [0, 1, 2]},
        {"radar": 5},
    ])
    def test_value_of_wrong_type(self, tmp_path, content):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(content))
        with pytest.raises(ConfigError):
            load_config(path)
        with pytest.raises(ConfigError):
            from_dict(RunConfig, content)

    def test_negative_seed_is_refused(self):
        # numpy's generators take no negative seed
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            from_dict(RunConfig, {"seed": -1})

    def test_non_dict_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)


RANGE_FIELDS = ("distance_range", "amplitude_range", "period_range")


def _edge_values():
    """(section, field, value) for every numeric or tuple field of the run
    config's sections and of `radar.cfar`: [], [0] and [-1] for a tuple
    field, and for a (low, high) range also three entries and the default
    reversed; 0 and -1 for a number."""
    sections = {"gen": GenConfig, "net": NetConfig, "train": TrainConfig,
                "task": TaskConfig, "radar": RadarConfig, "radar.cfar": CfarParams}
    for section, cls in sections.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            if tuple in kinds:
                values = [[], [0], [-1]]
                if f.name in RANGE_FIELDS:
                    values += [[*f.default, f.default[1]], list(reversed(f.default))]
            elif int in kinds or float in kinds:
                values = [0, -1]
            else:
                continue
            for value in values:
                yield pytest.param(section, f.name, value,
                                   id=f"{section}.{f.name}={json.dumps(value)}")


def _section_dict(section: str, values: dict) -> dict:
    """The run config's JSON form holding `values` in the dotted `section`."""
    for key in reversed(section.split(".")):
        values = {key: values}
    return values


def _two_frames():
    rng = np.random.default_rng(0)
    return [RadarFrame(rng.normal([0.0, 3.0, 0.0], 0.3, size=(12, 3)),
                       rng.uniform(0.5, 1.0, size=12), t, t / 10.0) for t in range(2)]


def _run_what_reads(section: str, cfg: RunConfig):
    """Run what reads `section` of `cfg` on small inputs: the networks one
    forward on two frames, a flow network drawn with the training seed and
    dtype, and generation each scene's motion parameters and one scene's
    poses and observed keypoints."""
    frames = _two_frames()
    if section == "net":
        net = FlowNet(cfg.net)
        with ad.no_grad():
            flows, _, _ = net.forward(frames[0], frames[1], net.initial_state())
        assert np.isfinite(flows.data).all()
    elif section == "task":
        feats = [Tensor(f.intensities.astype(np.float32)[:, None]) for f in frames]
        with ad.no_grad():
            scores = HarNet(cfg.task, 1, n_classes=2).forward(frames, feats)
            per_frame = HpNet(cfg.task, 1).forward(frames, feats)
        assert np.isfinite(scores.data).all()
        assert all(np.isfinite(s.data).all() for s in per_frame)
    elif section == "train":
        FlowNet(NetConfig(), seed=cfg.train.seed, dtype=cfg.train.dtype)
    elif section == "gen":
        gen = cfg.gen
        specs = [pipeline.scene_spec(cfg, *spec)
                 for spec in pipeline.dataset_sequence_specs(cfg)]
        # generate_motion relies on these, and checks none of them
        assert all(2.0 <= s.subject_distance <= 4.0 and s.period > 0 for s in specs)
        poses = generate_motion(make_subject(0), specs[0],
                                gen.frames_per_sequence + gen.clutter_window - 1,
                                gen.frame_rate)
        assert all(np.isfinite(p.keypoints).all() for p in poses)
        observe_keypoints(poses[0], gen.kp_noise_std, gen.kp_dropout, seed=0)


class TestEdgeValues:
    @pytest.mark.parametrize("section, name, value", _edge_values())
    def test_builds_or_raises_config_error(self, section, name, value):
        # a value a dataclass cannot use is refused by its check, never by
        # another error from inside it or from a stage that reads it
        try:
            cfg = from_dict(RunConfig, _section_dict(section, {name: value}))
        except ConfigError:
            return
        _run_what_reads(section, cfg)

    @pytest.mark.parametrize("section, name, value", [
        ("gen", "frame_rate", 0), ("gen", "frame_rate", -1.0),
        ("radar", "ghost_prob", -0.1), ("radar", "ghost_prob", 1.5),
        ("radar", "ghost_prob", 2.0), ("radar", "reflectors_per_bone", 0),
        ("radar", "reflectors_per_bone", -1), ("radar", "f_min", 0),
        ("radar", "f_min", -1.0),
        ("net", "attention_hidden", 0), ("net", "cv_dcost", 0), ("net", "gru_hidden", 0),
        ("net", "sa_mlp", (32, 0, 64)), ("net", "cv_weight_hidden", (8, 0)),
        ("task", "lstm_hidden", 0), ("task", "gru_hidden", 0), ("task", "classifier", (0,)),
        ("task", "stage2_mlp", ()), ("task", "stage2_radius", 0.0),
        ("gen", "kp_dropout", 2.0), ("gen", "kp_dropout", -0.5),
        ("gen", "kp_noise_std", -0.1), ("gen", "distance_range", (1.0, 5.0)),
        ("gen", "period_range", (2.0, 1.6)), ("gen", "amplitude_range", (0.5,)),
        ("radar", "micro_motion_std", -1.0), ("train", "seed", -1),
    ])
    def test_unusable_value_is_refused(self, section, name, value):
        # each of these was accepted and then refused late or misread
        with pytest.raises(ConfigError, match=name):
            from_dict(RunConfig, {section: {name: value}})

    @pytest.mark.parametrize("section, name, value", [
        ("radar", "f_max", "NaN"), ("net", "clamp", "NaN"), ("net", "loss_zeta", "NaN"),
        ("radar.cfar", "scale_factor", "NaN"), ("gen", "kp_noise_std", "NaN"),
        ("radar", "visibility_half_angle", "NaN"), ("radar", "snr_db", "-Infinity"),
        ("net", "sa_radii", "[0.05, Infinity, 0.2, 0.4]"), ("train", "lr", "Infinity"),
    ])
    def test_non_finite_number_is_refused(self, tmp_path, section, name, value):
        # Python's json reads NaN and Infinity; no field takes them
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_section_dict(section, {name: "@"})).replace('"@"', value))
        with pytest.raises(ConfigError, match=f"{name}=.*(nan|inf)"):
            load_config(path)

    @pytest.mark.parametrize("value", [0, 0.5, 1])
    def test_ghost_prob_bounds_are_accepted(self, value):
        assert from_dict(RunConfig, {"radar": {"ghost_prob": value}}).radar.ghost_prob == value
