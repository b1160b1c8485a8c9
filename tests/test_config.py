import json

import pytest

from milliflow.config import (
    GenConfig,
    NetConfig,
    RunConfig,
    TrainConfig,
    from_dict,
    load_config,
    run_config_from_dict,
)
from milliflow.dataio import write_json
from milliflow.errors import ConfigError
from milliflow.radar import CfarParams


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
        with pytest.raises(ConfigError):
            NetConfig(regressor=(64, 16))

    def test_bad_clamp(self):
        with pytest.raises(ConfigError):
            NetConfig(clamp=0.0)

    def test_bad_dtype(self):
        with pytest.raises(ConfigError):
            TrainConfig(dtype="float16")

    def test_bad_lr_decay(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_decay=0.0)


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = RunConfig(seed=7)
        again = run_config_from_dict(cfg.as_dict())
        assert again == cfg

    def test_nested_cfar_rebuilt(self):
        d = RunConfig().as_dict()
        d["radar"]["cfar"]["scale_factor"] = 9.5
        cfg = run_config_from_dict(d)
        assert isinstance(cfg.radar.cfar, CfarParams)
        assert cfg.radar.cfar.scale_factor == 9.5

    def test_lists_coerced_to_tuples(self):
        d = RunConfig().as_dict()
        d["net"]["sa_radii"] = [0.1, 0.2]
        d["net"]["sa_samples"] = [4, 8]
        cfg = run_config_from_dict(d)
        assert cfg.net.sa_radii == (0.1, 0.2)

    def test_unknown_key_rejected(self):
        d = RunConfig().as_dict()
        d["net"]["nonsense"] = 1
        with pytest.raises(ConfigError, match="nonsense"):
            run_config_from_dict(d)

    def test_unknown_top_level_key_rejected(self):
        d = RunConfig().as_dict()
        d["extra"] = {}
        with pytest.raises(ConfigError):
            run_config_from_dict(d)

    def test_from_dict_section(self):
        net = from_dict(NetConfig, {"sa_radii": [0.1, 0.2], "sa_samples": [4, 8]})
        assert net == NetConfig(sa_radii=(0.1, 0.2), sa_samples=(4, 8))
        with pytest.raises(ConfigError, match="nonsense"):
            from_dict(NetConfig, {"nonsense": 1})
        with pytest.raises(ConfigError, match="object"):
            from_dict(NetConfig, [1, 2])

    def test_explicit_split_survives(self):
        cfg = RunConfig(
            explicit_split={"train": [0, 1], "val": [2], "test": [3]}
        )
        again = run_config_from_dict(cfg.as_dict())
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
        {"radar": 5},
    ])
    def test_value_of_wrong_type(self, tmp_path, content):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(content))
        with pytest.raises(ConfigError):
            load_config(path)
        with pytest.raises(ConfigError):
            run_config_from_dict(content)

    def test_non_dict_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)
