"""Aggregated run configuration: radar, generation, network, and training
knobs, loaded from JSON (`dataio.write_json` writes it).  The full config is
echoed into every dataset manifest so a run can be reproduced from its
outputs alone.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .radar import CfarParams, RadarConfig, default_vayyar_config
from .skeleton import (
    DEFAULT_FRAME_RATE,
    IN_SET_ACTIVITIES,
    OUT_OF_SET_ACTIVITIES,
)


@dataclass(frozen=True)
class GenConfig:
    n_subjects: int = 12
    n_scenes: int = 3
    frames_per_sequence: int = 200
    frame_rate: float = DEFAULT_FRAME_RATE
    kp_noise_std: float = 0.02
    kp_dropout: float = 0.05
    clutter_window: int = 3
    distance_range: tuple = (2.2, 3.8)
    amplitude_range: tuple = (0.5, 0.9)
    period_range: tuple = (1.6, 2.4)
    in_set: tuple = IN_SET_ACTIVITIES
    out_of_set: tuple = OUT_OF_SET_ACTIVITIES

    def __post_init__(self):
        if self.n_subjects < 1 or self.n_scenes < 1:
            raise ConfigError("need at least one subject and one scene")
        if self.frames_per_sequence < 2:
            raise ConfigError("sequences need at least 2 frames")
        if self.clutter_window < 2:
            raise ConfigError("clutter removal needs a window of at least 2")


@dataclass(frozen=True)
class NetConfig:
    sa_radii: tuple = (0.05, 0.1, 0.2, 0.4)
    sa_samples: tuple = (4, 8, 16, 32)
    sa_mlp: tuple = (32, 32, 64)
    post_sa_mlp: tuple = (64, 64, 64)
    attention_hidden: int = 128
    cv_k: int = 8
    cv_dcost: int = 64
    cv_weight_hidden: tuple = (8, 8)
    embed_mlp: tuple = (512, 256, 64)
    gru_hidden: int = 256
    regressor: tuple = (256, 128, 64, 3)
    clamp: float = 0.1
    loss_zeta: float = 0.1
    alpha_large: float = 2.0
    alpha_small: float = 1.0
    input_features: int = 1  # intensity only
    temporal: bool = True  # False disables the GRU propagation (ablation)

    def __post_init__(self):
        if len(self.sa_radii) != len(self.sa_samples):
            raise ConfigError("sa_radii and sa_samples must pair up")
        if self.regressor[-1] != 3:
            raise ConfigError("flow regressor must end in 3 output channels")
        if self.clamp <= 0:
            raise ConfigError("clamp bound must be positive")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    lr_decay: float = 0.9
    epochs: int = 20
    batch_clips: int = 16
    patience: int = 10
    seed: int = 0
    dtype: str = "float32"
    # cap on shuffled clips consumed per epoch; None uses every clip
    max_clips_per_epoch: int | None = None
    # cap on validation clips scored per epoch (fixed seeded subset); None scores all
    max_val_clips: int | None = None

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unsupported training dtype {self.dtype!r}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr_decay must be in (0, 1]")
        for name in ("max_clips_per_epoch", "max_val_clips"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class TaskConfig:
    """Hyperparameters shared by the activity and parsing networks."""

    sa_radii: tuple = (0.05, 0.1, 0.2, 0.4)
    sa_samples: tuple = (4, 8, 16, 32)
    sa_mlp: tuple = (32, 32, 64)
    post_sa_mlp: tuple = (64, 64, 64)
    attention_hidden: int = 128
    fps_centroids: int = 32
    stage2_radius: float = 0.4
    stage2_samples: int = 16
    stage2_mlp: tuple = (128, 128)
    lstm_hidden: int = 128
    gru_hidden: int = 128
    classifier: tuple = (64,)  # hidden widths; the class count is appended
    window: int = 20  # frames per input sequence

    def __post_init__(self):
        if len(self.sa_radii) != len(self.sa_samples):
            raise ConfigError("sa_radii and sa_samples must pair up")
        if self.window < 2:
            raise ConfigError("task window needs at least 2 frames")
        if self.fps_centroids < 1:
            raise ConfigError("fps_centroids must be positive")


@dataclass(frozen=True)
class RunConfig:
    radar: RadarConfig = field(default_factory=default_vayyar_config)
    gen: GenConfig = field(default_factory=GenConfig)
    net: NetConfig = field(default_factory=NetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    seed: int = 0
    # explicit subject split {"train": [...], "val": [...], "test": [...]};
    # None means an automatic 3:1:2 split (needs >= 6 subjects)
    explicit_split: dict | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def from_dict(cls, d: dict):
    """A config dataclass from its JSON form: lists become tuples, and a
    section that is not an object, names an unknown field or holds a value
    the dataclass rejects raises ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} section must be an object")
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - fields
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {cls.__name__} value: {e}") from e


def run_config_from_dict(d: dict) -> RunConfig:
    d = dict(d)
    known = {"radar", "gen", "net", "train", "task", "seed", "explicit_split"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    radar_d = d.get("radar", {})
    if isinstance(radar_d, dict) and "cfar" in radar_d:
        radar_d = dict(radar_d, cfar=from_dict(CfarParams, radar_d["cfar"]))
    try:
        seed = int(d.get("seed", 0))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad seed: {e}") from e
    return RunConfig(
        radar=from_dict(RadarConfig, radar_d),
        gen=from_dict(GenConfig, d.get("gen", {})),
        net=from_dict(NetConfig, d.get("net", {})),
        train=from_dict(TrainConfig, d.get("train", {})),
        task=from_dict(TaskConfig, d.get("task", {})),
        seed=seed,
        explicit_split=d.get("explicit_split"),
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return run_config_from_dict(data)
