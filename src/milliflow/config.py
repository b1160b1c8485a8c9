"""Aggregated run configuration: radar, generation, network, and training
knobs, loaded from JSON (`dataio.write_json` writes it).  The full config is
echoed into every dataset manifest so a run can be reproduced from its
outputs alone.

`from_dict` is the one reader: it builds a config dataclass and every config
dataclass nested in it from their JSON form, and refuses a value that
`errors.fits` does not find of its field's kind, a number that is not
finite among them.  Each dataclass checks itself when it is built, so a
malformed config raises ConfigError before any stage writes a file or reads a
dataset.

The rule: the kind of every stored value, in a config, a manifest, a frame
or label record or a checkpoint header, is checked by the one `errors.fits`
before any stage reads it.  A config file that the JSON parser cannot read,
one that is not UTF-8 or nests deeper than the parser follows among them,
raises ConfigError as well.  No stage refuses a value read from a config
that `from_dict` built, but for `farthest_point_sample`'s sample count (a
kernel with its own oracle tests), `HarNet`'s 2 classes (a flow-only config
may list one activity) and the automatic split's 6 subjects (only `gen`
splits, and it checks before it writes).  The tracked clip length (`track
--length`) and `TrackState`'s finite endpoints (which a loaded checkpoint's
flows move) are checked where they are known, as no config sets them.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, fits
from .radar import RadarConfig
from .skeleton import (
    ALL_ACTIVITIES,
    DEFAULT_FRAME_RATE,
    IN_SET_ACTIVITIES,
    OUT_OF_SET_ACTIVITIES,
)

SPLIT_PARTS = ("train", "val", "test")


def model_dtype(name) -> np.dtype:
    """The dtype a model is trained and stored in: float32 or float64."""
    if name not in ("float32", "float64"):
        raise ConfigError(f"unsupported model dtype {name!r}")
    return np.dtype(name)


def _positive(cfg, *names):
    """Refuse each named field of `cfg` that is not a number above 0 or a
    non-empty tuple of them: a width, a count, a radius, a rate or a period."""
    for name in names:
        value = getattr(cfg, name)
        items = value if isinstance(value, tuple) else (value,)
        if not items or not all(v > 0 for v in items):
            raise ConfigError(f"{name} must be positive, got {value}")


def _seed(seed):
    """Refuse a seed that numpy's generators do not take."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


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
        _positive(self, "frame_rate")
        if self.kp_noise_std < 0:
            raise ConfigError(f"kp_noise_std must be nonnegative, got {self.kp_noise_std}")
        if not 0 <= self.kp_dropout <= 1:
            raise ConfigError(f"kp_dropout must lie in [0, 1], got {self.kp_dropout}")
        # each scene draws its motion from these ranges, so a range must be
        # usable at both ends for every seed
        for name in ("distance_range", "amplitude_range", "period_range"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not bounds[0] <= bounds[1]:
                raise ConfigError(f"{name} must be a (low, high) pair with low <= high, "
                                  f"got {bounds}")
        if not 2.0 <= self.distance_range[0] <= self.distance_range[1] <= 4.0:
            raise ConfigError(f"distance_range must lie within [2, 4] m, "
                              f"got {self.distance_range}")
        _positive(self, "period_range")
        # a name listed twice would specify the same sequences twice
        activities = tuple(self.in_set) + tuple(self.out_of_set)
        if len(set(activities)) != len(activities):
            raise ConfigError(f"an activity is listed twice in {activities}")
        unknown = set(activities) - set(ALL_ACTIVITIES)
        if unknown:
            raise ConfigError(f"unknown activities {sorted(unknown)}; "
                              f"the catalogue is {ALL_ACTIVITIES}")


@dataclass(frozen=True)
class EncoderConfig:
    """The fields `flownet.CloudEncoder` reads.  `NetConfig` and `TaskConfig`
    extend it, so these come first in both, in this order."""

    sa_radii: tuple = (0.05, 0.1, 0.2, 0.4)
    sa_samples: tuple = (4, 8, 16, 32)
    sa_mlp: tuple = (32, 32, 64)
    post_sa_mlp: tuple = (64, 64, 64)
    attention_hidden: int = 128

    def __post_init__(self):
        if len(self.sa_radii) != len(self.sa_samples):
            raise ConfigError("sa_radii and sa_samples must pair up")
        _positive(self, "sa_radii", "sa_samples", "sa_mlp", "post_sa_mlp", "attention_hidden")


@dataclass(frozen=True)
class NetConfig(EncoderConfig):
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
    temporal: bool = True  # False disables the GRU propagation (ablation)

    def __post_init__(self):
        super().__post_init__()
        if not self.regressor or self.regressor[-1] != 3:
            raise ConfigError("flow regressor must end in 3 output channels")
        _positive(self, "cv_k", "cv_dcost", "embed_mlp", "gru_hidden", "regressor")
        if not all(w > 0 for w in self.cv_weight_hidden):  # hidden widths: may be empty
            raise ConfigError(f"cv_weight_hidden must be positive, got {self.cv_weight_hidden}")
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
        model_dtype(self.dtype)
        _seed(self.seed)
        if not self.lr > 0:
            raise ConfigError("lr must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr_decay must be in (0, 1]")
        for name in ("epochs", "batch_clips", "patience", "max_clips_per_epoch", "max_val_clips"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class TaskConfig(EncoderConfig):
    """Hyperparameters shared by the activity and parsing networks."""

    fps_centroids: int = 32
    stage2_radius: float = 0.4
    stage2_samples: int = 16
    stage2_mlp: tuple = (128, 128)
    lstm_hidden: int = 128
    gru_hidden: int = 128
    classifier: tuple = (64,)  # hidden widths; the class count is appended
    window: int = 20  # frames per input sequence

    def __post_init__(self):
        super().__post_init__()
        if self.window < 2:
            raise ConfigError("task window needs at least 2 frames")
        _positive(self, "fps_centroids", "stage2_radius", "stage2_samples", "stage2_mlp",
                  "lstm_hidden", "gru_hidden")
        if not all(w > 0 for w in self.classifier):  # hidden widths: may be empty
            raise ConfigError(f"classifier must be positive, got {self.classifier}")


@dataclass(frozen=True)
class RunConfig:
    radar: RadarConfig = field(default_factory=RadarConfig)
    gen: GenConfig = field(default_factory=GenConfig)
    net: NetConfig = field(default_factory=NetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    seed: int = 0
    # explicit subject split {"train": [...], "val": [...], "test": [...]};
    # None means an automatic 3:1:2 split (needs >= 6 subjects)
    explicit_split: dict | None = None

    def __post_init__(self):
        _seed(self.seed)
        split = self.explicit_split
        if split is None:
            return
        if not fits(split, dict.fromkeys(SPLIT_PARTS, [int])) or set(split) != set(SPLIT_PARTS):
            raise ConfigError(f"explicit_split must map each of {SPLIT_PARTS} to a list "
                              f"of subject ids")
        listed = sorted(i for ids in split.values() for i in ids)
        if listed != list(range(self.gen.n_subjects)):
            raise ConfigError(f"explicit_split must list each of the {self.gen.n_subjects} "
                              f"subjects exactly once; it lists {listed}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def from_dict(cls, d: dict):
    """A config dataclass from its JSON form: a field annotated with a config
    dataclass is read by `from_dict` in turn, lists become tuples, and a
    section that is not an object, names an unknown field, holds a value of
    another kind than its field or a value the dataclass rejects raises
    ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} section must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {k: from_dict(hints[k], v) if dataclasses.is_dataclass(hints[k])
              else tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    for name, value in values.items():
        if not _of_kind(value, hints[name], fields[name]):
            raise ConfigError(f"bad {cls.__name__} value: {name}={value!r} "
                              f"is not of its field's kind ({fields[name].type})")
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {cls.__name__} value: {e}") from e


def _of_kind(value, hint, field_) -> bool:
    """Whether `value` fits its field's annotation `hint`: None only where
    the annotation admits it, and a tuple's items the kind of the items of
    the field's default."""
    kinds = typing.get_args(hint) or (hint,)
    if kinds == (tuple,):
        default = field_.default
        item_kind = type(default[0]) if isinstance(default, tuple) and default else object
        return isinstance(value, tuple) and fits(list(value), [item_kind])
    return fits(value, kinds)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return from_dict(RunConfig, data)
