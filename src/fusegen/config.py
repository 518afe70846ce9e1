"""Validated configuration records for the model and training loop."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised on an invalid or inconsistent configuration."""


def _at_least(record, minimum: int, names) -> None:
    for name in names:
        value = getattr(record, name)
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


@dataclass
class ModelConfig:
    """Every architectural hyperparameter in one place.

    Defaults are desk-scale: small enough for finite-difference checks, large
    enough that every mechanism (multi-head split, GQA grouping, both fusion
    stages) is exercised nontrivially.
    """

    # image encoder
    image_side: int = 16          # must be divisible by 8
    e_v: int = 32                 # visual channel count E_V

    # keyword encoder
    vocab_size: int = 64
    e_l: int = 32                 # keyword embedding dim E_L
    s_l: int = 4                  # keyword sequence length (padded)
    enc_layers: int = 2
    enc_heads: int = 4

    # fusion
    p: int = 32                   # shared projection dim P

    # alignment
    d_align: int = 32

    # decoder
    dec_d: int = 64
    dec_layers: int = 2
    n_q: int = 4
    n_kv: int = 2

    # global switches
    attn_norm: str = "softmax"    # "softmax" | "sigmoid"
    dtype: str = "float32"        # "float32" | "float64"
    seed: int = 0

    # ablation toggles
    use_keywords: bool = True
    use_abstractor: bool = True
    use_adaptor: bool = True
    use_alignment: bool = True

    def __post_init__(self):
        _at_least(self, 1, ("image_side", "e_v", "vocab_size", "e_l", "s_l", "enc_heads",
                            "p", "d_align", "dec_d", "n_q", "n_kv"))
        _at_least(self, 0, ("enc_layers", "dec_layers", "seed"))
        if self.image_side % 8 != 0:
            raise ConfigError(f"image_side={self.image_side} not divisible by 8")
        if self.e_l % self.enc_heads != 0:
            raise ConfigError(f"enc_heads={self.enc_heads} must divide e_l={self.e_l}")
        if self.n_q % self.n_kv != 0:
            raise ConfigError(f"n_kv={self.n_kv} must divide n_q={self.n_q}")
        if self.dec_d % self.n_q != 0:
            raise ConfigError(f"n_q={self.n_q} must divide dec_d={self.dec_d}")
        if (self.dec_d // self.n_q) % 2 != 0:
            raise ConfigError("head_dim must be even for rotary embeddings")
        if self.attn_norm not in ("softmax", "sigmoid"):
            raise ConfigError(f"attn_norm must be softmax or sigmoid, got {self.attn_norm!r}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if (self.use_abstractor or self.use_adaptor) and not self.use_keywords:
            raise ConfigError("abstractor/adaptor require the keyword branch")

    @property
    def grid_side(self) -> int:
        return self.image_side // 8

    @property
    def s_v(self) -> int:
        return self.grid_side * self.grid_side

    @property
    def head_dim(self) -> int:
        return self.dec_d // self.n_q

    @property
    def d_ff(self) -> int:
        """SwiGLU hidden width: 4d/3 rounded to a multiple of 8."""
        return max(8, int(round(4 * self.dec_d / 3 / 8)) * 8)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 25
    lambda_align: float = 0.5
    scheduler: str = "warmup_cosine"  # "warmup_cosine" | "constant"
    seed: int = 0
    n_train: int = 200
    n_eval: int = 64

    def __post_init__(self):
        # the chained comparisons also reject NaN
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.lambda_align < math.inf:
            raise ConfigError(f"lambda_align must be >= 0 and finite, got {self.lambda_align}")
        if self.scheduler not in ("warmup_cosine", "constant"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        _at_least(self, 1, ("batch_size", "n_train", "n_eval"))
        _at_least(self, 0, ("epochs", "seed"))


_MODEL_FIELDS = {f.name for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
# field name -> declared type name ("int", "float", "str" or "bool")
_FIELD_TYPES = {f.name: f.type for cls in (ModelConfig, TrainConfig)
                for f in dataclasses.fields(cls)}


def _checked(key: str, value):
    """``value`` if it has the declared type of field ``key`` (an int is
    accepted for a float field, a bool is not an int); else ConfigError."""
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind == "float":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        value = float(value) if ok else value
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    return value


def config_to_dict(model: ModelConfig, train: TrainConfig) -> dict:
    d = dataclasses.asdict(model)
    for k, v in dataclasses.asdict(train).items():
        if k == "seed":
            continue  # model seed is authoritative
        d[k] = v
    return d


def config_from_dict(d: dict) -> tuple[ModelConfig, TrainConfig]:
    """Split a flat config dict into model/train records. Unknown keys and
    values of the wrong type reject."""
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - _MODEL_FIELDS - _TRAIN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    d = {k: _checked(k, v) for k, v in d.items()}
    model = ModelConfig(**{k: v for k, v in d.items() if k in _MODEL_FIELDS})
    train_kw = {k: v for k, v in d.items() if k in _TRAIN_FIELDS}
    train_kw["seed"] = model.seed
    return model, TrainConfig(**train_kw)


def load_config(path: str) -> tuple[ModelConfig, TrainConfig]:
    """The records of a JSON config file; a file that cannot be read or
    parsed is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(d)


def save_config(model: ModelConfig, train: TrainConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(model, train), fh, indent=2, sort_keys=True)
        fh.write("\n")
