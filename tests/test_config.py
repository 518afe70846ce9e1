"""Tests for configuration validation and (de)serialization."""

import json

import numpy as np
import pytest

from fusegen.config import (ConfigError, ModelConfig, TrainConfig,
                            config_from_dict, config_to_dict, load_config,
                            save_config)
from fusegen.model import ReportModel


def test_defaults_are_valid():
    cfg = ModelConfig()
    assert cfg.s_v == cfg.grid_side ** 2
    assert cfg.head_dim * cfg.n_q == cfg.dec_d
    assert cfg.d_ff % 8 == 0
    TrainConfig()


@pytest.mark.parametrize("kw", [
    dict(image_side=20),
    dict(e_l=30, enc_heads=4),
    dict(n_q=4, n_kv=3),
    dict(dec_d=30, n_q=4),
    dict(attn_norm="relu"),
    dict(dtype="float16"),
    dict(use_keywords=False),     # abstractor/adaptor still enabled
])
def test_invalid_model_configs_rejected(kw):
    with pytest.raises(ConfigError):
        ModelConfig(**kw)


@pytest.mark.parametrize("kw", [
    dict(lr=0.0),
    dict(lambda_align=-0.1),
    dict(scheduler="linear"),
    dict(batch_size=0),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(lambda_align=float("nan")),
    dict(lambda_align=float("inf")),
])
def test_invalid_train_configs_rejected(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw)


@pytest.mark.parametrize("key,value", [
    ("enc_heads", 0), ("n_kv", 0), ("n_q", 0), ("image_side", 0), ("dec_d", 0),
    ("vocab_size", 0), ("s_l", 0), ("dec_layers", -1), ("seed", -1),
    ("n_train", 0), ("n_eval", 0),
])
def test_non_positive_sizes_rejected(key, value):
    # checked before the divisibility tests, so never a ZeroDivisionError
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: value})


def test_odd_head_dim_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(dec_d=36, n_q=4)   # head_dim 9


def test_dict_round_trip():
    m = ModelConfig(e_v=16, seed=3)
    t = TrainConfig(lr=2e-4, epochs=7)
    m2, t2 = config_from_dict(config_to_dict(m, t))
    assert m2 == m
    assert t2.lr == t.lr and t2.epochs == t.epochs
    assert t2.seed == m.seed     # model seed is authoritative


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})


def test_file_round_trip(tmp_path):
    p = str(tmp_path / "cfg.json")
    save_config(ModelConfig(seed=9), TrainConfig(batch_size=4), p)
    m, t = load_config(p)
    assert m.seed == 9 and t.batch_size == 4 and t.seed == 9


@pytest.mark.parametrize("bad", [
    {"lr": "abc"},
    {"epochs": "3"},
    {"dec_d": "64"},
    {"use_keywords": "no"},
    {"seed": True},            # a bool is not an int
    {"batch_size": 4.0},
], ids=["str-float", "str-int", "str-model-int", "str-bool", "bool-int",
        "float-int"])
def test_wrong_typed_values_rejected(tmp_path, bad):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_int_accepted_for_float_field(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"lr": 1, "lambda_align": 0}))
    _, t = load_config(str(p))
    assert t.lr == 1.0 and isinstance(t.lr, float)
    assert t.lambda_align == 0.0


def test_non_object_config_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("5")
    with pytest.raises(ConfigError):
        load_config(str(p))


@pytest.mark.parametrize("stored, expect", [
    ({"dtype": "float64"}, "float64"),   # written before float32 became the default
    ({"seed": 3}, "float32"),            # no dtype key: the default
])
def test_config_file_dtype(tmp_path, stored, expect):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(stored))
    model_cfg, train_cfg = load_config(str(p))
    assert model_cfg.dtype == expect
    params = ReportModel(model_cfg).params.values()
    assert {q.data.dtype for q in params} == {np.dtype(expect)}
    assert config_to_dict(model_cfg, train_cfg)["dtype"] == expect
