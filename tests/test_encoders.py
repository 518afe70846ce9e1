"""Tests for the visual and keyword encoders."""

import numpy as np
import pytest

from fusegen import encoders
from fusegen import tensor as T
from fusegen.config import ConfigError, ModelConfig
from fusegen.tensor import Tensor
from fusegen.verify import toy_config

RNG = np.random.default_rng(11)


def _img_params(cfg, seed=0):
    return encoders.init_image_encoder(cfg, np.random.default_rng(seed))


def _kw_params(cfg, seed=0):
    return encoders.init_keyword_encoder(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------
# image encoder
# ---------------------------------------------------------------------

def test_image_encoder_output_shape():
    cfg = toy_config()
    params = _img_params(cfg)
    imgs = RNG.uniform(0, 1, (3, cfg.image_side, cfg.image_side, 1))
    out = encoders.encode_image(imgs, params, cfg)
    assert out.v_e.shape == (3, cfg.s_v, cfg.e_v)
    assert out.grid_side == cfg.image_side // 8


def test_image_encoder_accepts_single_image():
    cfg = toy_config()
    params = _img_params(cfg)
    img = RNG.uniform(0, 1, (cfg.image_side, cfg.image_side, 1))
    out = encoders.encode_image(img, params, cfg)
    assert out.v_e.shape == (1, cfg.s_v, cfg.e_v)


def test_image_encoder_rejects_bad_side():
    cfg = toy_config()
    params = _img_params(cfg)
    with pytest.raises(ConfigError):
        encoders.encode_image(RNG.uniform(0, 1, (1, 12, 12, 1)), params, cfg)
    with pytest.raises(ConfigError):
        encoders.encode_image(RNG.uniform(0, 1, (1, 16, 24, 1)), params, cfg)


def test_image_encoder_runs_in_the_model_dtype():
    cfg = toy_config(dtype="float32")
    params = {k: Tensor(p.data.astype(np.float32), requires_grad=True)
              for k, p in _img_params(cfg).items()}
    img = RNG.uniform(0, 1, (2, cfg.image_side, cfg.image_side, 1))
    assert encoders.encode_image(img, params, cfg).v_e.data.dtype == np.float32
    with pytest.raises(ConfigError, match="float64.*float32"):
        encoders.encode_image(Tensor(img), params, cfg)
    x = Tensor(img.astype(np.float32), requires_grad=True)
    v = encoders.encode_image(x, params, cfg).v_e
    assert v.data.dtype == np.float32
    (v * v).sum().backward()
    assert x.grad.dtype == np.float32 and np.abs(x.grad).sum() > 0


def test_patch_merge_oracle():
    # fold must gather each 2x2 spatial block into one feature row
    x = RNG.normal(0, 1, (1, 4, 4, 3))
    out = encoders._patch_merge(Tensor(x)).data
    assert out.shape == (1, 2, 2, 12)
    block = x[0, 0:2, 0:2, :]          # (2, 2, 3) -> row-major flatten
    np.testing.assert_allclose(out[0, 0, 0], block.reshape(-1))
    block = x[0, 2:4, 2:4, :]
    np.testing.assert_allclose(out[0, 1, 1], block.reshape(-1))


def test_image_encoder_straight_line_oracle():
    """Recompute the whole visual path with plain numpy."""
    cfg = toy_config()
    params = _img_params(cfg)
    img = RNG.uniform(0, 1, (1, cfg.image_side, cfg.image_side, 1))

    def np_gelu(x):
        c = np.sqrt(2.0 / np.pi)
        return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))

    x = img.copy()
    for i in range(3):
        n, h, w, c = x.shape
        x = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
        x = x.reshape(n, h // 2, w // 2, 4 * c)
        x = np_gelu(x @ params[f"img.block{i}.w"].data + params[f"img.block{i}.b"].data)
    g = cfg.image_side // 8
    x = x.reshape(1, g * g, cfg.e_v) + params["img.pos"].data
    scores = (x @ params["img.ctx.w_score"].data)[..., 0]
    w = np.exp(scores - scores.max())
    w /= w.sum()
    ctx = (w[..., None] * x).sum(axis=1, keepdims=True)
    expect = x + ctx @ params["img.ctx.w_proj"].data

    got = encoders.encode_image(img, params, cfg).v_e.data
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_image_encoder_not_permutation_invariant():
    # the positional embedding must distinguish grid cells
    cfg = toy_config()
    params = _img_params(cfg)
    img = np.zeros((1, cfg.image_side, cfg.image_side, 1))
    img[0, 0:4, 0:4, 0] = 1.0
    moved = np.zeros_like(img)
    moved[0, 8:12, 8:12, 0] = 1.0
    a = encoders.encode_image(img, params, cfg).v_e.data
    b = encoders.encode_image(moved, params, cfg).v_e.data
    # sorting rows cannot make the two feature sets equal
    assert not np.allclose(np.sort(a, axis=1), np.sort(b, axis=1))


# ---------------------------------------------------------------------
# keyword encoder
# ---------------------------------------------------------------------

def test_keyword_encoder_shape_and_mask():
    cfg = toy_config()
    params = _kw_params(cfg)
    ids = RNG.integers(0, cfg.vocab_size, (2, cfg.s_l))
    mask = np.array([[True, True, False, False], [True, True, True, True]])
    out = encoders.encode_keywords(ids, params, cfg, mask=mask)
    assert out.l_e.shape == (2, cfg.s_l, cfg.e_l)
    np.testing.assert_array_equal(out.mask, mask)


def test_padding_ids_cannot_leak_into_valid_positions():
    for mode in ("softmax", "sigmoid"):
        cfg = toy_config(attn_norm=mode)
        params = _kw_params(cfg)
        ids = np.array([[5, 6, 1, 2]])
        mask = np.array([[True, True, False, False]])
        a = encoders.encode_keywords(ids, params, cfg, mask=mask).l_e.data
        ids2 = ids.copy()
        ids2[0, 2:] = [9, 9]          # change only padded positions
        b = encoders.encode_keywords(ids2, params, cfg, mask=mask).l_e.data
        np.testing.assert_allclose(a[0, :2], b[0, :2], atol=1e-12, err_msg=mode)


def test_fully_masked_keywords_raise_instead_of_nan():
    cfg = toy_config()
    params = _kw_params(cfg)
    ids = np.array([[5, 6, 1, 2], [5, 6, 1, 2]])
    mask = np.array([[True, True, False, False], [False] * 4])
    with pytest.raises(T.NonFiniteError, match="all -inf"):
        encoders.encode_keywords(ids, params, cfg, mask=mask)


def test_keyword_encoder_rejects_overlong():
    cfg = toy_config()
    params = _kw_params(cfg)
    with pytest.raises(ConfigError):
        encoders.encode_keywords(np.zeros((1, cfg.s_l + 1), dtype=int), params, cfg)


def test_keyword_encoder_permutation_sensitivity():
    # with positions on, token order matters
    cfg = toy_config()
    params = _kw_params(cfg)
    a = encoders.encode_keywords(np.array([[5, 6, 7, 8]]), params, cfg).l_e.data
    b = encoders.encode_keywords(np.array([[8, 7, 6, 5]]), params, cfg).l_e.data
    assert not np.allclose(np.sort(a, axis=1), np.sort(b, axis=1))


def test_encoders_grad_flow():
    cfg = toy_config()
    params = {}
    params.update(_img_params(cfg))
    params.update(_kw_params(cfg))
    img = RNG.uniform(0, 1, (1, cfg.image_side, cfg.image_side, 1))
    ids = np.array([[5, 6, 7, 8]])
    v = encoders.encode_image(img, params, cfg).v_e
    l = encoders.encode_keywords(ids, params, cfg).l_e
    ((v * v).sum() + (l * l).sum()).backward()
    for name in ("img.block0.w", "img.pos", "kw.embed", "kw.layer0.attn.w_q"):
        assert params[name].grad is not None
        assert np.abs(params[name].grad).sum() > 0
