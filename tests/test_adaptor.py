"""Tests for the second fusion stage (modality gate + decoupled attention)."""

import numpy as np
import pytest

from fusegen import adaptor as AD
from fusegen import tensor as T
from fusegen.tensor import ShapeError, Tensor
from fusegen.verify import toy_config

RNG = np.random.default_rng(17)


def _setup(mode="softmax"):
    cfg = toy_config(attn_norm=mode)
    params = AD.init_adaptor(cfg, np.random.default_rng(5))
    v_e = Tensor(RNG.normal(0, 1, (2, cfg.s_v, cfg.e_v)))
    l_e = Tensor(RNG.normal(0, 1, (2, cfg.s_l, cfg.e_l)))
    return cfg, params, v_e, l_e


def test_gate_initialization_targets():
    cfg, params, _, _ = _setup()
    gate = T.sigmoid(params["adp.ind.raw"]).data
    np.testing.assert_allclose(gate[:cfg.s_v], 0.1, atol=1e-12)
    np.testing.assert_allclose(gate[cfg.s_v:], 0.9, atol=1e-12)


def test_unified_input_stacks_segments():
    cfg, params, v_e, l_e = _setup()
    x = AD.build_unified_input(v_e, l_e, params)
    assert x.shape == (2, cfg.s_v + cfg.s_l, cfg.e_l)
    expect_v = v_e.data @ params["adp.proj.w"].data + params["adp.proj.b"].data
    np.testing.assert_allclose(x.data[:, :cfg.s_v], expect_v, atol=1e-12)
    np.testing.assert_allclose(x.data[:, cfg.s_v:], l_e.data, atol=1e-12)


def test_indicator_scales_rows():
    cfg, params, v_e, l_e = _setup()
    x = AD.build_unified_input(v_e, l_e, params)
    x_v, x_l, gate = AD.apply_modality_indicator(x, params["adp.ind.raw"], cfg.s_v)
    np.testing.assert_allclose(x_v.data, x.data[:, :cfg.s_v] * gate.data[:cfg.s_v, None],
                               atol=1e-12)
    np.testing.assert_allclose(x_l.data, x.data[:, cfg.s_v:] * gate.data[cfg.s_v:, None],
                               atol=1e-12)


def test_indicator_length_mismatch_raises():
    cfg, params, v_e, l_e = _setup()
    x = AD.build_unified_input(v_e, l_e, params)
    with pytest.raises(ShapeError):
        AD.apply_modality_indicator(x, Tensor(np.zeros(3)), cfg.s_v)


def test_forward_shapes():
    cfg, params, v_e, l_e = _setup()
    out = AD.adaptor_forward(v_e, l_e, params, cfg)
    s = cfg.s_v + cfg.s_l
    assert out.x_unified.shape == (2, s, cfg.e_l)
    assert out.gate.shape == (s,)
    assert out.f2.shape == (2, s, cfg.p)


def test_decoupled_attention_straight_line_oracle():
    """Recompute F2 with plain numpy: shared queries, per-segment keys/values."""
    cfg, params, v_e, l_e = _setup()
    out = AD.adaptor_forward(v_e, l_e, params, cfg)

    def np_ln(x, g, b, eps):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    x = np.concatenate([v_e.data @ params["adp.proj.w"].data + params["adp.proj.b"].data,
                        l_e.data], axis=1)
    gate = 1.0 / (1.0 + np.exp(-params["adp.ind.raw"].data))
    xg = x * gate[:, None]
    xv, xl = xg[:, :cfg.s_v], xg[:, cfg.s_v:]
    nv = np_ln(xv, params["adp.ln_v.g"].data, params["adp.ln_v.b"].data, 1e-5)
    nl = np_ln(xl, params["adp.ln_l.g"].data, params["adp.ln_l.b"].data, 1e-5)
    q = np.concatenate([nv, nl], axis=1) @ params["adp.w_q"].data
    k = np.concatenate([xv @ params["adp.w_kv"].data, xl @ params["adp.w_kl"].data], axis=1)
    v = np.concatenate([xv @ params["adp.w_vv"].data, xl @ params["adp.w_vl"].data], axis=1)
    logits = q @ np.swapaxes(k, -1, -2) / np.sqrt(cfg.p)
    e = np.exp(logits - logits.max(-1, keepdims=True))
    w = e / e.sum(-1, keepdims=True)
    np.testing.assert_allclose(out.f2.data, w @ v, atol=1e-10)


def test_language_mask_blocks_padded_keys():
    for mode in ("softmax", "sigmoid"):
        cfg, params, v_e, l_e = _setup(mode)
        l_mask = np.zeros((2, cfg.s_l), dtype=bool)
        l_mask[:, :2] = True
        a = AD.adaptor_forward(v_e, l_e, params, cfg, l_mask=l_mask).f2.data
        l2 = Tensor(l_e.data.copy())
        l2.data[:, 2:] += 5.0       # only padded keyword rows change
        b = AD.adaptor_forward(v_e, l2, params, cfg, l_mask=l_mask).f2.data
        # rows that query from the visual segment and valid language rows agree
        np.testing.assert_allclose(a[:, :cfg.s_v + 2], b[:, :cfg.s_v + 2], atol=1e-12,
                                   err_msg=mode)


def test_zero_visual_gate_makes_f2_image_independent():
    cfg, params, v_e, l_e = _setup()
    params["adp.ind.raw"].data[:cfg.s_v] = -np.inf
    a = AD.adaptor_forward(v_e, l_e, params, cfg).f2.data
    v2 = Tensor(RNG.normal(0, 1, v_e.shape))
    b = AD.adaptor_forward(v2, l_e, params, cfg).f2.data
    np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
def test_forward_grad_check(mode):
    cfg, params, v_e, l_e = _setup(mode)
    r = Tensor(RNG.normal(0, 1, (2, cfg.s_v + cfg.s_l, cfg.p)))

    def f(v):
        return (AD.adaptor_forward(v, l_e, params, cfg).f2 * r).sum()

    assert T.grad_check(f, v_e) < 1e-6
