"""Tests for the first fusion stage (shared projection + bidirectional cross-attention)."""

import numpy as np
import pytest

from fusegen import abstractor as A
from fusegen import tensor as T
from fusegen.tensor import ShapeError, Tensor
from fusegen.verify import toy_config

RNG = np.random.default_rng(13)


def _setup(mode="softmax"):
    cfg = toy_config(attn_norm=mode)
    params = A.init_abstractor(cfg, np.random.default_rng(3))
    v_e = Tensor(RNG.normal(0, 1, (2, 5, cfg.e_v)))
    l_e = Tensor(RNG.normal(0, 1, (2, 3, cfg.e_l)))
    return cfg, params, v_e, l_e


def test_output_shapes():
    cfg, params, v_e, l_e = _setup()
    f1 = A.abstractor_forward(v_e, l_e, params, cfg)
    v_p, l_p = A.project_modalities(v_e, l_e, params)
    (v2l, l2v), _ = A.bidirectional_cross_attention(v_p, l_p, cfg.attn_norm)
    assert v_p.shape == (2, 5, cfg.p)
    assert l_p.shape == (2, 3, cfg.p)
    assert v2l.shape == (2, 5, cfg.p)
    assert l2v.shape == (2, 3, cfg.p)
    assert f1.shape == (2, 8, cfg.p)


def test_f1_row_order_visual_first():
    cfg, params, v_e, l_e = _setup()
    f1 = A.abstractor_forward(v_e, l_e, params, cfg)
    (v2l, l2v), _ = A.bidirectional_cross_attention(
        *A.project_modalities(v_e, l_e, params), cfg.attn_norm)
    np.testing.assert_allclose(f1.data[:, :5], v2l.data)
    np.testing.assert_allclose(f1.data[:, 5:], l2v.data)


def test_projection_straight_line_oracle():
    cfg, params, v_e, l_e = _setup()

    def np_gelu(x):
        c = np.sqrt(2.0 / np.pi)
        return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))

    v_expect = np_gelu(np_gelu(v_e.data @ params["abs.v.w0"].data + params["abs.v.b0"].data)
                       @ params["abs.v.w1"].data + params["abs.v.b1"].data)
    v_p, _ = A.project_modalities(v_e, l_e, params)
    np.testing.assert_allclose(v_p.data, v_expect, atol=1e-12)


def test_cross_attention_straight_line_oracle():
    cfg, params, v_e, l_e = _setup()
    v_p, l_p = A.project_modalities(v_e, l_e, params)
    (v2l, l2v), _ = A.bidirectional_cross_attention(v_p, l_p, "softmax")

    scale = 1.0 / np.sqrt(cfg.p)
    logits = v_p.data @ np.swapaxes(l_p.data, -1, -2) * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(v2l.data, w @ l_p.data, atol=1e-12)


def test_attention_rows_are_stochastic():
    cfg, params, v_e, l_e = _setup()
    v_p, l_p = A.project_modalities(v_e, l_e, params)
    _, (w_v2l, w_l2v) = A.bidirectional_cross_attention(v_p, l_p, "softmax")
    np.testing.assert_allclose(w_v2l.data.sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(w_l2v.data.sum(axis=-1), 1.0, atol=1e-9)
    assert (w_v2l.data >= 0).all() and (w_l2v.data >= 0).all()


def test_v2l_rows_in_convex_hull_of_language_rows():
    # recover simplex weights from the output by least squares
    cfg, params, v_e, l_e = _setup()
    v_p, l_p = A.project_modalities(v_e, l_e, params)
    (v2l, _), _ = A.bidirectional_cross_attention(v_p, l_p, "softmax")
    basis = l_p.data[0]                      # (3, P)
    for row in v2l.data[0]:
        w, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
        np.testing.assert_allclose(basis.T @ w, row, atol=1e-8)
        assert w.min() > -1e-9
        assert abs(w.sum() - 1.0) < 1e-8


def test_language_mask_removes_padded_keys():
    cfg, params, v_e, l_e = _setup()
    v_p, l_p = A.project_modalities(v_e, l_e, params)
    l_mask = np.array([[True, True, False], [True, True, True]])
    (_, _), (w_v2l, _) = A.bidirectional_cross_attention(
        v_p, l_p, "softmax", l_mask=l_mask)
    assert (w_v2l.data[0, :, 2] == 0.0).all()
    np.testing.assert_allclose(w_v2l.data.sum(axis=-1), 1.0, atol=1e-9)


def test_sigmoid_mode_weights_are_gates():
    cfg, params, v_e, l_e = _setup("sigmoid")
    v_p, l_p = A.project_modalities(v_e, l_e, params)
    _, (w_v2l, _) = A.bidirectional_cross_attention(v_p, l_p, "sigmoid")
    assert (w_v2l.data > 0).all() and (w_v2l.data < 1).all()


def test_width_mismatch_raises():
    with pytest.raises(ShapeError):
        A.bidirectional_cross_attention(Tensor(np.zeros((1, 2, 4))),
                                        Tensor(np.zeros((1, 2, 5))))


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
def test_forward_grad_check(mode):
    cfg, params, v_e, l_e = _setup(mode)
    r = Tensor(RNG.normal(0, 1, (2, 8, cfg.p)))

    def f(v):
        return (A.abstractor_forward(v, l_e, params, cfg) * r).sum()

    assert T.grad_check(f, v_e) < 1e-6


def test_sigmoid_fully_masked_row_gets_zero_weights():
    # softmax raises on a row with every key masked; sigmoid gates stay defined
    cfg, params, v_e, l_e = _setup("sigmoid")
    v_p, l_p = A.project_modalities(v_e, l_e, params)
    l_mask = np.array([[False, False, False], [True, True, False]])
    (v2l, _), (w_v2l, _) = A.bidirectional_cross_attention(
        v_p, l_p, "sigmoid", l_mask=l_mask)
    assert (w_v2l.data[0] == 0.0).all() and (v2l.data[0] == 0.0).all()
    assert (w_v2l.data[1, :, :2] > 0).all() and (w_v2l.data[1, :, 2] == 0.0).all()
