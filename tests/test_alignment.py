"""Tests for the contrastive alignment head."""

import math

import numpy as np
import pytest

from fusegen import alignment as AL
from fusegen import tensor as T
from fusegen.tensor import ShapeError, Tensor
from fusegen.verify import toy_config

RNG = np.random.default_rng(19)


def _params(cfg=None, seed=0):
    return AL.init_alignment(cfg or toy_config(), np.random.default_rng(seed))


# ---------------------------------------------------------------------
# temperature
# ---------------------------------------------------------------------

def test_temperature_initializes_near_one():
    params = _params()
    assert AL.temperature(params).item() == pytest.approx(1.0 + AL.TEMPERATURE_FLOOR,
                                                          abs=1e-9)


def test_temperature_stays_positive():
    params = _params()
    params["aln.tau.raw"].data[:] = -50.0
    assert AL.temperature(params).item() >= AL.TEMPERATURE_FLOOR


# ---------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------

def test_l2_normalize_unit_rows():
    x = Tensor(RNG.normal(0, 3, (5, 8)))
    out = AL.l2_normalize(x)
    degenerate = ~out.data.any(axis=-1)
    np.testing.assert_allclose((out.data ** 2).sum(-1), 1.0, atol=1e-9)
    assert not degenerate.any()


def test_l2_normalize_degenerate_rows_stay_zero():
    x = np.zeros((3, 4))
    x[1] = RNG.normal(0, 1, 4)
    out = AL.l2_normalize(Tensor(x))
    degenerate = ~out.data.any(axis=-1)
    np.testing.assert_array_equal(degenerate, [True, False, True])
    np.testing.assert_allclose(out.data[0], 0.0)
    np.testing.assert_allclose(out.data[2], 0.0)


# ---------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------

def test_pool_fusion_row_mask_is_mean_over_valid_rows():
    cfg = toy_config()
    params = _params(cfg)
    f = Tensor(RNG.normal(0, 1, (2, 6, cfg.p)))
    mask = np.ones((2, 6), dtype=bool)
    mask[0, 4:] = False
    out = AL.pool_fusion(f, params, row_mask=mask)
    pooled = f.data[0, :4].mean(axis=0)
    expect = pooled @ params["aln.pool.w"].data + params["aln.pool.b"].data
    expect /= np.linalg.norm(expect)
    np.testing.assert_allclose(out.data[0], expect, atol=1e-9)


def test_embed_report_masked_mean():
    cfg = toy_config()
    params = _params(cfg)
    ids = np.array([[3, 4, 0, 0]])
    mask = np.array([[True, True, False, False]])
    out = AL.embed_report(ids, params, mask=mask)
    pooled = params["aln.rep.embed"].data[[3, 4]].mean(axis=0)
    expect = pooled @ params["aln.rep.w"].data + params["aln.rep.b"].data
    expect /= np.linalg.norm(expect)
    np.testing.assert_allclose(out.data[0], expect, atol=1e-9)


def test_embed_report_rejects_empty():
    params = _params()
    with pytest.raises(ValueError):
        AL.embed_report(np.zeros((1, 0), dtype=int), params, mask=np.ones((1, 0), dtype=bool))
    with pytest.raises(ValueError):
        AL.embed_report(np.array([[1, 2]]), params,
                        mask=np.array([[False, False]]))


# ---------------------------------------------------------------------
# the contrastive loss itself
# ---------------------------------------------------------------------

def test_info_nce_single_pair_is_zero():
    f = Tensor(np.array([[1.0, 0.0]]))
    r = Tensor(np.array([[0.0, 1.0]]))
    loss = AL.info_nce(f, r, Tensor(np.array([0.7])))
    assert loss.item() == 0.0


def test_info_nce_identical_rows_is_log_n():
    for n in (2, 3, 5):
        row = RNG.normal(0, 1, 6)
        row /= np.linalg.norm(row)
        f = Tensor(np.tile(row, (n, 1)))
        loss = AL.info_nce(f, Tensor(f.data.copy()), Tensor(np.array([0.37])))
        assert loss.item() == pytest.approx(math.log(n), abs=1e-9)


def test_info_nce_orthonormal_three_way():
    f = Tensor(np.eye(3))
    loss = AL.info_nce(f, Tensor(np.eye(3)), Tensor(np.array([1.0])))
    expect = -math.log(math.e / (math.e + 2.0))
    assert loss.item() == pytest.approx(expect, abs=1e-9)


def test_info_nce_finite_at_temperature_floor():
    # opposing unit vectors at tau = 1e-3: logits of +-1000 underflow exp()
    f = Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]]), requires_grad=True)
    r = Tensor(np.array([[-1.0, 0.0], [1.0, 0.0]]), requires_grad=True)
    tau = Tensor(np.array([AL.TEMPERATURE_FLOOR]), requires_grad=True)
    loss = AL.info_nce(f, r, tau)
    assert loss.item() == pytest.approx(2000.0, rel=1e-12)
    loss.backward()
    for t in (f, r, tau):
        assert np.isfinite(t.grad).all()


def test_info_nce_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        AL.info_nce(Tensor(np.eye(3)), Tensor(np.eye(4)), Tensor(np.array([1.0])))


def test_info_nce_decreases_when_positives_dominate():
    base = np.eye(4)
    noise = AL.l2_normalize(Tensor(RNG.normal(0, 1, (4, 4))))
    tau = Tensor(np.array([0.3]))
    aligned = AL.info_nce(Tensor(base), Tensor(base), tau).item()
    random = AL.info_nce(Tensor(base), Tensor(noise.data), tau).item()
    assert aligned < random


def test_info_nce_gradient():
    r = AL.l2_normalize(Tensor(RNG.normal(0, 1, (3, 5))))
    r = Tensor(r.data)
    tau = Tensor(np.array([0.8]))

    def f(x):
        emb = AL.l2_normalize(x)
        return AL.info_nce(emb, r, tau)

    assert T.grad_check(f, Tensor(RNG.normal(0, 1, (3, 5)))) < 1e-6
