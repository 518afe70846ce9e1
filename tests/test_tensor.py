"""Unit tests for the autodiff tensor engine.

Every differentiable op is checked against central differences; structural
behavior (broadcasting, tape reuse, masking) is checked directly.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from op_oracles import composed_layer_norm, composed_nll, composed_rms_norm, composed_rope

from fusegen import decoder as DEC
from fusegen import tensor as T
from fusegen.tensor import NonFiniteError, ShapeError, Tensor

RNG = np.random.default_rng(7)
TOL = 1e-6


def _gc(f, x, h=1e-5):
    return T.grad_check(f, Tensor(x), h=h)


# ---------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------

# fixed operands: grad_check re-evaluates the closure, so it must be pure
_B = Tensor(RNG.normal(0, 1, (3, 4)))


@pytest.mark.parametrize("op", [
    lambda x: (x + _B).sum(),
    lambda x: (x * _B).sum(),
    lambda x: T.exp(x).sum(),
    lambda x: T.sigmoid(x).sum(),
    lambda x: T.gelu(x).sum(),
    lambda x: T.silu(x).sum(),
    lambda x: T.pow_const(x * x + 1.0, 1.7).sum(),
], ids=["add", "mul", "exp", "sigmoid", "gelu", "silu", "pow_const"])
def test_elementwise_grads(op):
    assert _gc(op, RNG.normal(0, 1, (3, 4))) < TOL


def test_log_grads():
    x = RNG.uniform(0.5, 3.0, (3, 4))
    assert _gc(lambda t: T.log(t).sum(), x) < TOL


def test_broadcast_add_unbroadcasts_grad():
    b = Tensor(np.zeros(4), requires_grad=True)
    x = Tensor(RNG.normal(0, 1, (3, 4)))
    (x + b).sum().backward()
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


def test_broadcast_mul_grad_check():
    r = Tensor(RNG.normal(0, 1, (5, 1, 4)))
    assert _gc(lambda x: (x * r).sum(), RNG.normal(0, 1, (1, 3, 4))) < TOL


# ---------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------

def test_matmul_grad_2d():
    b = Tensor(RNG.normal(0, 1, (4, 5)))
    assert _gc(lambda x: T.matmul(x, b).sum(), RNG.normal(0, 1, (3, 4))) < TOL


def test_matmul_grad_broadcast_batch():
    # leading axes broadcast: (2, 1, 3, 4) @ (5, 4, 2)
    b = Tensor(RNG.normal(0, 1, (5, 4, 2)))
    r = Tensor(RNG.normal(0, 1, (2, 5, 3, 2)))
    assert _gc(lambda x: (T.matmul(x, b) * r).sum(),
               RNG.normal(0, 1, (2, 1, 3, 4))) < TOL


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_sum_mean_axes():
    x = RNG.normal(0, 1, (2, 3, 4))
    r = Tensor(RNG.normal(0, 1, (2, 4)))
    assert _gc(lambda t: (t.sum(axis=1) * r).sum(), x) < TOL


def test_reshape_transpose_grads():
    x = RNG.normal(0, 1, (2, 3, 4))
    r = Tensor(RNG.normal(0, 1, (4, 6)))
    assert _gc(lambda t: (t.reshape(4, 6) * r).sum(), x) < TOL
    r2 = Tensor(RNG.normal(0, 1, (4, 2, 3)))
    assert _gc(lambda t: (t.transpose(2, 0, 1) * r2).sum(), x) < TOL


def test_concat_grad():
    b = Tensor(RNG.normal(0, 1, (2, 3)), requires_grad=True)
    a = Tensor(RNG.normal(0, 1, (2, 2)), requires_grad=True)
    out = T.concat([a, b], axis=1)
    r = RNG.normal(0, 1, (2, 5))
    (out * Tensor(r)).sum().backward()
    np.testing.assert_allclose(a.grad, r[:, :2])
    np.testing.assert_allclose(b.grad, r[:, 2:])


@pytest.mark.parametrize("idx", [np.s_[1:3], np.s_[..., 1], np.s_[2], np.s_[::2, 1:]])
def test_getitem_grad_matches_add_at(idx):
    x = Tensor(RNG.normal(0, 1, (4, 3)), requires_grad=True)
    r = RNG.normal(0, 1, x.data[idx].shape)
    (x[idx] * Tensor(r)).sum().backward()
    expect = np.zeros((4, 3))
    np.add.at(expect, idx, r)
    np.testing.assert_array_equal(x.grad, expect)


def test_getitem_rejects_array_index():
    # the backward assigns, which would drop a repeated index's second share
    x = Tensor(RNG.normal(0, 1, (4, 3)), requires_grad=True)
    for idx in (np.array([1, 1, 2]), np.s_[[0, 2, 0]], np.s_[np.array([3, 1]), 1:]):
        with pytest.raises(TypeError, match="ints, slices"):
            x[idx]


def test_embedding_lookup_and_grad():
    table = Tensor(RNG.normal(0, 1, (6, 3)), requires_grad=True)
    ids = np.array([[0, 5], [5, 2]])
    out = T.embedding(table, ids)
    np.testing.assert_allclose(out.data, table.data[ids])
    out.sum().backward()
    assert table.grad[5].sum() == pytest.approx(2 * 3)
    with pytest.raises(IndexError):
        T.embedding(table, np.array([6]))


def test_mask_fill_blocks_gradient():
    x = Tensor(RNG.normal(0, 1, (2, 3)), requires_grad=True)
    mask = np.array([[True, False, False], [False, False, True]])
    T.mask_fill(x, mask, -1.0).sum().backward()
    np.testing.assert_allclose(x.grad, (~mask).astype(float))


# ---------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------

def test_softmax_rows_sum_to_one():
    w = T.softmax_rows(Tensor(RNG.normal(0, 3, (4, 7)))).data
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_rows_neg_inf_gets_zero():
    logits = np.array([[0.0, -np.inf, 1.0]])
    w = T.softmax_rows(Tensor(logits)).data
    assert w[0, 1] == 0.0
    np.testing.assert_allclose(w.sum(), 1.0)


def test_softmax_rows_rejects_nan_posinf():
    with pytest.raises(NonFiniteError):
        T.softmax_rows(Tensor(np.array([0.0, np.nan])))
    with pytest.raises(NonFiniteError):
        T.softmax_rows(Tensor(np.array([0.0, np.inf])))


def test_fully_masked_row_raises_instead_of_nan():
    rows = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    with pytest.raises(NonFiniteError, match="all -inf"):
        T.softmax_rows(Tensor(rows))
    with pytest.raises(NonFiniteError, match="all -inf"):
        T.nll(Tensor(np.array([[-np.inf, -np.inf]])), np.array([0]), np.array([True]))


def test_softmax_grad():
    r = Tensor(RNG.normal(0, 1, (3, 5)))
    assert _gc(lambda x: (T.softmax_rows(x) * r).sum(), RNG.normal(0, 1, (3, 5))) < TOL


def test_layer_norm_matches_numpy_and_grad():
    x = RNG.normal(0, 2, (4, 6))
    g = Tensor(RNG.normal(1, 0.3, 6))
    b = Tensor(RNG.normal(0, 0.3, 6))
    out = T.layer_norm(Tensor(x), g, b, 1e-5).data
    ref = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
    np.testing.assert_allclose(out, ref * g.data + b.data, atol=1e-12)
    r = Tensor(RNG.normal(0, 1, (4, 6)))
    assert _gc(lambda t: (T.layer_norm(t, g, b) * r).sum(), x) < TOL


def test_rms_norm_matches_numpy_and_grad():
    x = RNG.normal(0, 2, (4, 6))
    g = Tensor(RNG.normal(1, 0.3, 6))
    out = T.rms_norm(Tensor(x), g, 1e-5).data
    ref = x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-5)
    np.testing.assert_allclose(out, ref * g.data, atol=1e-12)
    r = Tensor(RNG.normal(0, 1, (4, 6)))
    assert _gc(lambda t: (T.rms_norm(t, g) * r).sum(), x) < TOL


def test_nll_stays_finite_at_large_gaps():
    x = Tensor(np.array([[0.0, 800.0, 0.0], [-np.inf, 1.0, 2.0]]), requires_grad=True)
    out = T.nll(x, np.array([0, 2]), np.array([True, True]))
    assert out.item() == pytest.approx(800.0 + np.log1p(np.exp(-1.0)))
    out.backward()
    assert np.isfinite(x.grad).all()
    s = 1.0 / (1.0 + np.e)       # softmax minus the one-hot; -inf gets no weight
    np.testing.assert_allclose(x.grad, [[-1.0, 1.0, 0.0], [0.0, s, -s]], rtol=1e-12)
    with pytest.raises(NonFiniteError):
        T.nll(Tensor(np.array([0.0, np.nan])), np.array(0), np.array(True))


# ---------------------------------------------------------------------
# fused ops against the composed forms they replace
# ---------------------------------------------------------------------

_NLL_TARGETS = np.random.default_rng(1).integers(0, 6, (2, 3, 5))
_NLL_MASK = np.random.default_rng(2).random((2, 3, 5)) < 0.7
_FUSED = {
    # name: (fused op, composed oracle, parameter shapes)
    "rms_norm": (lambda x, p: T.rms_norm(x, p["g"]),
                 lambda x, p: composed_rms_norm(x, p["g"]), {"g": (6,)}),
    "layer_norm": (lambda x, p: T.layer_norm(x, p["g"], p["b"]),
                   lambda x, p: composed_layer_norm(x, p["g"], p["b"]), {"g": (6,), "b": (6,)}),
    "rope_apply": (lambda x, p: DEC.rope_apply(x, 3),
                   lambda x, p: composed_rope(x, 3), {}),
    "nll": (lambda x, p: T.nll(x, _NLL_TARGETS, _NLL_MASK),
            lambda x, p: composed_nll(x, _NLL_TARGETS, _NLL_MASK), {}),
}
_BITWISE = {"rms_norm", "layer_norm", "rope_apply"}


def _fused_case(name, dtype=np.float64):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0, 2, (2, 3, 5, 6)).astype(dtype), requires_grad=True)
    params = {k: Tensor(rng.normal(1, 0.3, shape).astype(dtype), requires_grad=True)
              for k, shape in _FUSED[name][2].items()}
    r = Tensor(rng.normal(0, 1, x.shape).astype(dtype))
    return x, params, r


def _grads(op, x, params, r):
    for t in (x, *params.values()):
        t.grad = None
    out = op(x, params)
    (out * r).sum().backward()
    return out.data, {"x": x.grad, **{k: p.grad for k, p in params.items()}}


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_op_matches_composed_form(name):
    fused, composed, _ = _FUSED[name]
    x, params, r = _fused_case(name)
    out_f, grads_f = _grads(fused, x, params, r)
    out_c, grads_c = _grads(composed, x, params, r)
    if name in _BITWISE:
        np.testing.assert_array_equal(out_f, out_c)
    np.testing.assert_allclose(out_f, out_c, rtol=1e-13, atol=1e-14)
    for k in grads_c:
        np.testing.assert_allclose(grads_f[k], grads_c[k], rtol=1e-10, atol=1e-12, err_msg=k)


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_op_grad_check(name):
    fused = _FUSED[name][0]
    x, params, r = _fused_case(name)
    err = T.grad_check_params(lambda: (fused(x, params) * r).sum(), {"x": x, **params})
    assert err < TOL


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_op_keeps_float32(name):
    x, params, r = _fused_case(name, dtype=np.float32)
    out, grads = _grads(_FUSED[name][0], x, params, r)
    assert out.dtype == np.float32
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


# ---------------------------------------------------------------------
# tape discipline
# ---------------------------------------------------------------------

def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_tape_is_single_use():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_fanout_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0          # dy/dx = 2x + 3 = 7
    y.sum().backward()
    assert x.grad[0] == pytest.approx(7.0)


def _scaled_chain(x, n):
    y = x
    for _ in range(n):
        y = y * 1.01
    return y.sum()


def test_backward_frees_each_node_once_its_closure_has_run():
    # 40 mul nodes on a 1 MB array hold 40 MB of tape; a backward that kept
    # every visited node (with its new grad) until the end would add ~40 MB
    x = Tensor(np.ones(1 << 17), requires_grad=True)
    nbytes = x.data.nbytes
    tracemalloc.start()
    try:
        loss = _scaled_chain(x, 40)
        forward_live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - forward_live < 5 * nbytes
    np.testing.assert_allclose(x.grad, np.full(x.shape, 1.01 ** 40), rtol=1e-12)


def test_backward_keeps_what_the_caller_holds():
    x = Tensor(np.arange(3.0), requires_grad=True)
    mid = x * 2.0
    out = mid * 3.0
    out.sum().backward()
    np.testing.assert_array_equal(mid.data, [0.0, 2.0, 4.0])
    np.testing.assert_array_equal(mid.grad, [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(out.grad, np.ones(3))
    np.testing.assert_array_equal(x.grad, [6.0, 6.0, 6.0])


def test_no_grad_records_no_tape():
    x = Tensor(RNG.normal(0, 1, (3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(0, 1, (4, 2)), requires_grad=True)
    with T.no_grad():
        outs = [T.matmul(x, w), x * 2.0, T.softmax_rows(x), T.rms_norm(x, x[0]),
                T.concat([x, x], axis=0), x.reshape(4, 3), x[1:]]
    for out in outs:
        assert out._backward is None and out._children == ()
        assert not out.requires_grad
    assert T.matmul(x, w)._backward is not None      # recording resumes


def test_no_grad_restores_recording_after_exception():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("inside the block")
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))


def test_grad_check_rejects_bad_h():
    with pytest.raises(ValueError):
        T.grad_check(lambda t: t.sum(), Tensor(np.ones(2)), h=1.0)


def test_tensor_keeps_float32_and_widens_the_rest():
    assert Tensor(np.zeros(2, dtype=np.float32)).data.dtype == np.float32
    for data in (np.zeros(2), np.arange(3), np.array([True, False]), [1, 2], 1.5,
                 np.float64(2.0), np.zeros(2, dtype=np.float16)):
        assert Tensor(data).data.dtype == np.float64, data


def test_scalar_operands_take_the_tensor_dtype():
    for dtype in (np.float32, np.float64):
        x = Tensor(np.array([[1.0, -2.0, 3.0]], dtype=dtype), requires_grad=True)
        g = Tensor(np.ones(3, dtype=dtype))
        outs = [x + 1.0, x * 2.0, -x, x + np.ones(3), T.layer_norm(x, g, g), T.rms_norm(x, g)]
        assert {o.data.dtype for o in outs} == {np.dtype(dtype)}
        functools.reduce(T.add, (o.sum() for o in outs)).backward()
        assert x.grad.dtype == dtype


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 31 - 1))
def test_matmul_grad_property(m, k, n, seed):
    rng = np.random.default_rng(seed)
    b = Tensor(rng.normal(0, 1, (k, n)))
    r = Tensor(rng.normal(0, 1, (m, n)))
    err = T.grad_check(lambda x: (T.matmul(x, b) * r).sum(),
                       Tensor(rng.normal(0, 1, (m, k))))
    assert err < 1e-5
