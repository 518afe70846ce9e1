"""Composed-op reference forms of the fused tensor ops.

Each oracle builds the op from primitive tape nodes, the way the library did
before the op became a single node with a closed-form backward, from ``add``,
``mul`` and unary ``-`` (``a + -b`` rounds exactly like ``a - b``). The fused
forward passes of ``rms_norm``, ``layer_norm`` and ``rope_apply`` run the same
arithmetic in the same order, so they match these oracles bit for bit;
``log_softmax`` matches ``log(softmax_rows(x))`` wherever the latter is finite.
"""

from fusegen import decoder as DEC
from fusegen import tensor as T
from fusegen.tensor import Tensor


def composed_rms_norm(x, gain, eps=1e-5):
    ms = T.mean_(T.mul(x, x), axis=-1, keepdims=True)
    inv = T.pow_const(T.add(ms, T._as_tensor(eps, x)), -0.5)
    return T.mul(T.mul(x, inv), gain)


def composed_layer_norm(x, gain, bias, eps=1e-5):
    mu = T.mean_(x, axis=-1, keepdims=True)
    xc = T.add(x, -mu)
    var = T.mean_(T.mul(xc, xc), axis=-1, keepdims=True)
    inv = T.pow_const(T.add(var, T._as_tensor(eps, x)), -0.5)
    return T.add(T.mul(T.mul(xc, inv), gain), bias)


def composed_log_softmax(x):
    return T.log(T.softmax_rows(x))


def composed_rope(x, start_pos=0):
    cos, sin = (Tensor(t.astype(x.data.dtype, copy=False))
                for t in DEC._rope_tables(start_pos, x.shape[-2], x.shape[-1]))
    xr = x[..., 0::2]
    xi = x[..., 1::2]
    out_r = xr * cos + -(xi * sin)
    out_i = xr * sin + xi * cos
    pair_shape = out_r.shape + (1,)
    stacked = T.concat([out_r.reshape(*pair_shape), out_i.reshape(*pair_shape)], axis=-1)
    return stacked.reshape(*x.shape)
