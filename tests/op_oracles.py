"""Composed-op reference forms of the fused tensor ops.

Each oracle builds the op from primitive tape nodes, the way the library did
before the op became a single node with a closed-form backward, from ``add``,
``mul`` and unary ``-`` (``a + -b`` rounds exactly like ``a - b``). The fused
forward passes of ``rms_norm``, ``layer_norm`` and ``rope_apply`` run the same
arithmetic in the same order, so they match these oracles bit for bit;
``nll`` matches the one-hot-weighted sum of ``-log(softmax_rows(x))`` wherever
the latter is finite.
"""

import numpy as np

from fusegen import decoder as DEC
from fusegen import tensor as T
from fusegen.tensor import Tensor


def _mean_rows(x):
    # the trailing-axis mean as sum * (1/n), the fused ops' rounding
    return T.mul(T.sum_(x, axis=-1, keepdims=True), T._as_tensor(1.0 / x.shape[-1], x))


def composed_rms_norm(x, gain, eps=1e-5):
    ms = _mean_rows(T.mul(x, x))
    inv = T.pow_const(T.add(ms, T._as_tensor(eps, x)), -0.5)
    return T.mul(T.mul(x, inv), gain)


def composed_layer_norm(x, gain, bias, eps=1e-5):
    mu = _mean_rows(x)
    xc = T.add(x, -mu)
    var = _mean_rows(T.mul(xc, xc))
    inv = T.pow_const(T.add(var, T._as_tensor(eps, x)), -0.5)
    return T.add(T.mul(T.mul(xc, inv), gain), bias)


def composed_nll(x, targets, mask):
    onehot = np.eye(x.shape[-1])[targets] * mask[..., None]
    return -(T.log(T.softmax_rows(x)) * T._as_tensor(onehot, x)).sum()


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
