"""Shared building blocks: parameter init, scaled dot-product attention, MHA."""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _normal(rng: Optional[np.random.Generator], std: float, shape: tuple) -> Tensor:
    # without a generator: zeros, the parameter layout alone for a
    # checkpoint load to fill
    data = np.zeros(shape) if rng is None else rng.normal(0.0, std, size=shape)
    return Tensor(data, requires_grad=True)


def init_weight(rng: Optional[np.random.Generator], n_in: int, n_out: int) -> Tensor:
    return _normal(rng, math.sqrt(2.0 / (n_in + n_out)), (n_in, n_out))


def init_embedding(rng: Optional[np.random.Generator], rows: int, cols: int,
                   std: float = 0.08) -> Tensor:
    return _normal(rng, std, (rows, cols))


def init_bias(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    y = T.matmul(x, w)
    return y if b is None else y + b


def attention(q: Tensor, k: Tensor, v: Tensor, mode: str,
              key_mask: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
    """Scaled dot-product attention over the trailing two axes.

    q: (..., Sq, dh), k and v: (..., Sk, dh); leading axes broadcast and the
    logits are scaled by 1/sqrt(dh). mode "softmax": row-stochastic weights,
    masked keys get -inf logits. mode "sigmoid": independent per-key gates in
    (0,1), masked keys zeroed. ``key_mask`` is boolean, True = valid,
    broadcastable to the (..., Sq, Sk) logits. Returns (out, weights).
    """
    logits = T.matmul(q, k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    blocked = None if key_mask is None else ~np.asarray(key_mask, dtype=bool)
    if mode == "softmax":
        if blocked is not None:
            logits = T.mask_fill(logits, blocked, -np.inf)
        w = T.softmax_rows(logits)
    elif mode == "sigmoid":
        w = T.sigmoid(logits)
        if blocked is not None:
            w = T.mask_fill(w, blocked, 0.0)
    else:
        raise ValueError(f"unknown attention normalization {mode!r}")
    return T.matmul(w, v), w


def init_mha(rng: Optional[np.random.Generator], d: int) -> dict:
    return {
        "w_q": init_weight(rng, d, d),
        "w_k": init_weight(rng, d, d),
        "w_v": init_weight(rng, d, d),
        "w_o": init_weight(rng, d, d),
    }


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    # (N, S, d) -> (N, h, S, d/h); decode_step passes plain arrays
    n, s, d = x.shape
    return x.reshape(n, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    # (N, h, S, dh) -> (N, S, h*dh); decode_step passes plain arrays
    n, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, s, h * dh)


def mha(
    x: Tensor,
    params: dict,
    n_heads: int,
    mode: str = "softmax",
    key_mask: Optional[np.ndarray] = None,
    memory: Optional[Tensor] = None,
) -> Tensor:
    """Multi-head attention of the rows of x over ``memory`` (default: x).

    x: (N, S, d), memory: (N, S_m, d), d divisible by n_heads; queries come
    from x, keys and values from memory; per-head scaling 1/sqrt(d_head).
    ``key_mask``: (N, S_m) boolean, True = valid memory row. Masked rows get
    -inf logits under softmax and exactly zero weight under sigmoid.
    """
    memory = x if memory is None else memory
    s = memory.shape[1]
    if key_mask is not None and np.asarray(key_mask).shape[-1] != s:
        raise T.ShapeError(f"mask length {np.asarray(key_mask).shape[-1]} != sequence length {s}")
    q = split_heads(linear(x, params["w_q"]), n_heads)
    k = split_heads(linear(memory, params["w_k"]), n_heads)
    v = split_heads(linear(memory, params["w_v"]), n_heads)
    km = None if key_mask is None else np.asarray(key_mask, dtype=bool)[:, None, None, :]
    out, _ = attention(q, k, v, mode, km)
    return linear(merge_heads(out), params["w_o"])


def sinusoidal_positions(s: int, d: int) -> np.ndarray:
    pos = np.arange(s)[:, None].astype(float)
    i = np.arange(d // 2)[None, :].astype(float)
    ang = pos / (10000.0 ** (2 * i / d))
    pe = np.zeros((s, d))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang)
    return pe
