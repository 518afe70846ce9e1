"""Shared building blocks: parameter init, linear layers and multi-head
attention on ``T.attention``."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _normal(rng: np.random.Generator, std: float, shape: tuple) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def init_weight(rng: np.random.Generator, n_in: int, n_out: int) -> Tensor:
    return _normal(rng, math.sqrt(2.0 / (n_in + n_out)), (n_in, n_out))


def init_embedding(rng: np.random.Generator, rows: int, cols: int,
                   std: float = 0.08) -> Tensor:
    return _normal(rng, std, (rows, cols))


def init_bias(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    y = T.matmul(x, w)
    return y if b is None else y + b


def init_mha(rng: np.random.Generator, d: int) -> dict:
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
    out, _ = T.attention(q, k, v, mode, km)
    return linear(merge_heads(out), params["w_o"])


def sinusoidal_positions(s: int, d: int) -> np.ndarray:
    pos = np.arange(s)[:, None].astype(float)
    i = np.arange(d // 2)[None, :].astype(float)
    ang = pos / (10000.0 ** (2 * i / d))
    pe = np.zeros((s, d))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang)
    return pe
