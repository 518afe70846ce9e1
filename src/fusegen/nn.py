"""Shared building blocks: parameter init, attention normalization, MHA."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor


def init_weight(rng: np.random.Generator, n_in: int, n_out: int) -> Tensor:
    std = math.sqrt(2.0 / (n_in + n_out))
    return Tensor(rng.normal(0.0, std, size=(n_in, n_out)), requires_grad=True)


def init_embedding(rng: np.random.Generator, rows: int, cols: int,
                   std: float = 0.08) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=(rows, cols)), requires_grad=True)


def init_bias(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    y = T.matmul(x, w)
    return y if b is None else y + b


def attn_normalize(logits: Tensor, mode: str, key_mask: Optional[np.ndarray] = None) -> Tensor:
    """Turn attention logits into weights over the trailing (key) axis.

    mode "softmax": row-stochastic weights, masked keys get -inf logits.
    mode "sigmoid": independent per-key gates in (0,1), masked keys zeroed.
    ``key_mask`` is boolean, True = valid, broadcastable to ``logits``.
    """
    if mode == "softmax":
        if key_mask is not None:
            logits = T.mask_fill(logits, ~np.asarray(key_mask, dtype=bool), -np.inf)
        return T.softmax_rows(logits)
    if mode == "sigmoid":
        w = T.sigmoid(logits)
        if key_mask is not None:
            w = T.mask_fill(w, ~np.asarray(key_mask, dtype=bool), 0.0)
        return w
    raise ValueError(f"unknown attention normalization {mode!r}")


def init_mha(rng: np.random.Generator, d: int) -> dict:
    return {
        "w_q": init_weight(rng, d, d),
        "w_k": init_weight(rng, d, d),
        "w_v": init_weight(rng, d, d),
        "w_o": init_weight(rng, d, d),
    }


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    # (N, S, d) -> (N, h, S, d/h)
    n, s, d = x.shape
    return x.reshape(n, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor) -> Tensor:
    # (N, h, S, dh) -> (N, S, h*dh)
    n, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, s, h * dh)


def mha(
    x: Tensor,
    params: dict,
    n_heads: int,
    mode: str = "softmax",
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Multi-head self-attention over a batch of sequences.

    x: (N, S, d) with d divisible by n_heads; per-head scaling 1/sqrt(d_head).
    ``key_mask``: (N, S) boolean, True = valid position. Masked positions get
    -inf logits under softmax and exactly zero weight under sigmoid.
    """
    n, s, d = x.shape
    if d % n_heads != 0:
        raise T.ShapeError(f"model dim {d} not divisible by {n_heads} heads")
    if key_mask is not None and np.asarray(key_mask).shape[-1] != s:
        raise T.ShapeError(f"mask length {np.asarray(key_mask).shape[-1]} != sequence length {s}")
    dh = d // n_heads
    q = _split_heads(linear(x, params["w_q"]), n_heads)
    k = _split_heads(linear(x, params["w_k"]), n_heads)
    v = _split_heads(linear(x, params["w_v"]), n_heads)
    logits = T.matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
    km = None if key_mask is None else np.asarray(key_mask, dtype=bool)[:, None, None, :]
    w = attn_normalize(logits, mode, km)
    return linear(_merge_heads(T.matmul(w, v)), params["w_o"])


def sinusoidal_positions(s: int, d: int) -> np.ndarray:
    pos = np.arange(s)[:, None].astype(float)
    i = np.arange(d // 2)[None, :].astype(float)
    ang = pos / (10000.0 ** (2 * i / d))
    pe = np.zeros((s, d))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang)
    return pe
