"""Compact autoregressive decoder conditioned on fused features.

Layer order: RMS pre-norm -> causal grouped-query self-attention (rotary
positions on Q/K) -> residual -> RMS pre-norm -> cross-attention over the
fused memory -> residual -> RMS pre-norm -> SwiGLU -> residual. The
cross-attention memory is the projected fused rows followed by the decoder's
own input-token embeddings, with the report segment causally masked
(``memory_mask``) so logits at position t never see tokens past t. Training
builds it in one pass on Tensors. Cached decoding (``decode_step``) runs the
same layers on the parameters' arrays, without the tape, for N streams in
lockstep. Its per-layer KV cache, which also holds the cross-attention
projections, is sized by its constructor for the whole decode: step 0 writes
the fused rows and the first token into it, each later step one token row.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from . import nn
from . import tensor as T
from .config import ConfigError, ModelConfig
from .tensor import Tensor


def init_decoder(cfg: ModelConfig, rng: Optional[np.random.Generator]) -> dict:
    d, hd = cfg.dec_d, cfg.head_dim
    params = {
        "dec.embed": nn.init_embedding(rng, cfg.vocab_size, d),
        "dec.mem.w": nn.init_weight(rng, cfg.p, d),
        "dec.mem.b": nn.init_bias(d),
        "dec.final_rms.g": Tensor(np.ones(d), requires_grad=True),
        "dec.head.w": nn.init_weight(rng, d, cfg.vocab_size),
    }
    for l in range(cfg.dec_layers):
        pre = f"dec.layer{l}"
        params[f"{pre}.rms1.g"] = Tensor(np.ones(d), requires_grad=True)
        params[f"{pre}.rms2.g"] = Tensor(np.ones(d), requires_grad=True)
        params[f"{pre}.rms3.g"] = Tensor(np.ones(d), requires_grad=True)
        params[f"{pre}.sa.w_q"] = nn.init_weight(rng, d, cfg.n_q * hd)
        params[f"{pre}.sa.w_k"] = nn.init_weight(rng, d, cfg.n_kv * hd)
        params[f"{pre}.sa.w_v"] = nn.init_weight(rng, d, cfg.n_kv * hd)
        params[f"{pre}.sa.w_o"] = nn.init_weight(rng, cfg.n_q * hd, d)
        for name in ("w_q", "w_k", "w_v", "w_o"):
            params[f"{pre}.ca.{name}"] = nn.init_weight(rng, d, d)
        params[f"{pre}.ffn.w1"] = nn.init_weight(rng, d, cfg.d_ff)
        params[f"{pre}.ffn.w2"] = nn.init_weight(rng, d, cfg.d_ff)
        params[f"{pre}.ffn.w3"] = nn.init_weight(rng, cfg.d_ff, d)
    return params


# ---------------------------------------------------------------------
# rotary positions
# ---------------------------------------------------------------------

ROPE_BASE = 10000.0


@functools.lru_cache(maxsize=256)
def _rope_tables(start_pos: int, length: int, head_dim: int, dtype=np.float64):
    """Read-only (length, head_dim/2) cos and sin tables for positions
    start_pos .. start_pos+length-1, computed in float64 and cast to
    ``dtype``."""
    pos = np.arange(start_pos, start_pos + length, dtype=float)[:, None]
    theta = ROPE_BASE ** (-2.0 * np.arange(head_dim // 2, dtype=float) / head_dim)[None, :]
    ang = pos * theta
    cos, sin = np.cos(ang).astype(dtype, copy=False), np.sin(ang).astype(dtype, copy=False)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


def rope_apply(x: Tensor, start_pos: int = 0) -> Tensor:
    """Rotate adjacent pairs of the trailing axis by position-dependent angles.

    x: (..., S, head_dim) with even head_dim; position m = start_pos + row,
    pair k rotates by m * ROPE_BASE**(-2k/head_dim).
    """
    return T.rotate_pairs(x, *_rope_tables(start_pos, x.shape[-2], x.shape[-1], x.data.dtype))


# ---------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------

class KVCache:
    """Keys/values of a ``decode_step`` run of at most ``max_len`` steps for
    N streams over ``s_f`` fused rows, allocated once, here, in ``cfg.dtype``.

    ``k``/``v``: (N, n_kv, max_len, head_dim) per layer. ``mem_k``/``mem_v``:
    the (N, n_q, s_f + max_len, head_dim) cross-attention projections of the
    memory rows, each row projected once. ``length`` counts the positions
    written; entries written earlier never change.
    """

    def __init__(self, cfg: ModelConfig, n: int, s_f: int, max_len: int):
        self.n, self.s_f, self.max_len, self.length = n, s_f, max_len, 0
        kv = (n, cfg.n_kv, max_len, cfg.head_dim)
        mem = (n, cfg.n_q, s_f + max_len, cfg.head_dim)
        layers = range(cfg.dec_layers)
        self.k = [np.empty(kv, cfg.dtype) for _ in layers]
        self.v = [np.empty(kv, cfg.dtype) for _ in layers]
        self.mem_k = [np.empty(mem, cfg.dtype) for _ in layers]
        self.mem_v = [np.empty(mem, cfg.dtype) for _ in layers]


def gqa_attention(x: Tensor, params: dict, cfg: ModelConfig, layer: int) -> Tensor:
    """Causal grouped-query self-attention; each group of n_q/n_kv query heads
    shares one KV head."""
    pre = f"dec.layer{layer}.sa"
    n, t, _ = x.shape
    n_q, n_kv, hd = cfg.n_q, cfg.n_kv, cfg.head_dim

    q = rope_apply(nn.split_heads(T.matmul(x, params[f"{pre}.w_q"]), n_q))
    k = rope_apply(nn.split_heads(T.matmul(x, params[f"{pre}.w_k"]), n_kv))
    v = nn.split_heads(T.matmul(x, params[f"{pre}.w_v"]), n_kv)

    # (N, n_kv, group, T, hd) queries against (N, n_kv, 1, T, hd) keys/values
    km = ~np.triu(np.ones((t, t), dtype=bool), k=1)
    out, _ = nn.attention(q.reshape(n, n_kv, n_q // n_kv, t, hd), k.reshape(n, n_kv, 1, t, hd),
                          v.reshape(n, n_kv, 1, t, hd), cfg.attn_norm, km)
    return T.matmul(nn.merge_heads(out.reshape(n, n_q, t, hd)), params[f"{pre}.w_o"])


def cross_attention(x: Tensor, memory: Tensor, params: dict, cfg: ModelConfig,
                    layer: int, mem_mask: np.ndarray) -> Tensor:
    """Standard multi-head attention of decoder states over the memory rows.

    ``mem_mask``: boolean (N, Tq, S_m), True = may attend.
    """
    pre = f"dec.layer{layer}.ca"

    def heads(rows: Tensor, w: Tensor) -> Tensor:
        return nn.split_heads(T.matmul(rows, w), cfg.n_q)

    q = heads(x, params[f"{pre}.w_q"])
    k, v = heads(memory, params[f"{pre}.w_k"]), heads(memory, params[f"{pre}.w_v"])
    out, _ = nn.attention(q, k, v, cfg.attn_norm, mem_mask[:, None])  # head axis
    return T.matmul(nn.merge_heads(out), params[f"{pre}.w_o"])


def swiglu_ffn(x: Tensor, w1: Tensor, w2: Tensor, w3: Tensor) -> Tensor:
    """((x W1) * SiLU(x W2)) W3."""
    return T.matmul(T.matmul(x, w1) * T.silu(T.matmul(x, w2)), w3)


# ---------------------------------------------------------------------
# full decoder
# ---------------------------------------------------------------------

def project_memory(f: Tensor, params: dict) -> Tensor:
    return nn.linear(f, params["dec.mem.w"], params["dec.mem.b"])


def memory_mask(f_row_mask: np.ndarray, start: int, t: int) -> np.ndarray:
    """(N, t, S_F+start+t) cross-attention mask for queries at positions
    start .. start+t-1: the valid fused rows, then the report rows up to and
    including the query's own position."""
    n, s_f = f_row_mask.shape
    causal = np.tri(t, start + t, k=start, dtype=bool)
    return np.concatenate([np.broadcast_to(f_row_mask[:, None, :], (n, t, s_f)),
                           np.broadcast_to(causal, (n, t, start + t))], axis=2)


def decoder_layer(x: Tensor, memory: Tensor, mem_mask: np.ndarray, params: dict,
                  cfg: ModelConfig, layer: int) -> Tensor:
    pre = f"dec.layer{layer}"
    h = T.rms_norm(x, params[f"{pre}.rms1.g"])
    x = x + gqa_attention(h, params, cfg, layer)
    h = T.rms_norm(x, params[f"{pre}.rms2.g"])
    x = x + cross_attention(h, memory, params, cfg, layer, mem_mask)
    h = T.rms_norm(x, params[f"{pre}.rms3.g"])
    x = x + swiglu_ffn(h, params[f"{pre}.ffn.w1"], params[f"{pre}.ffn.w2"], params[f"{pre}.ffn.w3"])
    return x


def decoder_forward(
    report_ids_in: np.ndarray,
    f: Tensor,
    f_row_mask: np.ndarray,
    params: dict,
    cfg: ModelConfig,
) -> Tensor:
    """Teacher-forced pass: (N, T) input ids over the (N, S_F, P) fused rows
    and their (N, S_F) mask -> (N, T, vocab) next-token logits."""
    ids = np.asarray(report_ids_in)
    t = ids.shape[1]
    if t < 1 or t > cfg.max_report_len + 1:
        raise ConfigError(f"sequence length {t} exceeds configured maximum {cfg.max_report_len + 1}")
    x = T.embedding(params["dec.embed"], ids)
    memory = T.concat([project_memory(f, params), x], axis=-2)
    mem_mask = memory_mask(f_row_mask, 0, t)
    for l in range(cfg.dec_layers):
        x = decoder_layer(x, memory, mem_mask, params, cfg, l)
    x = T.rms_norm(x, params["dec.final_rms.g"])
    return T.matmul(x, params["dec.head.w"])


def decode_step(
    token_ids: np.ndarray,
    pos: int,
    f: Tensor,
    f_row_mask: np.ndarray,
    params: dict,
    cfg: ModelConfig,
    cache: KVCache,
) -> np.ndarray:
    """One cached autoregressive step for N streams: (N,) ids at position
    ``pos`` -> (N, vocab) logits. Step 0 writes the projected fused rows and
    the token's embedding into the cross-attention memory; later steps write
    only the token's embedding. ``pos`` must be the cache's length.

    Runs the layers of ``decoder_layer`` on the parameters' arrays and
    builds no Tensor; the logits match ``decoder_forward``'s row at ``pos``
    to rounding."""
    if pos != cache.length:
        raise ValueError(f"cache holds {cache.length} positions, expected {pos}")
    if pos >= cache.max_len:
        raise ValueError(f"cache sized for {cache.max_len} steps is full")
    ids = np.asarray(token_ids)
    if ids.shape != (cache.n,):
        raise ValueError(f"cache holds {cache.n} streams, got ids of shape {ids.shape}")
    if pos == 0 and f.shape[1] != cache.s_f:
        raise ValueError(f"cache sized for {cache.s_f} fused rows, got {f.shape[1]}")
    w = {name: p.data for name, p in params.items()}
    x = T._lookup_np(w["dec.embed"], ids[:, None])
    n, hd, n_q, n_kv = x.shape[0], cfg.head_dim, cfg.n_q, cfg.n_kv
    rows = x if pos > 0 else np.concatenate(
        [f.data @ w["dec.mem.w"] + w["dec.mem.b"], x], axis=-2)
    t, hi = pos + 1, cache.s_f + pos + 1    # positions, memory rows after this step
    lo = hi - rows.shape[1]
    blocked = ~memory_mask(f_row_mask, pos, 1)[:, None]    # head axis
    cos, sin = _rope_tables(pos, 1, hd, x.dtype)
    for l in range(cfg.dec_layers):
        pre = f"dec.layer{l}"
        k, v, mem_k, mem_v = cache.k[l], cache.v[l], cache.mem_k[l], cache.mem_v[l]
        h = _rms_np(x, w[f"{pre}.rms1.g"])
        q = T._rotate_np(nn.split_heads(h @ w[f"{pre}.sa.w_q"], n_q), cos, sin)
        k[:, :, pos:t] = T._rotate_np(nn.split_heads(h @ w[f"{pre}.sa.w_k"], n_kv), cos, sin)
        v[:, :, pos:t] = nn.split_heads(h @ w[f"{pre}.sa.w_v"], n_kv)
        out = _attention_np(q.reshape(n, n_kv, n_q // n_kv, 1, hd),
                            k[:, :, :t].reshape(n, n_kv, 1, t, hd),
                            v[:, :, :t].reshape(n, n_kv, 1, t, hd), cfg.attn_norm)
        x = x + nn.merge_heads(out.reshape(n, n_q, 1, hd)) @ w[f"{pre}.sa.w_o"]

        h = _rms_np(x, w[f"{pre}.rms2.g"])
        q = nn.split_heads(h @ w[f"{pre}.ca.w_q"], n_q)
        mem_k[:, :, lo:hi] = nn.split_heads(rows @ w[f"{pre}.ca.w_k"], n_q)
        mem_v[:, :, lo:hi] = nn.split_heads(rows @ w[f"{pre}.ca.w_v"], n_q)
        out = _attention_np(q, mem_k[:, :, :hi], mem_v[:, :, :hi], cfg.attn_norm, blocked)
        x = x + nn.merge_heads(out) @ w[f"{pre}.ca.w_o"]

        h = _rms_np(x, w[f"{pre}.rms3.g"])
        gate = h @ w[f"{pre}.ffn.w2"]
        x = x + ((h @ w[f"{pre}.ffn.w1"]) * (gate * T._sigmoid_np(gate))) @ w[f"{pre}.ffn.w3"]
    cache.length = pos + 1
    return (_rms_np(x, w["dec.final_rms.g"]) @ w["dec.head.w"])[:, 0]


def _rms_np(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """``T.rms_norm`` on arrays."""
    return x * T._inv_rms(x, T._NORM_EPS) * gain


def _attention_np(q: np.ndarray, k: np.ndarray, v: np.ndarray, mode: str,
                  blocked: Optional[np.ndarray] = None) -> np.ndarray:
    """``nn.attention`` on arrays; ``blocked`` is True where a key is masked."""
    logits = np.matmul(q, k.swapaxes(-1, -2)) * q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    if mode == "softmax":
        if blocked is not None:
            logits = np.where(blocked, -np.inf, logits)
        return np.matmul(T._softmax_np(logits), v)
    if mode != "sigmoid":
        raise ValueError(f"unknown attention normalization {mode!r}")
    weights = T._sigmoid_np(logits)
    if blocked is not None:
        weights = np.where(blocked, 0.0, weights)
    return np.matmul(weights, v)


def cross_entropy(logits: Tensor, target_ids: np.ndarray, mask: np.ndarray):
    """Summed next-token negative log-likelihood over unmasked positions.

    Returns (total, per_token_mean) as tensors sharing one graph.
    """
    targets = np.asarray(target_ids)
    vocab = logits.shape[-1]
    if targets.max() >= vocab or targets.min() < 0:
        raise IndexError(f"target id out of range for vocab {vocab}")
    logp = T.log_softmax(logits)
    ni, ti = np.nonzero(np.asarray(mask, dtype=bool))
    nll = -logp[ni, ti, targets[ni, ti]]
    total = nll.sum()
    per_token = total * (1.0 / max(1, len(ni)))
    return total, per_token
