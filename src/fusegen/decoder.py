"""Compact autoregressive decoder conditioned on fused features.

Layer order: RMS pre-norm -> causal grouped-query self-attention (rotary
positions on Q/K) -> residual -> RMS pre-norm -> cross-attention over the
fused memory -> residual -> RMS pre-norm -> SwiGLU -> residual. During
training the cross-attention memory is the fused feature rows followed by the
teacher-forced report embeddings; the report segment is causally masked so
logits at position t never see tokens past t. At inference the report segment
grows with the embeddings of already-consumed tokens, keeping the memory
distribution identical to training, and decoding runs N streams in lockstep
with a per-layer KV cache that also holds the cross-attention projections of
the memory.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from . import nn
from . import tensor as T
from .config import ConfigError, ModelConfig
from .tensor import Tensor


def init_decoder(cfg: ModelConfig, rng: np.random.Generator) -> dict:
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
def _rope_tables(start_pos: int, length: int, head_dim: int):
    """Read-only (length, head_dim/2) cos and sin tables for positions
    start_pos .. start_pos+length-1."""
    pos = np.arange(start_pos, start_pos + length, dtype=float)[:, None]
    theta = ROPE_BASE ** (-2.0 * np.arange(head_dim // 2, dtype=float) / head_dim)[None, :]
    ang = pos * theta
    cos, sin = np.cos(ang), np.sin(ang)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


def rope_apply(x: Tensor, start_pos: int = 0) -> Tensor:
    """Rotate adjacent pairs of the trailing axis by position-dependent angles.

    x: (..., S, head_dim) with even head_dim; position m = start_pos + row,
    pair k rotates by m * ROPE_BASE**(-2k/head_dim).
    """
    hd = x.shape[-1]
    if hd % 2 != 0:
        raise ConfigError(f"head_dim must be even for rotary embeddings, got {hd}")
    cos, sin = (t.astype(x.data.dtype, copy=False)
                for t in _rope_tables(start_pos, x.shape[-2], hd))
    return T.rotate_pairs(x, cos, sin)


# ---------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------

class KVCache:
    """Per-layer cached keys/values for N decode streams run in lockstep.

    Self-attention: ``k``/``v`` hold (N, n_kv, t, head_dim) per layer, and t
    grows by exactly one per decode step. Cross-attention: ``mem_k``/``mem_v``
    hold the (N, heads, rows, head_dim) projections of the memory rows seen
    so far, so each memory row is projected once; between steps the memory
    may only grow by appending rows. N is set by the first append. Existing
    entries are never mutated.
    """

    def __init__(self, n_layers: int, n_kv: int, head_dim: int):
        self.n_kv, self.head_dim = n_kv, head_dim
        self.k: List[Optional[np.ndarray]] = [None] * n_layers
        self.v: List[Optional[np.ndarray]] = [None] * n_layers
        self.mem_k: List[Optional[np.ndarray]] = [None] * n_layers
        self.mem_v: List[Optional[np.ndarray]] = [None] * n_layers

    def length(self, layer: int = 0) -> int:
        return 0 if self.k[layer] is None else self.k[layer].shape[2]

    def memory_length(self, layer: int = 0) -> int:
        return 0 if self.mem_k[layer] is None else self.mem_k[layer].shape[2]

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        if k_new.ndim != 4 or k_new.shape[1:] != (self.n_kv, 1, self.head_dim):
            raise ValueError(f"cache grows by one (N, {self.n_kv}, 1, {self.head_dim}) "
                             f"position per step, got {k_new.shape}")
        self.k[layer] = _grow(self.k[layer], k_new)
        self.v[layer] = _grow(self.v[layer], v_new)

    def extend_memory(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        self.mem_k[layer] = _grow(self.mem_k[layer], k_new)
        self.mem_v[layer] = _grow(self.mem_v[layer], v_new)


def _grow(old: Optional[np.ndarray], new: np.ndarray) -> np.ndarray:
    if old is None:
        return new
    if new.shape[0] != old.shape[0]:
        raise ValueError(f"cache holds {old.shape[0]} streams, got {new.shape[0]}")
    return np.concatenate([old, new], axis=2)


def gqa_attention(
    x: Tensor,
    params: dict,
    cfg: ModelConfig,
    layer: int,
    cache: Optional[KVCache] = None,
    start_pos: int = 0,
) -> Tensor:
    """Causal grouped-query self-attention; each group of n_q/n_kv query heads
    shares one KV head. With a cache, x must be a single new position per
    stream and the fresh K/V are appended."""
    pre = f"dec.layer{layer}.sa"
    n, tq, _ = x.shape
    n_q, n_kv = cfg.n_q, cfg.n_kv

    q = rope_apply(nn.split_heads(T.matmul(x, params[f"{pre}.w_q"]), n_q), start_pos)
    k = rope_apply(nn.split_heads(T.matmul(x, params[f"{pre}.w_k"]), n_kv), start_pos)
    v = nn.split_heads(T.matmul(x, params[f"{pre}.w_v"]), n_kv)

    if cache is not None:
        if cache.length(layer) != start_pos:
            raise ValueError(f"cache holds {cache.length(layer)} positions, expected {start_pos}")
        cache.append(layer, k.data, v.data)
        k = Tensor(cache.k[layer])
        v = Tensor(cache.v[layer])

    # (N, n_kv, group, S, hd) queries against (N, n_kv, 1, S, hd) keys/values
    tk, hd = k.shape[2], cfg.head_dim
    km = None if cache is not None else ~np.triu(np.ones((tq, tk), dtype=bool), k=1)
    out, _ = nn.attention(q.reshape(n, n_kv, n_q // n_kv, tq, hd), k.reshape(n, n_kv, 1, tk, hd),
                          v.reshape(n, n_kv, 1, tk, hd), cfg.attn_norm, km)
    return T.matmul(nn.merge_heads(out.reshape(n, n_q, tq, hd)), params[f"{pre}.w_o"])


def cross_attention(
    x: Tensor,
    memory: Tensor,
    params: dict,
    cfg: ModelConfig,
    layer: int,
    mem_mask: Optional[np.ndarray] = None,
    cache: Optional[KVCache] = None,
) -> Tensor:
    """Standard multi-head attention of decoder states over the memory rows.

    ``mem_mask``: boolean, True = may attend, broadcastable to (N, Tq, S_m).
    With a cache, only memory rows it has not seen yet are projected.
    """
    pre = f"dec.layer{layer}.ca"

    def heads(rows: Tensor, w: Tensor) -> Tensor:
        return nn.split_heads(T.matmul(rows, w), cfg.n_q)

    q = heads(x, params[f"{pre}.w_q"])
    if cache is None:
        k, v = heads(memory, params[f"{pre}.w_k"]), heads(memory, params[f"{pre}.w_v"])
    else:
        seen = cache.memory_length(layer)
        if memory.shape[1] > seen:
            new = memory[:, seen:]
            cache.extend_memory(layer, heads(new, params[f"{pre}.w_k"]).data,
                                heads(new, params[f"{pre}.w_v"]).data)
        k, v = Tensor(cache.mem_k[layer]), Tensor(cache.mem_v[layer])
    km = None
    if mem_mask is not None:
        km = np.asarray(mem_mask, dtype=bool)
        while km.ndim < 3:
            km = km[None]
        km = km[:, None, :, :]  # head axis
    out, _ = nn.attention(q, k, v, cfg.attn_norm, km)
    return T.matmul(nn.merge_heads(out), params[f"{pre}.w_o"])


def swiglu_ffn(x: Tensor, w1: Tensor, w2: Tensor, w3: Tensor) -> Tensor:
    """((x W1) * SiLU(x W2)) W3."""
    return T.matmul(T.matmul(x, w1) * T.silu(T.matmul(x, w2)), w3)


# ---------------------------------------------------------------------
# full decoder
# ---------------------------------------------------------------------

def project_memory(f: Tensor, params: dict) -> Tensor:
    return nn.linear(f, params["dec.mem.w"], params["dec.mem.b"])


def decoder_layer(
    x: Tensor,
    memory: Tensor,
    params: dict,
    cfg: ModelConfig,
    layer: int,
    cache: Optional[KVCache] = None,
    start_pos: int = 0,
    mem_mask: Optional[np.ndarray] = None,
) -> Tensor:
    pre = f"dec.layer{layer}"
    h = T.rms_norm(x, params[f"{pre}.rms1.g"])
    x = x + gqa_attention(h, params, cfg, layer, cache=cache, start_pos=start_pos)
    h = T.rms_norm(x, params[f"{pre}.rms2.g"])
    x = x + cross_attention(h, memory, params, cfg, layer, mem_mask=mem_mask, cache=cache)
    h = T.rms_norm(x, params[f"{pre}.rms3.g"])
    x = x + swiglu_ffn(h, params[f"{pre}.ffn.w1"], params[f"{pre}.ffn.w2"], params[f"{pre}.ffn.w3"])
    return x


def decoder_forward(
    report_ids_in: np.ndarray,
    memory: Tensor,
    params: dict,
    cfg: ModelConfig,
    mem_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Teacher-forced pass: (N, T) input ids -> (N, T, vocab) next-token logits."""
    ids = np.asarray(report_ids_in)
    if ids.ndim == 1:
        ids = ids[None, :]
    t = ids.shape[1]
    if t < 1 or t > cfg.max_report_len + 1:
        raise ConfigError(f"sequence length {t} exceeds configured maximum {cfg.max_report_len + 1}")
    x = T.embedding(params["dec.embed"], ids)
    for l in range(cfg.dec_layers):
        x = decoder_layer(x, memory, params, cfg, l, mem_mask=mem_mask)
    x = T.rms_norm(x, params["dec.final_rms.g"])
    return T.matmul(x, params["dec.head.w"])


def decode_step(
    token_ids,
    pos: int,
    memory: Tensor,
    params: dict,
    cfg: ModelConfig,
    cache: KVCache,
    mem_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One cached autoregressive step. ``token_ids`` is an int for one stream,
    which returns its (vocab,) logits row, or an (N,) id array for N streams
    (``memory`` then stacks N streams on its first axis), which returns
    (N, vocab) logits."""
    ids = np.asarray(token_ids)
    x = T.embedding(params["dec.embed"], ids.reshape(-1, 1))
    for l in range(cfg.dec_layers):
        x = decoder_layer(x, memory, params, cfg, l, cache=cache, start_pos=pos,
                          mem_mask=mem_mask)
    x = T.rms_norm(x, params["dec.final_rms.g"])
    logits = T.matmul(x, params["dec.head.w"]).data[:, 0]
    return logits if ids.ndim else logits[0]


def cross_entropy(logits: Tensor, target_ids: np.ndarray,
                  mask: Optional[np.ndarray] = None):
    """Summed next-token negative log-likelihood over unmasked positions.

    Returns (total, per_token_mean) as tensors sharing one graph.
    """
    targets = np.asarray(target_ids)
    if targets.ndim == 1:
        targets = targets[None, :]
    n, t, vocab = logits.shape
    if targets.max() >= vocab or targets.min() < 0:
        raise IndexError(f"target id out of range for vocab {vocab}")
    if mask is None:
        mask = np.ones((n, t), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    logp = T.log_softmax(logits)
    ni, ti = np.nonzero(mask)
    nll = -logp[ni, ti, targets[ni, ti]]
    total = nll.sum()
    per_token = total * (1.0 / max(1, len(ni)))
    return total, per_token
