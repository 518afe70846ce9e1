"""Second fusion stage: gated unified sequence plus decoupled cross-modal attention.

The flattened visual grid is projected to the language width and concatenated
with the keyword embeddings. A learnable per-position gate (sigmoid of raw
logits) scales each row, the two segments are normalized by modality-specific
LayerNorms, and attention runs with one shared query projection but
segment-specific key/value projections.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .tensor import Tensor


def _inv_sigmoid(y: float) -> float:
    return math.log(y / (1.0 - y))


def init_adaptor(cfg: ModelConfig, rng: Optional[np.random.Generator]) -> dict:
    # gate logits start biased low on the visual segment, high on the language
    # segment; the constraint is a soft prior, not a hard clamp
    raw = np.full(cfg.s_v + cfg.s_l, _inv_sigmoid(0.1))
    raw[cfg.s_v:] = _inv_sigmoid(0.9)
    params = {
        "adp.ind.raw": Tensor(raw, requires_grad=True),
        "adp.proj.w": nn.init_weight(rng, cfg.e_v, cfg.e_l),
        "adp.proj.b": nn.init_bias(cfg.e_l),
        "adp.ln_v.g": Tensor(np.ones(cfg.e_l), requires_grad=True),
        "adp.ln_v.b": nn.init_bias(cfg.e_l),
        "adp.ln_l.g": Tensor(np.ones(cfg.e_l), requires_grad=True),
        "adp.ln_l.b": nn.init_bias(cfg.e_l),
        "adp.w_q": nn.init_weight(rng, cfg.e_l, cfg.p),
        "adp.w_kv": nn.init_weight(rng, cfg.e_l, cfg.p),
        "adp.w_kl": nn.init_weight(rng, cfg.e_l, cfg.p),
        "adp.w_vv": nn.init_weight(rng, cfg.e_l, cfg.p),
        "adp.w_vl": nn.init_weight(rng, cfg.e_l, cfg.p),
    }
    return params


def build_unified_input(v_e: Tensor, l_e: Tensor, params: dict) -> Tensor:
    """Project visual rows to the language width and stack both segments."""
    v_rows = nn.linear(v_e, params["adp.proj.w"], params["adp.proj.b"])
    return T.concat([v_rows, l_e], axis=-2)


def apply_modality_indicator(x: Tensor, raw: Tensor, s_v: int) -> Tuple[Tensor, Tensor]:
    """Scale each row by its position's sigmoid gate and split at s_v into
    (x_v, x_l)."""
    if raw.shape[-1] != x.shape[-2]:
        raise T.ShapeError(f"indicator length {raw.shape[-1]} != sequence height {x.shape[-2]}")
    xp = x * T.sigmoid(raw).reshape(-1, 1)
    return xp[:, :s_v, :], xp[:, s_v:, :]


def decoupled_attention(
    x_v: Tensor,
    x_l: Tensor,
    params: dict,
    cfg: ModelConfig,
    l_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Shared-query, modality-specific key/value attention producing F2.

    The modality LayerNorms act on their own segment and the results occupy
    their own row slots of the combined sequence (the only shape-consistent
    reading of summing an S_V-row and an S_L-row operand).
    """
    n_v = T.layer_norm(x_v, params["adp.ln_v.g"], params["adp.ln_v.b"])
    n_l = T.layer_norm(x_l, params["adp.ln_l.g"], params["adp.ln_l.b"])
    n_tilde = T.concat([n_v, n_l], axis=-2)
    q = T.matmul(n_tilde, params["adp.w_q"])
    k = T.concat([T.matmul(x_v, params["adp.w_kv"]), T.matmul(x_l, params["adp.w_kl"])], axis=-2)
    v = T.concat([T.matmul(x_v, params["adp.w_vv"]), T.matmul(x_l, params["adp.w_vl"])], axis=-2)
    km = None
    if l_mask is not None:
        vis = np.ones(x_v.shape[:2], dtype=bool)
        km = np.concatenate([vis, np.asarray(l_mask, dtype=bool)], axis=1)[:, None, :]
    return T.attention(q, k, v, cfg.attn_norm, km)[0]


def adaptor_forward(
    v_e: Tensor,
    l_e: Tensor,
    params: dict,
    cfg: ModelConfig,
    l_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """F2: (N, S_V + S, P) for S <= S_L keyword rows; the gate takes its
    first S_V + S logits."""
    x = build_unified_input(v_e, l_e, params)
    raw = params["adp.ind.raw"]
    if l_e.shape[-2] < cfg.s_l:     # a keyword segment trimmed to its real columns
        raw = raw[: cfg.s_v + l_e.shape[-2]]
    x_v, x_l = apply_modality_indicator(x, raw, cfg.s_v)
    return decoupled_attention(x_v, x_l, params, cfg, l_mask)
