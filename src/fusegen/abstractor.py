"""First fusion stage: shared-space projection plus bidirectional cross-attention.

Both modalities pass through two-layer GELU MLPs into a common width P, attend
to each other (vision querying language and vice versa), and the two results
are row-concatenated, visual-derived rows first.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .tensor import Tensor


def init_abstractor(cfg: ModelConfig, rng: Optional[np.random.Generator]) -> dict:
    return {
        "abs.v.w0": nn.init_weight(rng, cfg.e_v, cfg.e_v),
        "abs.v.b0": nn.init_bias(cfg.e_v),
        "abs.v.w1": nn.init_weight(rng, cfg.e_v, cfg.p),
        "abs.v.b1": nn.init_bias(cfg.p),
        "abs.l.w0": nn.init_weight(rng, cfg.e_l, cfg.e_l),
        "abs.l.b0": nn.init_bias(cfg.e_l),
        "abs.l.w1": nn.init_weight(rng, cfg.e_l, cfg.p),
        "abs.l.b1": nn.init_bias(cfg.p),
    }


def project_modalities(v_e: Tensor, l_e: Tensor, params: dict) -> Tuple[Tensor, Tensor]:
    """Two-layer GELU MLPs mapping each modality into the shared width P."""
    v = T.gelu(nn.linear(T.gelu(nn.linear(v_e, params["abs.v.w0"], params["abs.v.b0"])),
                         params["abs.v.w1"], params["abs.v.b1"]))
    l = T.gelu(nn.linear(T.gelu(nn.linear(l_e, params["abs.l.w0"], params["abs.l.b0"])),
                         params["abs.l.w1"], params["abs.l.b1"]))
    return v, l


def bidirectional_cross_attention(
    v_p: Tensor,
    l_p: Tensor,
    mode: str = "softmax",
    l_mask: Optional[np.ndarray] = None,
):
    """Cross-attend each modality over the other in the shared space.

    v_p: (N, S_V, P), l_p: (N, S_L, P). Returns ((v2l, l2v), (w_v2l, w_l2v)):
    v2l rows are indexed by visual positions with content drawn from l_p
    rows, and symmetrically for l2v; the w_* are the attention weights (arrays).
    ``l_mask`` masks padded language keys.
    """
    km = None if l_mask is None else np.asarray(l_mask, dtype=bool)[:, None, :]
    v2l, w_v2l = T.attention(v_p, l_p, l_p, mode, km)
    l2v, w_l2v = T.attention(l_p, v_p, v_p, mode)
    return (v2l, l2v), (w_v2l, w_l2v)


def abstractor_forward(
    v_e: Tensor,
    l_e: Tensor,
    params: dict,
    cfg: ModelConfig,
    l_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """F1: (N, S_V + S_L, P), visual-derived rows first."""
    v_p, l_p = project_modalities(v_e, l_e, params)
    (v2l, l2v), _ = bidirectional_cross_attention(v_p, l_p, cfg.attn_norm, l_mask)
    return T.concat([v2l, l2v], axis=-2)
