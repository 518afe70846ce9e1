"""Contrastive alignment between pooled fusion features and report embeddings.

The fused sequence is mean-pooled over valid rows, projected, and
L2-normalized; reports go through an embedding mean-pool and projection. The
InfoNCE loss contrasts each fused vector against all report vectors in the
batch (negatives over reports only, as printed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .tensor import Tensor

TEMPERATURE_FLOOR = 1e-3


@dataclass
class PooledEmbedding:
    emb: Tensor               # (N, D_align), unit rows (zero rows if degenerate)
    degenerate: np.ndarray    # (N,) boolean: True where the pre-norm vector was ~0


def init_alignment(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    return {
        "aln.pool.w": nn.init_weight(rng, cfg.p, cfg.d_align),
        "aln.pool.b": nn.init_bias(cfg.d_align),
        "aln.rep.embed": nn.init_embedding(rng, cfg.vocab_size, cfg.d_align),
        "aln.rep.w": nn.init_weight(rng, cfg.d_align, cfg.d_align),
        "aln.rep.b": nn.init_bias(cfg.d_align),
        "aln.tau.raw": Tensor(np.array([math.log(math.e - 1.0)]), requires_grad=True),  # tau ~ 1
    }


def temperature(params: dict) -> Tensor:
    """Learnable temperature, softplus-parameterized with a positive floor."""
    raw = params["aln.tau.raw"]
    return T.log(T.exp(raw) + 1.0) + TEMPERATURE_FLOOR


def l2_normalize(x: Tensor, eps: float = 1e-12):
    """Row-normalize; near-zero rows stay zero and are flagged."""
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    degenerate = norm_sq.data.reshape(-1) < eps
    inv = T.pow_const(norm_sq + eps * eps, -0.5)
    out = x * T.mask_fill(inv, degenerate[:, None], 0.0)
    return out, degenerate


def _masked_mean(x: Tensor, mask: Optional[np.ndarray]) -> Tensor:
    """Mean of (N, S, D) over S, counting only rows where ``mask`` is True."""
    if mask is None:
        return x.mean(axis=-2)
    m = np.asarray(mask, dtype=x.data.dtype)
    return (x * m[:, :, None]).sum(axis=-2) * (1.0 / m.sum(axis=1))[:, None]


def pool_fusion(
    f: Tensor,
    params: dict,
    row_mask: Optional[np.ndarray] = None,
) -> PooledEmbedding:
    """Mean over valid rows of the fused (N, S, P) sequence, then project."""
    proj = nn.linear(_masked_mean(f, row_mask), params["aln.pool.w"], params["aln.pool.b"])
    emb, degenerate = l2_normalize(proj)
    return PooledEmbedding(emb=emb, degenerate=degenerate)


def embed_report(report_ids: np.ndarray, params: dict,
                 mask: Optional[np.ndarray] = None) -> PooledEmbedding:
    """Unit-norm report vector: token embedding mean-pool plus projection."""
    ids = np.asarray(report_ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.shape[1] == 0:
        raise ValueError("empty report")
    if mask is not None and not np.asarray(mask).any(axis=1).all():
        raise ValueError("a report has no unmasked tokens")
    x = T.embedding(params["aln.rep.embed"], ids)
    proj = nn.linear(_masked_mean(x, mask), params["aln.rep.w"], params["aln.rep.b"])
    emb, degenerate = l2_normalize(proj)
    return PooledEmbedding(emb=emb, degenerate=degenerate)


def info_nce(f_emb: Tensor, r_emb: Tensor, tau: Tensor) -> Tensor:
    """Contrastive loss over cosine similarities at temperature tau.

    Rows of the similarity matrix index fused vectors, columns index report
    vectors; positives sit on the diagonal and negatives are drawn over
    reports. Inputs must be row-normalized.
    """
    if f_emb.shape != r_emb.shape:
        raise T.ShapeError(f"embedding shapes differ: {f_emb.shape} vs {r_emb.shape}")
    n = f_emb.shape[0]
    sim = T.matmul(f_emb, r_emb.swapaxes(-1, -2))
    logits = sim * T.pow_const(tau, -1.0)
    logp = T.log_softmax(logits)
    diag = np.arange(n)
    return -logp[diag, diag].mean()
