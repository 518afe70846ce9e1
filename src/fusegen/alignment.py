"""Contrastive alignment between pooled fusion features and report embeddings.

The fused sequence is mean-pooled over valid rows, projected, and
L2-normalized; reports go through an embedding mean-pool and projection. The
InfoNCE loss contrasts each fused vector against all report vectors in the
batch (negatives over reports only, as printed).
"""

from __future__ import annotations

import math
import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .tensor import Tensor

TEMPERATURE_FLOOR = 1e-3
L2_EPS = 1e-12     # squared norms below this are degenerate rows


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


def l2_normalize(x: Tensor) -> Tensor:
    """Row-normalize; near-zero rows stay zero."""
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    degenerate = norm_sq.data.reshape(-1) < L2_EPS
    inv = T.pow_const(norm_sq + L2_EPS * L2_EPS, -0.5)
    return x * (inv * ~degenerate[:, None])


def _masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of (N, S, D) over S, counting only rows where ``mask`` is True."""
    m = np.asarray(mask, dtype=x.data.dtype)
    return (x * m[:, :, None]).sum(axis=-2) * (1.0 / m.sum(axis=1))[:, None]


def pool_fusion(f: Tensor, params: dict, row_mask: np.ndarray) -> Tensor:
    """Mean over valid rows of the fused (N, S, P) sequence, then project:
    (N, D_align) unit rows."""
    proj = nn.linear(_masked_mean(f, row_mask), params["aln.pool.w"], params["aln.pool.b"])
    return l2_normalize(proj)


def embed_report(report_ids: np.ndarray, params: dict, mask: np.ndarray) -> Tensor:
    """(N, D_align) unit rows for (N, T) report ids: token embedding
    mean-pool over the ``mask``ed tokens, plus projection."""
    if not np.asarray(mask).any(axis=1).all():
        raise ValueError("a report has no unmasked tokens")
    x = T.embedding(params["aln.rep.embed"], report_ids)
    proj = nn.linear(_masked_mean(x, mask), params["aln.rep.w"], params["aln.rep.b"])
    return l2_normalize(proj)


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
    return T.nll(logits, np.arange(n), np.ones(n, bool)) * (1.0 / n)
