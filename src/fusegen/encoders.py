"""Visual and keyword encoders.

The visual path is a stand-in for a pretrained convolutional backbone: three
stride-2 patch-merge blocks (each a 2x2 patch fold followed by a linear map
and GELU) reduce a square image to an (side/8, side/8) grid, and a single
global-context attention layer (spatial softmax pooling, re-broadcast) lets
every cell see the whole image. The keyword path is a standard transformer
encoder over [SEP]-joined keyword tokens.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import nn
from . import tensor as T
from .config import ConfigError, ModelConfig
from .tensor import Tensor


# ---------------------------------------------------------------------
# image encoder
# ---------------------------------------------------------------------

def init_image_encoder(cfg: ModelConfig, rng: Optional[np.random.Generator]) -> dict:
    chans = [1, max(4, cfg.e_v // 4), max(4, cfg.e_v // 2), cfg.e_v]  # grey-scale input
    params = {}
    for i in range(3):
        params[f"img.block{i}.w"] = nn.init_weight(rng, 4 * chans[i], chans[i + 1])
        params[f"img.block{i}.b"] = nn.init_bias(chans[i + 1])
    params["img.ctx.w_score"] = nn.init_weight(rng, cfg.e_v, 1)
    params["img.ctx.w_proj"] = nn.init_weight(rng, cfg.e_v, cfg.e_v)
    # grid cells need an identity of their own: downstream attention is
    # permutation-invariant over memory rows
    params["img.pos"] = nn.init_embedding(rng, cfg.s_v, cfg.e_v, std=0.4)
    return params


def _patch_merge(x: Tensor) -> Tensor:
    # (N, H, W, c) -> (N, H/2, W/2, 4c)
    n, h, w, c = x.shape
    x = x.reshape(n, h // 2, 2, w // 2, 2, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(n, h // 2, w // 2, 4 * c)


def encode_image(images: np.ndarray, params: dict, cfg: ModelConfig) -> Tensor:
    """Map (N, side, side, C) images, cast to ``cfg.dtype``, to (N, S_V, E_V)
    features, flattened row-major over the grid."""
    x = Tensor(np.asarray(images, dtype=cfg.dtype))
    n, side, side2, c = x.shape
    if side != side2 or side % 8 != 0:
        raise ConfigError(f"image must be square with side divisible by 8, got {side}x{side2}")
    for i in range(3):
        x = T.gelu(nn.linear(_patch_merge(x), params[f"img.block{i}.w"], params[f"img.block{i}.b"]))
    g = side // 8
    x = x.reshape(n, g * g, cfg.e_v) + params["img.pos"]
    # global-context attention: softmax-pooled context re-broadcast to each cell
    scores = T.matmul(x, params["img.ctx.w_score"]).transpose(0, 2, 1)   # (N, 1, S_V)
    weights = T.softmax_rows(scores)
    ctx = T.matmul(weights, x)                                           # (N, 1, E_V)
    return x + T.matmul(ctx, params["img.ctx.w_proj"])


# ---------------------------------------------------------------------
# keyword encoder
# ---------------------------------------------------------------------

def init_keyword_encoder(cfg: ModelConfig, rng: Optional[np.random.Generator]) -> dict:
    d = cfg.e_l
    params = {"kw.embed": nn.init_embedding(rng, cfg.vocab_size, d)}
    for l in range(cfg.enc_layers):
        for name, w in nn.init_mha(rng, d).items():
            params[f"kw.layer{l}.attn.{name}"] = w
        params[f"kw.layer{l}.ffn.w1"] = nn.init_weight(rng, d, 2 * d)
        params[f"kw.layer{l}.ffn.b1"] = nn.init_bias(2 * d)
        params[f"kw.layer{l}.ffn.w2"] = nn.init_weight(rng, 2 * d, d)
        params[f"kw.layer{l}.ffn.b2"] = nn.init_bias(d)
        params[f"kw.layer{l}.ln1.g"] = Tensor(np.ones(d), requires_grad=True)
        params[f"kw.layer{l}.ln1.b"] = nn.init_bias(d)
        params[f"kw.layer{l}.ln2.g"] = Tensor(np.ones(d), requires_grad=True)
        params[f"kw.layer{l}.ln2.b"] = nn.init_bias(d)
    return params


def encode_keywords(token_ids: np.ndarray, params: dict, cfg: ModelConfig,
                    mask: np.ndarray) -> Tensor:
    """(N, S_L, E_L) contextual embeddings for (N, S_L) keyword token ids.

    ``mask`` marks real tokens (True); padded positions are excluded from
    attention as keys, so their ids cannot influence unpadded outputs.
    """
    ids = np.asarray(token_ids)
    s = ids.shape[1]
    if s < 1 or s > cfg.s_l:
        raise ConfigError(f"keyword length {s} outside [1, {cfg.s_l}]")
    mask = np.asarray(mask, dtype=bool)
    x = T.embedding(params["kw.embed"], ids) + nn.sinusoidal_positions(s, cfg.e_l)
    for l in range(cfg.enc_layers):
        attn = {k: params[f"kw.layer{l}.attn.{k}"] for k in ("w_q", "w_k", "w_v", "w_o")}
        h = nn.mha(x, attn, cfg.enc_heads, mode=cfg.attn_norm, key_mask=mask)
        x = T.layer_norm(x + h, params[f"kw.layer{l}.ln1.g"], params[f"kw.layer{l}.ln1.b"])
        f = T.gelu(nn.linear(x, params[f"kw.layer{l}.ffn.w1"], params[f"kw.layer{l}.ffn.b1"]))
        f = nn.linear(f, params[f"kw.layer{l}.ffn.w2"], params[f"kw.layer{l}.ffn.b2"])
        x = T.layer_norm(x + f, params[f"kw.layer{l}.ln2.g"], params[f"kw.layer{l}.ln2.b"])
    return x
