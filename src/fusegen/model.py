"""Full model: encoders -> fusion stages -> alignment + decoder.

Parameters live in one flat name->Tensor dict so the optimizer, checkpointing
and gradient checks can treat them uniformly. Ablation toggles decide at init
which groups exist at all; a disabled module contributes no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import abstractor as abs_mod
from . import adaptor as adp_mod
from . import alignment as aln_mod
from . import decoder as dec_mod
from . import encoders, nn
from . import tensor as T
from .config import ModelConfig
from .data import Batch
from .tensor import Tensor


@dataclass
class LossReport:
    l_ce: float
    l_ce_per_token: float
    l_align: float
    l_total: float
    grad_norm: float = 0.0
    total: Optional[Tensor] = field(default=None, repr=False)


def _extent(mask: np.ndarray) -> int:
    """One past the last column of an (N, L) mask that is True in some row; at least 1."""
    return int(np.flatnonzero(mask.any(axis=0)).max(initial=0)) + 1


class ReportModel:
    def __init__(self, cfg: ModelConfig, *, _rng=None):
        # _rng replaces the seeded generator: load_checkpoint passes one that
        # sizes the parameter layout it fills without drawing or allocating
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed) if _rng is None else _rng
        params: Dict[str, Tensor] = {}
        params.update(encoders.init_image_encoder(cfg, rng))
        if cfg.use_keywords:
            params.update(encoders.init_keyword_encoder(cfg, rng))
        if cfg.use_abstractor:
            params.update(abs_mod.init_abstractor(cfg, rng))
        if cfg.use_adaptor:
            params.update(adp_mod.init_adaptor(cfg, rng))
        if not (cfg.use_abstractor or cfg.use_adaptor):
            # fallback fusion: plain per-row projections into width P
            params["base.v.w"] = nn.init_weight(rng, cfg.e_v, cfg.p)
            params["base.v.b"] = nn.init_bias(cfg.p)
            if cfg.use_keywords:
                params["base.l.w"] = nn.init_weight(rng, cfg.e_l, cfg.p)
                params["base.l.b"] = nn.init_bias(cfg.p)
        if cfg.use_alignment:
            params.update(aln_mod.init_alignment(cfg, rng))
        params.update(dec_mod.init_decoder(cfg, rng))
        for p in params.values():
            p.data = p.data.astype(cfg.dtype, copy=False)
        self.params = params

    # -- parameter plumbing -------------------------------------------
    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- forward ------------------------------------------------------
    def fuse(self, images: np.ndarray, kw_ids: Optional[np.ndarray],
             kw_mask: Optional[np.ndarray]) -> Tuple[Tensor, np.ndarray]:
        """(N, S_F, P) fused rows and their (N, S_F) validity mask for a batch
        of images, keyword ids and their mask (True = real token); a model
        without the keyword branch ignores both keyword inputs."""
        cfg = self.cfg
        v_e = encoders.encode_image(images, self.params, cfg)
        n = v_e.shape[0]
        l_e = None
        seq_valid = np.ones((n, cfg.s_v), dtype=bool)
        if cfg.use_keywords:
            kw_mask = np.asarray(kw_mask, dtype=bool)
            l_e = encoders.encode_keywords(kw_ids, self.params, cfg, mask=kw_mask)
            seq_valid = np.concatenate([seq_valid, kw_mask], axis=1)

        parts: List[Tensor] = []
        if cfg.use_abstractor:
            parts.append(abs_mod.abstractor_forward(v_e, l_e, self.params, cfg, l_mask=kw_mask))
        if cfg.use_adaptor:
            parts.append(adp_mod.adaptor_forward(v_e, l_e, self.params, cfg, l_mask=kw_mask))
        if not parts:
            base = nn.linear(v_e, self.params["base.v.w"], self.params["base.v.b"])
            if l_e is not None:
                base_l = nn.linear(l_e, self.params["base.l.w"], self.params["base.l.b"])
                base = T.concat([base, base_l], axis=-2)
            parts.append(base)
        f = parts[0] if len(parts) == 1 else T.concat(parts, axis=-2)
        return f, np.concatenate([seq_valid] * len(parts), axis=1)

    def losses(self, batch: Batch, lambda_align: float) -> LossReport:
        """Composite loss at the batch's real extent. Keyword columns padded
        in every row are masked keys and fused rows, and report positions
        past every row's last target come causally after all targets, so
        dropping them changes the losses only at rounding."""
        cfg = self.cfg
        s, t = _extent(batch.kw_mask), _extent(batch.rep_mask)
        f, f_row_mask = self.fuse(batch.images, batch.kw_ids[:, :s], batch.kw_mask[:, :s])

        l_align = Tensor(np.zeros(1, dtype=cfg.dtype))
        if cfg.use_alignment:
            f_emb = aln_mod.pool_fusion(f, self.params, row_mask=f_row_mask)
            # the report's content tokens: the decoder inputs after BOS
            r_emb = aln_mod.embed_report(batch.rep_in[:, 1:t], self.params,
                                         mask=batch.rep_mask[:, 1:t])
            tau = aln_mod.temperature(self.params)
            l_align = aln_mod.info_nce(f_emb, r_emb, tau)

        logits = dec_mod.decoder_forward(batch.rep_in[:, :t], f, f_row_mask, self.params, cfg)
        l_ce, l_ce_tok = dec_mod.cross_entropy(logits, batch.rep_tgt[:, :t],
                                               batch.rep_mask[:, :t])

        total = l_ce + l_align * lambda_align
        for name, val in (("l_ce", l_ce), ("l_align", l_align), ("l_total", total)):
            if not np.isfinite(val.data).all():
                raise T.NonFiniteError(f"non-finite loss in {name}: {val.item()}")
        return LossReport(l_ce=float(l_ce.item()),
                          l_ce_per_token=float(l_ce_tok.item()),
                          l_align=float(l_align.item()),
                          l_total=float(total.item()),
                          total=total)

    # -- inference ----------------------------------------------------
    def generate(self, image: np.ndarray, kw_ids: Optional[np.ndarray],
                 kw_mask: Optional[np.ndarray], bos_id: int, eos_id: int,
                 max_len: int, temperature: float = 0.0,
                 seed: int = 0) -> List[List[int]]:
        """Autoregressive decode without the tape, all streams in lockstep.

        Takes a batch (4-D images, 2-D keyword ids) and returns the content
        ids of each stream. ``temperature`` 0 picks the arg-max token; above
        0 each live stream samples from the softmax of logits / temperature,
        drawn from ``seed``. A stream stops at its EOS; the loop stops once
        every stream has stopped.
        """
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if not 0 <= temperature < np.inf:    # also rejects NaN
            raise ValueError(f"temperature must be >= 0 and finite, got {temperature}")
        n = image.shape[0]
        rng = np.random.default_rng(seed)
        tokens: List[List[int]] = [[] for _ in range(n)]
        with T.no_grad():
            f, f_row_mask = self.fuse(image, kw_ids, kw_mask)
        cache = dec_mod.KVCache(self.params, self.cfg, f, f_row_mask, max_len)
        cur = np.full(n, bos_id)
        live = np.ones(n, dtype=bool)
        for _ in range(max_len):
            logits = dec_mod.decode_step(cache, cur)
            if temperature == 0:
                cur = logits.argmax(axis=-1)
            else:
                for i in np.flatnonzero(live):
                    cur[i] = self._sample(logits[i], temperature, rng)
            live &= cur != eos_id
            for i in np.flatnonzero(live):
                tokens[i].append(int(cur[i]))
            if not live.any():
                break
        return tokens

    @staticmethod
    def _sample(logits: np.ndarray, temperature: float,
                rng: np.random.Generator) -> int:
        p = T._softmax_np(logits / max(temperature, 1e-6))
        return int(rng.choice(len(p), p=p))
