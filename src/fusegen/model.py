"""Full model: encoders -> fusion stages -> alignment + decoder.

Parameters live in one flat name->Tensor dict so the optimizer, checkpointing
and gradient checks can treat them uniformly. Ablation toggles decide at init
which groups exist at all; a disabled module contributes no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

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
class FusionState:
    v_e: Tensor
    l_e: Optional[Tensor]
    f1: Optional[Tensor]
    f2: Optional[Tensor]
    gate: Optional[Tensor]
    f: Tensor                    # (N, S_F, P) fused representation
    f_row_mask: np.ndarray       # (N, S_F) bool, True = valid row


@dataclass
class LossReport:
    l_ce: float
    l_ce_per_token: float
    l_align: float
    l_total: float
    grad_norm: float = 0.0
    total: Optional[Tensor] = field(default=None, repr=False)


class ReportModel:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
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
    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- forward ------------------------------------------------------
    def fuse(self, images: np.ndarray, kw_ids: Optional[np.ndarray],
             kw_mask: Optional[np.ndarray]) -> FusionState:
        cfg = self.cfg
        vis = encoders.encode_image(images, self.params, cfg)
        v_e = vis.v_e
        n = v_e.shape[0]
        l_e = None
        if cfg.use_keywords:
            kw = encoders.encode_keywords(kw_ids, self.params, cfg, mask=kw_mask)
            l_e, kw_mask = kw.l_e, kw.mask
        vis_valid = np.ones((n, cfg.s_v), dtype=bool)
        seq_valid = (np.concatenate([vis_valid, kw_mask], axis=1)
                     if l_e is not None else vis_valid)

        f1 = f2 = gate = None
        parts: List[Tensor] = []
        if cfg.use_abstractor:
            f1 = abs_mod.abstractor_forward(v_e, l_e, self.params, cfg, l_mask=kw_mask).f1
            parts.append(f1)
        if cfg.use_adaptor:
            out = adp_mod.adaptor_forward(v_e, l_e, self.params, cfg, l_mask=kw_mask)
            f2, gate = out.f2, out.gate
            parts.append(f2)
        if not parts:
            base = nn.linear(v_e, self.params["base.v.w"], self.params["base.v.b"])
            if l_e is not None:
                base_l = nn.linear(l_e, self.params["base.l.w"], self.params["base.l.b"])
                base = T.concat([base, base_l], axis=-2)
            parts.append(base)
        f = parts[0] if len(parts) == 1 else T.concat(parts, axis=-2)
        return FusionState(v_e=v_e, l_e=l_e, f1=f1, f2=f2, gate=gate, f=f,
                           f_row_mask=np.concatenate([seq_valid] * len(parts), axis=1))

    def _training_memory(self, state: FusionState, rep_in: np.ndarray,
                         rep_in_valid: np.ndarray):
        """Fused rows plus teacher-forced report embeddings, with a mask that
        keeps the report segment causal."""
        mem_f = dec_mod.project_memory(state.f, self.params)
        e_r = T.embedding(self.params["dec.embed"], rep_in)
        memory = T.concat([mem_f, e_r], axis=-2)
        n, t = rep_in.shape
        s_f = state.f.shape[1]
        mask = np.zeros((n, t, s_f + t), dtype=bool)
        mask[:, :, :s_f] = state.f_row_mask[:, None, :]
        causal = ~np.triu(np.ones((t, t), dtype=bool), k=1)
        mask[:, :, s_f:] = causal[None] & rep_in_valid[:, None, :]
        return memory, mask

    def losses(self, batch: Batch, lambda_align: float) -> LossReport:
        cfg = self.cfg
        kw_ids = batch.kw_ids if cfg.use_keywords else None
        kw_mask = batch.kw_mask if cfg.use_keywords else None
        state = self.fuse(batch.images, kw_ids, kw_mask)

        l_align = Tensor(np.zeros(1, dtype=cfg.dtype))
        if cfg.use_alignment:
            f_emb = aln_mod.pool_fusion(state.f, self.params, row_mask=state.f_row_mask)
            r_emb = aln_mod.embed_report(batch.rep_ids, self.params,
                                         mask=batch.rep_content_mask)
            tau = aln_mod.temperature(self.params)
            l_align = aln_mod.info_nce(f_emb.emb, r_emb.emb, tau)

        rep_in_valid = np.concatenate(
            [np.ones((len(batch), 1), dtype=bool), batch.rep_mask[:, :-1]], axis=1)
        memory, mem_mask = self._training_memory(state, batch.rep_in, rep_in_valid)
        logits = dec_mod.decoder_forward(batch.rep_in, memory, self.params, cfg,
                                         mem_mask=mem_mask)
        l_ce, l_ce_tok = dec_mod.cross_entropy(logits, batch.rep_tgt, batch.rep_mask)

        total = l_ce + l_align * lambda_align
        for name, val in (("l_ce", l_ce), ("l_align", l_align), ("l_total", total)):
            if not np.isfinite(val.data).all():
                raise FloatingPointError(f"non-finite loss in {name}")
        return LossReport(l_ce=float(l_ce.item()),
                          l_ce_per_token=float(l_ce_tok.item()),
                          l_align=float(l_align.item()),
                          l_total=float(total.item()),
                          total=total)

    # -- inference ----------------------------------------------------
    def generate(self, image: np.ndarray, kw_ids: Optional[np.ndarray],
                 kw_mask: Optional[np.ndarray], bos_id: int, eos_id: int,
                 max_len: int, mode: str = "greedy",
                 temperature: float = 1.0,
                 seed: int = 0) -> Union[List[int], List[List[int]]]:
        """Autoregressive decode without the tape, all streams in lockstep.

        A single sample (3-D image, 1-D keyword ids) returns its content ids;
        a batch (4-D images, 2-D ids) returns one id list per stream. A stream
        stops at its EOS; the loop stops once every stream has stopped.
        """
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if mode not in ("greedy", "sample"):
            raise ValueError(f"unknown decode mode {mode!r}")
        cfg = self.cfg
        single = image.ndim == 3
        images = image[None] if single else image
        if cfg.use_keywords:
            kw_ids = np.asarray(kw_ids)
            if kw_ids.ndim == 1:
                kw_ids = kw_ids[None]
                kw_mask = None if kw_mask is None else np.asarray(kw_mask)[None]
        n = images.shape[0]
        rng = np.random.default_rng(seed)
        tokens: List[List[int]] = [[] for _ in range(n)]
        with T.no_grad():
            state = self.fuse(images, kw_ids if cfg.use_keywords else None,
                              kw_mask if cfg.use_keywords else None)
            embed = self.params["dec.embed"].data
            # the memory grows with the embeddings of already-consumed tokens,
            # mirroring the causally masked report segment seen in training
            cache = dec_mod.KVCache(cfg.dec_layers, cfg.n_kv, cfg.head_dim)
            memory = dec_mod.project_memory(state.f, self.params)
            mem_mask = state.f_row_mask[:, None, :]
            cur = np.full(n, bos_id)
            live = np.ones(n, dtype=bool)
            for pos in range(max_len):
                memory = T.concat([memory, Tensor(embed[cur][:, None])], axis=-2)
                mem_mask = np.concatenate(
                    [mem_mask, np.ones((n, 1, 1), dtype=bool)], axis=2)
                logits = dec_mod.decode_step(cur, pos, memory, self.params, cfg,
                                             cache, mem_mask=mem_mask)
                if mode == "greedy":
                    cur = logits.argmax(axis=-1)
                else:
                    for i in np.flatnonzero(live):
                        cur[i] = self._sample(logits[i], temperature, rng)
                live &= cur != eos_id
                for i in np.flatnonzero(live):
                    tokens[i].append(int(cur[i]))
                if not live.any():
                    break
        return tokens[0] if single else tokens

    @staticmethod
    def _sample(logits: np.ndarray, temperature: float,
                rng: np.random.Generator) -> int:
        z = logits / max(temperature, 1e-6)
        z = z - z.max()
        p = np.exp(z)
        p /= p.sum()
        return int(rng.choice(len(p), p=p))
