"""Bit-identity fingerprint of one fusegen source tree.

    PYTHONPATH=TREE/src OPENBLAS_NUM_THREADS=1 python3 bench/fingerprint.py

Each case trains a fresh model for STEPS steps of the criterion-6 recipe
(vocabulary 32, 200 samples, batch 32, constant lr 1e-3, lambda_align 0.5,
max_len 10) and prints one line: the case, then short SHA-256 hashes of
  loss   the per-step ce, ce/token, align and total losses and grad norms,
  param  every parameter (name, dtype, shape and bytes, in name order),
  adam   both Adam moments,
  ckpt   the parameters and moments after a save_checkpoint/load_checkpoint
         round trip,
  decode a 64-stream greedy decode (max_len 12) of held-out samples.
The cases are float32 and float64 x softmax and sigmoid x seeds 0-1, then the
`----`, `K---` and `KA--` ablation rows (float32, softmax, seed 0), and last a
64-stream decode sampled at temperature 1.5 from the first case's model.

Run it once per tree with that tree's `src` on PYTHONPATH and one BLAS
thread; two trees compute the same numbers when their outputs diff empty.
"""

import hashlib
import json
import os
import tempfile

import numpy as np

from fusegen import ModelConfig, ReportModel, TrainConfig
from fusegen import data as D
from fusegen import training as TR

STEPS = 30
ABLATIONS = {"----": dict(use_keywords=False, use_abstractor=False, use_adaptor=False,
                          use_alignment=False),
             "K---": dict(use_abstractor=False, use_adaptor=False, use_alignment=False),
             "KA--": dict(use_adaptor=False, use_alignment=False)}


def digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return h.hexdigest()[:16]


def arrays_digest(arrays: dict) -> str:
    return digest(*(f"{k}{a.dtype}{a.shape}".encode() + np.ascontiguousarray(a).tobytes()
                    for k, a in sorted(arrays.items())))


def decode(model, vocab, temperature=0.0):
    cfg = model.cfg
    batch = D.make_batch(D.synth_generate(64, seed=cfg.seed + 10_000, side=cfg.image_side),
                         vocab, cfg.s_l, 10)
    return digest(json.dumps(model.generate(batch.images, batch.kw_ids, batch.kw_mask,
                                            vocab.bos_id, vocab.eos_id, 12,
                                            temperature=temperature, seed=cfg.seed)))


def run_case(**model_kw):
    vocab = D.default_vocab()
    cfg = ModelConfig(vocab_size=32, **model_kw)
    model = ReportModel(cfg)
    samples = D.synth_generate(200, seed=cfg.seed, side=cfg.image_side)
    tc = TrainConfig(batch_size=32, lr=1e-3, scheduler="constant", lambda_align=0.5,
                     seed=cfg.seed, n_train=200)
    state, hist = TR.run_training(model, samples, vocab, tc, n_steps=STEPS, max_len=10)
    losses = np.array([[r.l_ce, r.l_ce_per_token, r.l_align, r.l_total, r.grad_norm]
                       for r in hist])
    params = {k: p.data for k, p in model.params.items()}
    moments = {**{f"m.{k}": a for k, a in state.m.items()},
               **{f"v.{k}": a for k, a in state.v.items()}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fp.ckpt")
        TR.save_checkpoint(model, state, tc, path)
        loaded, lstate, _ = TR.load_checkpoint(path)
    round_trip = {**{k: p.data for k, p in loaded.params.items()},
                  **{f"m.{k}": a for k, a in lstate.m.items()},
                  **{f"v.{k}": a for k, a in lstate.v.items()}}
    fields = dict(loss=digest(losses.tobytes()), param=arrays_digest(params),
                  adam=arrays_digest(moments), ckpt=arrays_digest(round_trip),
                  decode=decode(model, vocab))
    return model, vocab, " ".join(f"{k}={v}" for k, v in fields.items())


def main():
    first = None
    for dtype in ("float32", "float64"):
        for mode in ("softmax", "sigmoid"):
            for seed in (0, 1):
                model, vocab, line = run_case(dtype=dtype, attn_norm=mode, seed=seed)
                first = first or (model, vocab)
                print(f"{dtype}-{mode}-s{seed} {line}", flush=True)
    for label, kw in ABLATIONS.items():
        print(f"ablation-{label} {run_case(**kw)[2]}", flush=True)
    print(f"sample-t1.5 decode={decode(*first, temperature=1.5)}")


if __name__ == "__main__":
    main()
