"""Command-line entry point: train / eval / generate / grad-check / ablate.

Precedence: built-in defaults < --config file < explicit flags. The effective
config (all defaults resolved) is echoed into the output directory so a run
can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import data as D
from . import metrics as M
from . import training as TR
from .config import (ConfigError, ModelConfig, TrainConfig, config_from_dict,
                     config_to_dict, load_config, save_config)
from .model import ReportModel
from .verify import run_all_checks

ABLATION_GRID = [
    # (label, use_keywords, use_abstractor, use_adaptor, use_alignment)
    ("----", False, False, False, False),
    ("K---", True, False, False, False),
    ("KA--", True, True, False, False),
    ("KAA-", True, True, True, False),
    ("KAAA", True, True, True, True),
]

# Streams per batched generate call in eval/ablate. The decode caches scale
# with the batch (the cross-attention K/V alone hold N x rows x dec_d floats
# per layer). On the 200-report eval benchmark (seed 1, 2-core VM, two 8 s
# runs each) one 200-stream call peaked at 51.2 MB RSS against 46.9 MB at
# 64 streams (+9%; 100 streams 47.9, 40 streams 47.0), while reports/s
# spread as much between runs as between sizes (64: 2646-3096; 200:
# 3027-3556).
DECODE_BATCH = 64


def _in_range(cast, lo, hi=math.inf):
    """An argparse ``type``: the flag cast by ``cast``, rejected with exit
    status 2 unless lo <= value <= hi, before any subcommand runs."""
    def parse(text: str):
        value = cast(text)
        if not lo <= value <= hi:    # also rejects NaN
            raise argparse.ArgumentTypeError(f"{text!r} is not in [{lo}, {hi}]")
        return value
    parse.__name__ = cast.__name__   # argparse names the type in its errors
    return parse


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The flags ``_resolve_configs`` reads: a config file and overrides."""
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=_in_range(int, 0))
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--samples", type=int, help="training-set size")
    p.add_argument("--lambda", dest="lambda_align", type=float)
    p.add_argument("--attn", choices=["softmax", "sigmoid"])
    p.add_argument("--scheduler", choices=["warmup_cosine", "constant"])
    p.add_argument("--lr", type=float)


def _add_run_flags(p: argparse.ArgumentParser, checkpoint: bool = True) -> None:
    p.add_argument("--max-len", type=_in_range(int, 1), default=12)
    p.add_argument("--out", default="runs/default")
    if checkpoint:
        p.add_argument("--checkpoint", help="checkpoint path (defaults under --out)")


def _resolve_configs(args, ablate=()) -> tuple[ModelConfig, TrainConfig]:
    if args.config:
        model_cfg, train_cfg = load_config(args.config)
        d = config_to_dict(model_cfg, train_cfg)
    else:
        d = config_to_dict(ModelConfig(), TrainConfig())
    flags = {"seed": args.seed, "epochs": args.epochs, "batch_size": args.batch_size,
             "n_train": args.samples, "lambda_align": args.lambda_align,
             "attn_norm": args.attn, "scheduler": args.scheduler, "lr": args.lr}
    d.update((key, value) for key, value in flags.items() if value is not None)
    for name in ablate:
        d[{"kw": "use_keywords", "abs": "use_abstractor",
           "adp": "use_adaptor", "ca": "use_alignment"}[name]] = False
    if not d.get("use_keywords", True):
        d["use_abstractor"] = False
        d["use_adaptor"] = False
    return config_from_dict(d)


def _prepare_out(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> str:
    os.makedirs(args.out, exist_ok=True)
    save_config(model_cfg, train_cfg, os.path.join(args.out, "config.json"))
    return args.out


def _ckpt_path(args) -> str:
    return args.checkpoint or os.path.join(args.out, "model.ckpt")


def _steps_per_epoch(train_cfg: TrainConfig, n_samples: int) -> int:
    return max(1, math.ceil(n_samples / train_cfg.batch_size))


def _build_data(model_cfg: ModelConfig, train_cfg: TrainConfig, *splits: str):
    """The task vocabulary, then the samples of each named split ("train" or
    "eval"); only the splits asked for are synthesized."""
    vocab = D.default_vocab()
    if len(vocab) > model_cfg.vocab_size:
        raise ConfigError(f"vocab_size={model_cfg.vocab_size} below task vocabulary {len(vocab)}")
    sizes = {"train": (train_cfg.n_train, train_cfg.seed),
             "eval": (train_cfg.n_eval, train_cfg.seed + 10_000)}
    return (vocab, *(D.synth_generate(*sizes[split], side=model_cfg.image_side)
                     for split in splits))


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_train(args) -> int:
    model_cfg, train_cfg = _resolve_configs(args, args.ablate)
    out = _prepare_out(args, model_cfg, train_cfg)
    vocab, train_samples = _build_data(model_cfg, train_cfg, "train")
    model = ReportModel(model_cfg)
    steps_per_epoch = _steps_per_epoch(train_cfg, len(train_samples))
    # one run, so the lr schedule spans every epoch; epochs are history slices
    state, hist = TR.run_training(model, train_samples, vocab, train_cfg,
                                  n_steps=train_cfg.epochs * steps_per_epoch,
                                  max_len=args.max_len)
    with open(os.path.join(out, "metrics.jsonl"), "w", encoding="utf-8") as log:
        for epoch in range(train_cfg.epochs):
            part = hist[epoch * steps_per_epoch:(epoch + 1) * steps_per_epoch]
            rec = {"epoch": epoch, "step": (epoch + 1) * steps_per_epoch}
            for key in ("l_ce", "l_ce_per_token", "l_align", "l_total", "grad_norm"):
                rec[key] = sum(getattr(h, key) for h in part) / len(part)
            log.write(json.dumps(rec, sort_keys=True) + "\n")
            print(f"epoch {epoch}: L_total={rec['l_total']:.4f} "
                  f"L_ce/tok={rec['l_ce_per_token']:.4f} L_align={rec['l_align']:.4f}")
    TR.save_checkpoint(model, state, train_cfg, _ckpt_path(args))
    print(f"checkpoint written to {_ckpt_path(args)}")
    return 0


def _decode_corpus(model: ReportModel, samples, vocab, max_len: int,
                   keyword_dropout: float = 0.0, drop_seed: int = 0):
    """Decode the samples in batched ``generate`` calls of up to
    DECODE_BATCH streams. Keywords are encoded sample by sample first, so
    keyword-dropout draws keep their order."""
    drop_rng = np.random.default_rng(drop_seed) if keyword_dropout > 0 else None
    kw_ids = kw_mask = None
    if model.cfg.use_keywords:
        encoded = [D.encode_keyword_string(vocab, s.keywords, model.cfg.s_l,
                                           drop_rng, keyword_dropout)
                   for s in samples]
        kw_ids = np.stack([ids for ids, _ in encoded])
        kw_mask = np.stack([mask for _, mask in encoded])
    images = np.stack([s.image for s in samples])
    hyps = []
    for lo in range(0, len(samples), DECODE_BATCH):
        part = slice(lo, lo + DECODE_BATCH)
        hyps += model.generate(images[part],
                               None if kw_ids is None else kw_ids[part],
                               None if kw_mask is None else kw_mask[part],
                               vocab.bos_id, vocab.eos_id, max_len)
    refs = [vocab.encode(s.report) for s in samples]
    return hyps, refs


def cmd_eval(args) -> int:
    path = _ckpt_path(args)
    if not os.path.exists(path):
        print(f"error: checkpoint {path} not found", file=sys.stderr)
        return 1
    model, _, train_cfg = TR.load_checkpoint(path)
    vocab, pool = _build_data(model.cfg, train_cfg, args.split)
    hyps, refs = _decode_corpus(model, pool, vocab, args.max_len,
                                args.keyword_dropout, drop_seed=model.cfg.seed)
    report = M.score_corpus(hyps, refs)
    print(report.format())
    return 0


def cmd_generate(args) -> int:
    path = _ckpt_path(args)
    if not os.path.exists(path):
        print(f"error: checkpoint {path} not found", file=sys.stderr)
        return 1
    model, _, train_cfg = TR.load_checkpoint(path)
    vocab = D.default_vocab()
    sample = D.make_sample(args.sample_seed, args.sample_index,
                           side=model.cfg.image_side)
    keywords = args.keywords if args.keywords is not None else sample.keywords
    if model.cfg.use_keywords:
        unknown = [w for w in keywords.split()
                   if w and w not in vocab.word_to_id]
        if unknown:
            print(f"warning: unknown keywords map to {D.UNK}: {unknown}", file=sys.stderr)
        fit = D.max_keywords(model.cfg.s_l)
        dropped = keywords.split()[fit:]
        if dropped:
            print(f"warning: {model.cfg.s_l} keyword slots hold {fit} keywords, "
                  f"dropped: {dropped}", file=sys.stderr)
        if not keywords.strip():
            print("warning: empty keyword string, using a separator-only sequence",
                  file=sys.stderr)
        kw_ids, kw_mask = D.encode_keyword_string(vocab, keywords, model.cfg.s_l)
        kw_ids, kw_mask = kw_ids[None], kw_mask[None]
    else:
        kw_ids = kw_mask = None
    [toks] = model.generate(sample.image[None], kw_ids, kw_mask, vocab.bos_id,
                            vocab.eos_id, args.max_len, temperature=args.temperature,
                            seed=model.cfg.seed)
    print(vocab.decode(toks))
    return 0


def cmd_grad_check(args) -> int:
    results = run_all_checks(args.attn, seed=args.seed)
    ok = True
    for r in results:
        print(r.line())
        ok &= r.passed
    return 0 if ok else 1


def cmd_ablate(args) -> int:
    base_model_cfg, train_cfg = _resolve_configs(args)
    out = _prepare_out(args, base_model_cfg, train_cfg)
    vocab, train_samples, eval_samples = _build_data(base_model_cfg, train_cfg,
                                                     "train", "eval")
    steps = train_cfg.epochs * _steps_per_epoch(train_cfg, len(train_samples))
    rows = []
    for label, kw, ab, ad, ca in ABLATION_GRID:
        d = config_to_dict(base_model_cfg, train_cfg)
        d.update(use_keywords=kw, use_abstractor=ab, use_adaptor=ad,
                 use_alignment=ca)
        model_cfg, _ = config_from_dict(d)
        model = ReportModel(model_cfg)
        TR.run_training(model, train_samples, vocab, train_cfg, n_steps=steps,
                        max_len=args.max_len)
        hyps, refs = _decode_corpus(model, eval_samples, vocab, args.max_len)
        score = M.score_corpus(hyps, refs)
        rows.append((label, score))
        print(f"{label}  BLEU-4={score.bleu[3]:.4f} ROUGE-L={score.rouge_l:.4f} "
              f"CIDEr={score.cider:.4f}")
    with open(os.path.join(out, "ablation.jsonl"), "w", encoding="utf-8") as fh:
        for label, score in rows:
            fh.write(json.dumps({"row": label, "bleu4": score.bleu[3],
                                 "rouge_l": score.rouge_l,
                                 "cider": score.cider}) + "\n")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: building it costs about 20
    times what parsing one command line with it does, and in-process callers
    run ``main`` once per request."""
    parser = argparse.ArgumentParser(prog="fusegen")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on synthetic data")
    _add_config_flags(p_train)
    _add_run_flags(p_train)
    p_train.add_argument("--ablate", nargs="*", default=[],
                         choices=["kw", "abs", "adp", "ca"], help="modules to disable")

    p_eval = sub.add_parser("eval", help="decode and score a checkpoint")
    _add_run_flags(p_eval)
    p_eval.add_argument("--split", choices=["train", "eval"], default="eval")
    p_eval.add_argument("--keyword-dropout", type=_in_range(float, 0.0, 1.0), default=0.0)

    p_gen = sub.add_parser("generate", help="generate one report")
    _add_run_flags(p_gen)
    p_gen.add_argument("--sample-seed", type=_in_range(int, 0), default=0)
    p_gen.add_argument("--sample-index", type=_in_range(int, 0), default=0)
    p_gen.add_argument("--keywords")
    p_gen.add_argument("--temperature", type=_in_range(float, 0.0, sys.float_info.max),
                       default=0.0, help="0 decodes greedily, > 0 samples")

    p_gc = sub.add_parser("grad-check", help="finite-difference verification")
    p_gc.add_argument("--attn", choices=["softmax", "sigmoid"], default="softmax")
    p_gc.add_argument("--seed", type=_in_range(int, 0), default=0)

    p_abl = sub.add_parser("ablate", help="run the component toggle grid")
    _add_config_flags(p_abl)
    _add_run_flags(p_abl, checkpoint=False)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return {"train": cmd_train, "eval": cmd_eval, "generate": cmd_generate,
                "grad-check": cmd_grad_check, "ablate": cmd_ablate}[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TR.CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
