"""Acceptance gate: the package-level guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and then asserts. The convergence and sensitivity tests
(criteria 6, 7, 9) train real models and dominate the runtime of this file;
everything else is seconds.
"""

import math
import time
import warnings

import numpy as np
import pytest

from fusegen import abstractor as abs_mod
from fusegen import adaptor as adp_mod
from fusegen import alignment as aln_mod
from fusegen import cli
from fusegen import data as D
from fusegen import decoder as dec_mod
from fusegen import metrics as M
from fusegen import nn
from fusegen import tensor as T
from fusegen import training as TR
from fusegen.config import ModelConfig, TrainConfig
from fusegen.model import ReportModel
from fusegen.tensor import Tensor
from fusegen.verify import run_all_checks, toy_config
from metric_oracles import oracle_bleu, oracle_cider, oracle_rouge_l

RNG = np.random.default_rng(101)

# shared budget for the convergence criteria (6 and 9): the learning rate,
# sample count, step cap, and loss weight are fixed requirements; batch size
# and schedule shape are free knobs
CONV_LR = 1e-4
CONV_STEPS = 2000
CONV_SAMPLES = 200
CONV_SEEDS = (0, 1, 2)


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _train_overfit(seed, lambda_align, tmp_path):
    """One convergence run; returns (final ce/token, train BLEU-4, seconds)."""
    vocab = D.default_vocab()
    cfg = ModelConfig(vocab_size=32, seed=seed)
    model = ReportModel(cfg)
    samples = D.synth_generate(CONV_SAMPLES, seed=seed, side=cfg.image_side)
    tc = TrainConfig(batch_size=32, lr=CONV_LR, scheduler="constant",
                     lambda_align=lambda_align, seed=seed,
                     n_train=CONV_SAMPLES)
    t0 = time.monotonic()
    state, hist = TR.run_training(model, samples, vocab, tc,
                                  n_steps=CONV_STEPS, max_len=10)
    elapsed = time.monotonic() - t0
    ckpt = str(tmp_path / f"overfit_{seed}_{lambda_align}.ckpt")
    TR.save_checkpoint(model, state, tc, ckpt)
    return model, ckpt, hist[-1].l_ce_per_token, elapsed


def _bleu4_via_cmd_eval(ckpt, capsys):
    rc = cli.main(["eval", "--checkpoint", ckpt, "--split", "train",
                   "--out", "/tmp/unused-accept"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in out.splitlines():
        if line.startswith("BLEU-4:"):
            return float(line.split(":")[1])
    raise AssertionError(f"no BLEU-4 in cmd_eval output:\n{out}")


# ---------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------

def test_criterion_1_gradient_integrity(capsys):
    t0 = time.monotonic()
    cfg = toy_config()
    n_params = sum(p.size for p in ReportModel(cfg).params.values())
    results = run_all_checks("softmax", seed=0)
    elapsed = time.monotonic() - t0
    # seven module checks, then float64 and float32 end-to-end, each group
    # reported against its own bound
    groups = [("module", results[:7], 1e-5), ("end-to-end", results[7:8], 1e-4),
              ("float32 end-to-end", results[8:], 1e-2)]
    bounds_ok = len(results) == 9 and all(
        r.threshold == bound for _, rs, bound in groups for r in rs)
    ok = (bounds_ok and all(r.passed for r in results) and n_params < 50_000
          and elapsed < 300.0)
    worst = ", ".join(f"{label} {max(r.max_rel_err for r in rs):.2e} < {bound:.0e}"
                      for label, rs, bound in groups)
    with capsys.disabled():
        assert _verdict(1, "finite-difference checks, each group under its own bound",
                        ok, f"{n_params} params, worst {worst}, {elapsed:.0f}s")


# ---------------------------------------------------------------------
# 2. attention invariants
# ---------------------------------------------------------------------

def test_criterion_2_attention_invariants(capsys):
    cfg = toy_config()
    params = abs_mod.init_abstractor(cfg, np.random.default_rng(1))
    max_row_dev = 0.0
    max_residual = 0.0
    min_weight = 0.0
    max_sum_dev = 0.0
    for trial in range(5):
        s_v, s_l = int(RNG.integers(2, 6)), int(RNG.integers(2, 6))
        v_e = Tensor(RNG.normal(0, 1, (1, s_v, cfg.e_v)))
        l_e = Tensor(RNG.normal(0, 1, (1, s_l, cfg.e_l)))
        v_p, l_p = abs_mod.project_modalities(v_e, l_e, params)
        (v2l, _), (w_v2l, w_l2v) = abs_mod.bidirectional_cross_attention(
            v_p, l_p, "softmax")
        for w in (w_v2l, w_l2v):
            max_row_dev = max(max_row_dev,
                              float(np.abs(w.data.sum(-1) - 1.0).max()))
        # simplex-weight recovery from the output alone
        basis = l_p.data[0]
        for row in v2l.data[0]:
            coef, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
            max_residual = max(max_residual,
                               float(np.abs(basis.T @ coef - row).max()))
            min_weight = min(min_weight, float(coef.min()))
            max_sum_dev = max(max_sum_dev, abs(float(coef.sum()) - 1.0))
    ok = (max_row_dev < 1e-9 and max_residual < 1e-8
          and min_weight > -1e-8 and max_sum_dev < 1e-8)
    with capsys.disabled():
        assert _verdict(2, "softmax rows stochastic; V2L rows are convex combinations",
                        ok, f"row dev {max_row_dev:.1e}, residual {max_residual:.1e}")


# ---------------------------------------------------------------------
# 3. decoder equivalences
# ---------------------------------------------------------------------

def test_criterion_3_decoder_equivalences(capsys):
    # (a) trivial grouping equals independent per-head attention
    cfg = toy_config(n_kv=4)
    params = dec_mod.init_decoder(cfg, np.random.default_rng(2))
    x = Tensor(RNG.normal(0, 1, (1, 5, cfg.dec_d)))
    out = dec_mod.gqa_attention(x, params, cfg, layer=0).data
    pre = "dec.layer0.sa"
    hd = cfg.head_dim
    q = (x.data @ params[f"{pre}.w_q"].data).reshape(1, 5, 4, hd).transpose(0, 2, 1, 3)
    k = (x.data @ params[f"{pre}.w_k"].data).reshape(1, 5, 4, hd).transpose(0, 2, 1, 3)
    v = (x.data @ params[f"{pre}.w_v"].data).transpose(0, 2, 1).reshape(1, 4, hd, 5)
    v = np.swapaxes(v, -1, -2)
    q = dec_mod.rope_apply(Tensor(q)).data
    k = dec_mod.rope_apply(Tensor(k)).data
    heads = []
    for h in range(4):
        logits = q[0, h] @ k[0, h].T / np.sqrt(hd)
        logits[np.triu_indices(5, k=1)] = -np.inf
        e = np.exp(logits - logits.max(-1, keepdims=True))
        heads.append((e / e.sum(-1, keepdims=True)) @ v[0, h])
    ref = np.concatenate(heads, axis=-1) @ params[f"{pre}.w_o"].data
    gqa_dev = float(np.abs(out[0] - ref).max())

    # (b) cached decoding equals the full forward pass
    cfg = toy_config()
    params = dec_mod.init_decoder(cfg, np.random.default_rng(2))
    f = Tensor(RNG.normal(0, 1, (1, 6, cfg.p)))
    f_mask = np.ones((1, 6), dtype=bool)
    ids = RNG.integers(0, cfg.vocab_size, 8)
    full = dec_mod.decoder_forward(ids[None], f, f_mask, params, cfg).data[0]
    cache = dec_mod.KVCache(params, cfg, f, f_mask, len(ids))
    cache_dev = 0.0
    for pos, tok in enumerate(ids):
        row = dec_mod.decode_step(cache, ids[None, pos])[0]
        cache_dev = max(cache_dev, float(np.abs(row - full[pos]).max()))

    # (c) RoPE: scores depend only on the relative offset
    rope_dev = 0.0
    for off in (1, 5, 17):
        qv = RNG.normal(0, 1, (1, 4, 8))
        kv = RNG.normal(0, 1, (1, 4, 8))
        d0 = (dec_mod.rope_apply(Tensor(qv)).data[0]
              @ dec_mod.rope_apply(Tensor(kv)).data[0].T)
        ds = (dec_mod.rope_apply(Tensor(qv), off).data[0]
              @ dec_mod.rope_apply(Tensor(kv), off).data[0].T)
        rope_dev = max(rope_dev, float(np.abs(d0 - ds).max()))

    # (d) causality at the model level, training memory included
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab = D.default_vocab()
    batch = D.make_batch(D.synth_generate(1, 3, cfg.image_side), vocab,
                         cfg.s_l, max_len=10)
    f, f_row_mask = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    base = dec_mod.decoder_forward(batch.rep_in, f, f_row_mask, model.params,
                                   cfg).data[0]
    causal_dev = 0.0
    for t in (1, 4):
        rep = batch.rep_in.copy()
        rep[0, t + 1:] = RNG.integers(5, 25, rep.shape[1] - t - 1)
        f, f_row_mask = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
        out = dec_mod.decoder_forward(rep, f, f_row_mask, model.params,
                                      cfg).data[0]
        causal_dev = max(causal_dev, float(np.abs(out[:t + 1] - base[:t + 1]).max()))

    ok = (gqa_dev < 1e-8 and cache_dev < 1e-8 and rope_dev < 1e-8
          and causal_dev < 1e-12)
    with capsys.disabled():
        assert _verdict(3, "GQA/MHA, cache, RoPE shift, causality",
                        ok, f"gqa {gqa_dev:.1e}, cache {cache_dev:.1e}, "
                            f"rope {rope_dev:.1e}, causal {causal_dev:.1e}")


# ---------------------------------------------------------------------
# 4. contrastive-loss closed forms
# ---------------------------------------------------------------------

def test_criterion_4_contrastive_closed_forms(capsys):
    single = aln_mod.info_nce(Tensor(np.array([[1.0, 0.0]])),
                              Tensor(np.array([[0.0, 1.0]])),
                              Tensor(np.array([0.9]))).item()
    row = RNG.normal(0, 1, 6)
    row /= np.linalg.norm(row)
    n = 4
    tiled = Tensor(np.tile(row, (n, 1)))
    identical = aln_mod.info_nce(tiled, Tensor(tiled.data.copy()),
                                 Tensor(np.array([0.31]))).item()
    ortho = aln_mod.info_nce(Tensor(np.eye(3)), Tensor(np.eye(3)),
                             Tensor(np.array([1.0]))).item()
    expect = -math.log(math.e / (math.e + 2.0))
    ok = (single == 0.0
          and abs(identical - math.log(n)) < 1e-9
          and abs(ortho - expect) < 1e-9)
    with capsys.disabled():
        assert _verdict(4, "N=1 zero, identical rows ln N, orthonormal case",
                        ok, f"{single:.1e} / {identical - math.log(n):.1e} / "
                            f"{ortho - expect:.1e}")


# ---------------------------------------------------------------------
# 5. modality-indicator contract
# ---------------------------------------------------------------------

def test_criterion_5_modality_indicator_contract(capsys):
    cfg = toy_config()
    params = adp_mod.init_adaptor(cfg, np.random.default_rng(5))
    params["adp.ind.raw"].data[:cfg.s_v] = -np.inf    # gate exactly zero
    l_e = Tensor(RNG.normal(0, 1, (2, cfg.s_l, cfg.e_l)))

    v1 = Tensor(RNG.normal(0, 1, (2, cfg.s_v, cfg.e_v)), requires_grad=True)
    v2 = Tensor(RNG.normal(0, 1, (2, cfg.s_v, cfg.e_v)))
    f_a = adp_mod.adaptor_forward(v1, l_e, params, cfg)
    f_b = adp_mod.adaptor_forward(v2, l_e, params, cfg)
    indep_dev = float(np.abs(f_a.data - f_b.data).max())

    (f_a * f_a).sum().backward()
    g = v1.grad if v1.grad is not None else np.zeros(1)
    grad_norm = float(np.abs(g).max())

    ok = indep_dev < 1e-12 and grad_norm == 0.0
    with capsys.disabled():
        assert _verdict(5, "zero visual gate: F2 image-independent, image grads zero",
                        ok, f"diff {indep_dev:.1e}, grad {grad_norm:.1e}")


# ---------------------------------------------------------------------
# 6 + 9. overfit convergence and loss-weight sensitivity
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def overfit_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("overfit")
    runs = {}
    for seed in CONV_SEEDS:
        runs[("seed", seed)] = _train_overfit(seed, 0.5, tmp)
    for lam in (0.3, 0.7):
        runs[("lambda", lam)] = _train_overfit(CONV_SEEDS[0], lam, tmp)
    return runs


@pytest.mark.slow
def test_criterion_6_overfit_convergence(overfit_runs, capsys):
    details = []
    ok = True
    total_time = 0.0
    for seed in CONV_SEEDS:
        _, ckpt, ce_tok, elapsed = overfit_runs[("seed", seed)]
        bleu4 = _bleu4_via_cmd_eval(ckpt, capsys)
        total_time += elapsed
        details.append(f"s{seed}: ce {ce_tok:.3f} bleu {bleu4:.3f}")
        ok &= ce_tok < 0.1 and bleu4 > 0.9
    ok &= total_time < 900.0
    with capsys.disabled():
        assert _verdict(6, "200 samples, 2000 steps, lr 1e-4: ce/token < 0.1, "
                           "BLEU-4 > 0.9, 3/3 seeds",
                        ok, "; ".join(details) + f"; {total_time:.0f}s")


@pytest.mark.slow
def test_criterion_9_loss_weight_sensitivity(overfit_runs, capsys):
    details = []
    ok = True
    for lam in (0.3, 0.5, 0.7):
        key = ("lambda", lam) if lam != 0.5 else ("seed", CONV_SEEDS[0])
        _, ckpt, ce_tok, _ = overfit_runs[key]
        bleu4 = _bleu4_via_cmd_eval(ckpt, capsys)
        details.append(f"lam {lam}: ce {ce_tok:.3f} bleu {bleu4:.3f}")
        ok &= ce_tok < 0.1 and bleu4 > 0.9
    with capsys.disabled():
        assert _verdict(9, "alignment weight in {0.3, 0.5, 0.7} does not break training",
                        ok, "; ".join(details))


# ---------------------------------------------------------------------
# 7. ablation structure
# ---------------------------------------------------------------------

def _short_train_bleu(seed, use_kw):
    vocab = D.default_vocab()
    kw = dict(use_keywords=use_kw)
    if not use_kw:
        kw.update(use_abstractor=False, use_adaptor=False, use_alignment=False)
    cfg = ModelConfig(vocab_size=32, seed=seed, **kw)
    model = ReportModel(cfg)
    train = D.synth_generate(96, seed=seed, side=cfg.image_side)
    evals = D.synth_generate(48, seed=seed + 10_000, side=cfg.image_side)
    tc = TrainConfig(batch_size=16, lr=1e-3, scheduler="constant", seed=seed)
    TR.run_training(model, train, vocab, tc, n_steps=300, max_len=10)
    hyps, refs = [], []
    for s in evals:
        if use_kw:
            kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
            kw_ids, kw_mask = kw_ids[None], kw_mask[None]
        else:
            kw_ids = kw_mask = None
        hyps += model.generate(s.image[None], kw_ids, kw_mask, vocab.bos_id,
                               vocab.eos_id, 12)
        refs.append(vocab.encode(s.report))
    return M.score_corpus(hyps, refs).bleu[3]


@pytest.mark.slow
def test_criterion_7_ablation_structure(tmp_path, capsys):
    # the full 5-row toggle grid must run end-to-end
    out = str(tmp_path / "grid")
    rc = cli.main(["ablate", "--epochs", "1", "--samples", "8",
                   "--batch-size", "4", "--out", out])
    capsys.readouterr()
    grid_ok = rc == 0

    wins = 0
    details = []
    for seed in CONV_SEEDS:
        on = _short_train_bleu(seed, True)
        off = _short_train_bleu(seed, False)
        wins += int(on > off)
        details.append(f"s{seed}: {on:.3f} vs {off:.3f}")
    ok = grid_ok and wins >= 2
    with capsys.disabled():
        assert _verdict(7, "toggle grid runs; keyword row wins >= 2/3 seeds",
                        ok, "; ".join(details))


# ---------------------------------------------------------------------
# 8. metric oracles
# ---------------------------------------------------------------------

def test_criterion_8_metric_oracles(capsys):
    rng = np.random.default_rng(41)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            hyps, refs = [], []
            for _ in range(int(rng.integers(2, 8))):
                hyps.append(list(rng.integers(0, 12, rng.integers(1, 10))))
                refs.append(list(rng.integers(0, 12, rng.integers(1, 10))))
            for a, b in zip(M.bleu(hyps, refs), oracle_bleu(hyps, refs)):
                worst = max(worst, abs(a - b))
            worst = max(worst, abs(M.rouge_l(hyps, refs) - oracle_rouge_l(hyps, refs)))
            worst = max(worst, abs(M.cider(hyps, refs) - oracle_cider(hyps, refs)))
    bleu_hand = abs(M.bleu([["a", "b", "c"]], [["a", "b", "c", "d"]])[0]
                    - math.exp(-1.0 / 3.0))
    p, r, b2 = 2.0 / 3.0, 1.0, 1.2
    rouge_hand = abs(M.rouge_l([["a", "x", "b"]], [["a", "b"]])
                     - (1 + b2) * p * r / (r + b2 * p))
    ok = worst < 1e-9 and bleu_hand < 1e-4 and rouge_hand < 1e-4
    with capsys.disabled():
        assert _verdict(8, "BLEU/ROUGE-L/CIDEr match brute force on 50 corpora "
                           "+ hand cases", ok, f"worst {worst:.1e}")


# ---------------------------------------------------------------------
# 10. determinism and persistence
# ---------------------------------------------------------------------

def test_criterion_10_determinism_and_persistence(tmp_path, capsys):
    vocab = D.default_vocab()

    def fresh_run(n_steps, start_step=0, model=None, state=None, seed=3):
        cfg = toy_config(seed=seed)
        model = model or ReportModel(cfg)
        samples = D.synth_generate(12, seed=seed, side=cfg.image_side)
        tc = TrainConfig(batch_size=4, lr=1e-3, scheduler="constant", seed=seed)
        state, hist = TR.run_training(model, samples, vocab, tc, n_steps=n_steps,
                                      state=state, start_step=start_step,
                                      max_len=10)
        return model, state, tc, [h.l_total for h in hist]

    _, _, _, log_a = fresh_run(8)
    _, _, _, log_b = fresh_run(8)
    bitwise = log_a == log_b

    model, state, tc, _ = fresh_run(4)
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    TR.save_checkpoint(model, state, tc, p1)
    m2, s2, tc2 = TR.load_checkpoint(p1)
    TR.save_checkpoint(m2, s2, tc2, p2)
    round_trip = open(p1, "rb").read() == open(p2, "rb").read()

    _, _, _, full_log = fresh_run(8)
    _, _, _, resumed_log = fresh_run(4, start_step=4, model=m2, state=s2)
    resume_dev = max(abs(a - b) for a, b in zip(full_log[4:], resumed_log))

    ok = bitwise and round_trip and resume_dev < 1e-9
    with capsys.disabled():
        assert _verdict(10, "bit-exact logs, bitwise checkpoint round-trip, resume",
                        ok, f"resume dev {resume_dev:.1e}")
