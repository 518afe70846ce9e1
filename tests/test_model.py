"""Tests for the assembled model: toggles, fusion layout, losses, generation."""

import numpy as np
import pytest

from fusegen import cli
from fusegen import data as D
from fusegen import decoder as DEC
from fusegen import tensor as T
from fusegen import training as TR
from fusegen.config import ConfigError, TrainConfig
from fusegen.model import ReportModel
from fusegen.tensor import Tensor
from fusegen.verify import toy_config

RNG = np.random.default_rng(37)


def _batch(cfg, n=2, seed=0):
    vocab = D.default_vocab()
    samples = D.synth_generate(n, seed=seed, side=cfg.image_side)
    return vocab, samples, D.make_batch(samples, vocab, cfg.s_l, max_len=10)


def test_fusion_row_layout_both_stages():
    cfg = toy_config()
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    state = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    s = cfg.s_v + cfg.s_l
    assert state.f.shape == (2, 2 * s, cfg.p)        # F1 rows then F2 rows
    np.testing.assert_allclose(state.f.data[:, :s], state.f1.data)
    np.testing.assert_allclose(state.f.data[:, s:], state.f2.data)
    assert state.f_row_mask.shape == (2, 2 * s)


@pytest.mark.parametrize("toggles, expect_rows", [
    (dict(use_abstractor=False), 1),                      # adaptor only
    (dict(use_adaptor=False), 1),                         # abstractor only
    (dict(use_abstractor=False, use_adaptor=False), 1),   # baseline projection
])
def test_fusion_toggles_change_row_count(toggles, expect_rows):
    cfg = toy_config(**toggles)
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    state = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    assert state.f.shape[1] == expect_rows * (cfg.s_v + cfg.s_l)


def test_visual_only_configuration():
    cfg = toy_config(use_keywords=False, use_abstractor=False, use_adaptor=False)
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    state = model.fuse(batch.images, None, None)
    assert state.l_e is None
    assert state.f.shape[1] == cfg.s_v
    report = model.losses(batch, lambda_align=0.5)
    assert np.isfinite(report.l_total)


def test_keywordless_fusion_rejected_with_fusion_stages():
    with pytest.raises(ConfigError):
        toy_config(use_keywords=False)   # abstractor/adaptor still on


def test_disabled_modules_contribute_no_parameters():
    full = ReportModel(toy_config()).params
    no_adp = ReportModel(toy_config(use_adaptor=False)).params
    assert any(k.startswith("adp.") for k in full)
    assert not any(k.startswith("adp.") for k in no_adp)
    no_aln = ReportModel(toy_config(use_alignment=False)).params
    assert not any(k.startswith("aln.") for k in no_aln)


def test_losses_composite_weighting():
    cfg = toy_config()
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    r0 = model.losses(batch, lambda_align=0.0)
    r1 = model.losses(batch, lambda_align=0.5)
    assert r0.l_total == pytest.approx(r0.l_ce, abs=1e-12)
    assert r1.l_total == pytest.approx(r1.l_ce + 0.5 * r1.l_align, abs=1e-12)
    assert r1.l_align > 0.0


def test_alignment_disabled_gives_zero_align_loss():
    cfg = toy_config(use_alignment=False)
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    r = model.losses(batch, lambda_align=0.5)
    assert r.l_align == 0.0


def test_training_memory_report_segment_is_causal():
    """Changing report tokens after position t must not change logits <= t."""
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, _, batch = _batch(cfg, n=1)
    state = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    valid = np.concatenate([np.ones((1, 1), dtype=bool), batch.rep_mask[:, :-1]], axis=1)

    mem, mask = model._training_memory(state, batch.rep_in, valid)
    base = DEC.decoder_forward(batch.rep_in, mem, model.params, cfg,
                               mem_mask=mask).data[0]

    t = 3
    rep2 = batch.rep_in.copy()
    rep2[0, t + 1:] = RNG.integers(5, len(vocab), rep2.shape[1] - t - 1)
    state2 = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    mem2, mask2 = model._training_memory(state2, rep2, valid)
    out = DEC.decoder_forward(rep2, mem2, model.params, cfg, mem_mask=mask2).data[0]
    np.testing.assert_allclose(out[: t + 1], base[: t + 1], atol=1e-12)


def _greedy_uncached(model, image, kw_ids, kw_mask, bos_id, eos_id, max_len):
    """Reference decode without a KV cache: every step re-runs the
    teacher-forced decoder over the whole prefix, with the memory holding the
    fused rows plus the causally masked prefix embeddings."""
    state = model.fuse(image[None], kw_ids[None], kw_mask[None])
    mem_f = Tensor(DEC.project_memory(state.f, model.params).data)
    embed = model.params["dec.embed"]
    s_f = mem_f.shape[1]
    seq, tokens = [bos_id], []
    for _ in range(max_len):
        rep = np.array([seq])
        t = rep.shape[1]
        memory = T.concat([mem_f, Tensor(embed.data[rep])], axis=-2)
        mask = np.zeros((1, t, s_f + t), dtype=bool)
        mask[:, :, :s_f] = state.f_row_mask[:, None, :]
        mask[:, :, s_f:] = ~np.triu(np.ones((t, t), dtype=bool), k=1)
        logits = DEC.decoder_forward(rep, memory, model.params, model.cfg, mem_mask=mask)
        cur = int(np.argmax(logits.data[0, -1]))
        if cur == eos_id:
            break
        tokens.append(cur)
        seq.append(cur)
    return tokens


def test_generate_greedy_cached_equals_uncached():
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, samples, _ = _batch(cfg)
    s = samples[0]
    kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
    a = model.generate(s.image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id, max_len=8)
    b = _greedy_uncached(model, s.image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id,
                         max_len=8)
    assert a == b


@pytest.fixture(scope="module")
def trained_toy():
    """A toy model trained just long enough that its decodes depend on the
    input, so streams of one batch differ."""
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab = D.default_vocab()
    samples = D.synth_generate(16, seed=0, side=cfg.image_side)
    TR.run_training(model, samples, vocab,
                    TrainConfig(batch_size=8, lr=1e-2, scheduler="constant"),
                    n_steps=60, max_len=10)
    return model, vocab, samples


def test_generate_batch_equals_uncached_per_stream(trained_toy):
    model, vocab, samples = trained_toy
    samples = samples[:6]
    enc = [D.encode_keyword_string(vocab, s.keywords, model.cfg.s_l) for s in samples]
    free = [_greedy_uncached(model, s.image, ids, m, vocab.bos_id, -1, 8)
            for s, (ids, m) in zip(samples, enc)]
    # the emitted token whose first occurrence varies most across streams
    # becomes EOS, so the streams stop at different steps
    stops = {tok: {seq.index(tok) if tok in seq else 8 for seq in free}
             for seq in free for tok in seq}
    eos = max(sorted(stops), key=lambda tok: len(stops[tok]))
    assert len(stops[eos]) >= 3
    images = np.stack([s.image for s in samples])
    kw_ids = np.stack([ids for ids, _ in enc])
    kw_mask = np.stack([m for _, m in enc])
    batched = model.generate(images, kw_ids, kw_mask, vocab.bos_id, eos, max_len=8)
    expect = [_greedy_uncached(model, s.image, ids, m, vocab.bos_id, eos, 8)
              for s, (ids, m) in zip(samples, enc)]
    assert batched == expect
    assert len({len(t) for t in batched}) >= 3


@pytest.mark.parametrize("decode_batch", [5, 64])
def test_decode_corpus_matches_per_sample_loop_with_keyword_dropout(
        trained_toy, monkeypatch, decode_batch):
    model, vocab, samples = trained_toy
    monkeypatch.setattr(cli, "DECODE_BATCH", decode_batch)   # 5: a ragged last batch
    hyps, refs = cli._decode_corpus(model, samples, vocab, 10,
                                    keyword_dropout=0.5, drop_seed=3)
    drop_rng = np.random.default_rng(3)
    expect = []
    for s in samples:
        ids, m = D.encode_keyword_string(vocab, s.keywords, model.cfg.s_l, drop_rng, 0.5)
        expect.append(model.generate(s.image, ids, m, vocab.bos_id, vocab.eos_id, 10))
    assert hyps == expect
    assert refs == [vocab.encode(s.report) for s in samples]


def test_generate_sampling_is_seeded():
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, samples, _ = _batch(cfg)
    s = samples[0]
    kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
    a = model.generate(s.image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id,
                       max_len=8, mode="sample", temperature=1.5, seed=4)
    b = model.generate(s.image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id,
                       max_len=8, mode="sample", temperature=1.5, seed=4)
    assert a == b
    with pytest.raises(ValueError):
        model.generate(s.image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id,
                       max_len=8, mode="beam")


def test_generate_respects_max_len():
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, samples, _ = _batch(cfg)
    s = samples[0]
    kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
    out = model.generate(s.image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id, 3)
    assert len(out) <= 3
    with pytest.raises(ValueError):
        model.generate(s.image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id, 0)


def test_model_init_is_seed_deterministic():
    a = ReportModel(toy_config(seed=5)).params
    b = ReportModel(toy_config(seed=5)).params
    c = ReportModel(toy_config(seed=6)).params
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)
