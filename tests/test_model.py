"""Tests for the assembled model: toggles, fusion layout, losses, generation."""

from dataclasses import replace

import numpy as np
import pytest

from fusegen import abstractor as ABS
from fusegen import adaptor as ADP
from fusegen import alignment as ALN
from fusegen import cli
from fusegen import data as D
from fusegen import decoder as DEC
from fusegen import encoders
from fusegen import tensor as T
from fusegen import training as TR
from fusegen.config import ConfigError, ModelConfig, TrainConfig
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
    f, f_row_mask = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    v_e = encoders.encode_image(batch.images, model.params, cfg)
    l_e = encoders.encode_keywords(batch.kw_ids, model.params, cfg, mask=batch.kw_mask)
    f1 = ABS.abstractor_forward(v_e, l_e, model.params, cfg, l_mask=batch.kw_mask)
    f2 = ADP.adaptor_forward(v_e, l_e, model.params, cfg, l_mask=batch.kw_mask)
    s = cfg.s_v + cfg.s_l
    assert f.shape == (2, 2 * s, cfg.p)        # F1 rows then F2 rows
    np.testing.assert_allclose(f.data[:, :s], f1.data)
    np.testing.assert_allclose(f.data[:, s:], f2.data)
    assert f_row_mask.shape == (2, 2 * s)


@pytest.mark.parametrize("toggles, expect_rows", [
    (dict(use_abstractor=False), 1),                      # adaptor only
    (dict(use_adaptor=False), 1),                         # abstractor only
    (dict(use_abstractor=False, use_adaptor=False), 1),   # baseline projection
])
def test_fusion_toggles_change_row_count(toggles, expect_rows):
    cfg = toy_config(**toggles)
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    f, _ = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    assert f.shape[1] == expect_rows * (cfg.s_v + cfg.s_l)


def test_visual_only_configuration():
    cfg = toy_config(use_keywords=False, use_abstractor=False, use_adaptor=False)
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    f, _ = model.fuse(batch.images, None, None)
    # keyword inputs play no part in the fused rows
    np.testing.assert_array_equal(
        model.fuse(batch.images, batch.kw_ids, batch.kw_mask)[0].data, f.data)
    assert f.shape[1] == cfg.s_v
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
    f, f_row_mask = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    base = DEC.decoder_forward(batch.rep_in, f, f_row_mask, model.params, cfg).data[0]

    t = 3
    rep2 = batch.rep_in.copy()
    rep2[0, t + 1:] = RNG.integers(5, len(vocab), rep2.shape[1] - t - 1)
    f2, f_row_mask2 = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    out = DEC.decoder_forward(rep2, f2, f_row_mask2, model.params, cfg).data[0]
    np.testing.assert_allclose(out[: t + 1], base[: t + 1], atol=1e-12)


def test_losses_look_up_decoder_embeddings_once():
    """The decoder looks its input tokens up once."""
    cfg = toy_config()
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg)
    table = model.params["dec.embed"]
    lookups = [node for node in T._toposort(model.losses(batch, 0.5).total)
               if node._children == (table,)
               and node._backward.__qualname__.startswith("embedding.")]
    assert len(lookups) == 1


def _repad(batch, s_l, t):
    """``batch`` zero-padded to s_l keyword columns and t report positions,
    as ``make_batch`` pads."""
    def pad(a, width):
        return np.pad(a, [(0, 0), (0, width - a.shape[1])])
    return D.Batch(batch.images, pad(batch.kw_ids, s_l), pad(batch.kw_mask, s_l),
                   *(pad(a, t) for a in (batch.rep_in, batch.rep_tgt, batch.rep_mask)))


def _losses_at_full_extent(model, batch, lambda_align):
    """Reference composite loss that runs every keyword slot and report
    position of the batch, padding included."""
    f, f_row_mask = model.fuse(batch.images, batch.kw_ids, batch.kw_mask)
    tau = ALN.temperature(model.params)
    l_align = ALN.info_nce(ALN.pool_fusion(f, model.params, row_mask=f_row_mask),
                           ALN.embed_report(batch.rep_in[:, 1:], model.params,
                                            mask=batch.rep_mask[:, 1:]), tau)
    logits = DEC.decoder_forward(batch.rep_in, f, f_row_mask, model.params, model.cfg)
    l_ce, _ = DEC.cross_entropy(logits, batch.rep_tgt, batch.rep_mask)
    return l_ce + l_align * lambda_align


def _loss_and_grads(cfg, loss_fn):
    model = ReportModel(cfg)
    total = loss_fn(model)
    value = total.item()
    total.backward()
    return value, {name: p.grad for name, p in model.params.items()}


def test_losses_at_real_extent_match_the_padded_batch():
    cfg = toy_config()                                   # s_l 4
    vocab = D.default_vocab()
    samples = D.synth_generate(4, seed=0, side=cfg.image_side)
    short = D.make_batch(samples, vocab, s_l=2, max_len=10)
    padded = _repad(short, cfg.s_l, 12 + 1)
    runs = [_loss_and_grads(cfg, lambda m: m.losses(short, 0.5).total),
            _loss_and_grads(cfg, lambda m: m.losses(padded, 0.5).total),
            _loss_and_grads(cfg, lambda m: _losses_at_full_extent(m, padded, 0.5))]
    (ref, ref_grads), others = runs[-1], runs[:-1]
    for value, grads in others:
        assert value == pytest.approx(ref, rel=1e-12)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            scale = np.abs(ref_grads[name]).max()
            assert np.abs(g - ref_grads[name]).max() <= 1e-12 * scale, name
    # one keyword per sample: the gate logits of slots 2-4 are trimmed away
    gate = others[1][1]["adp.ind.raw"]
    assert gate.shape == (cfg.s_v + cfg.s_l,)
    assert np.all(gate[cfg.s_v + 1:] == 0.0) and np.all(gate[:cfg.s_v + 1] != 0.0)


def _extents_seen(model, batch, monkeypatch):
    """(keyword columns, report positions) that ``losses`` runs on."""
    seen = {}
    encode, forward = encoders.encode_keywords, DEC.decoder_forward

    def spy_encode(ids, *args, **kwargs):
        seen["kw"] = ids.shape[1]
        return encode(ids, *args, **kwargs)

    def spy_forward(ids, *args):
        seen["rep"] = ids.shape[1]
        return forward(ids, *args)

    monkeypatch.setattr(encoders, "encode_keywords", spy_encode)
    monkeypatch.setattr(DEC, "decoder_forward", spy_forward)
    model.losses(batch, 0.5)
    return seen["kw"], seen["rep"]


def test_losses_keep_every_column_some_row_uses(monkeypatch):
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab = D.default_vocab()
    samples = D.synth_generate(4, seed=0, side=cfg.image_side)
    assert _extents_seen(model, D.make_batch(samples, vocab, cfg.s_l, 10),
                         monkeypatch) == (1, max(len(s.report.split()) for s in samples) + 1)
    # "spot dot" is spot [SEP] dot; a report cut at max_len fills max_len + 1
    samples[2] = replace(samples[2], keywords="spot dot", report=" ".join(["a"] * 14))
    batch = D.make_batch(samples, vocab, cfg.s_l, 12)
    assert _extents_seen(model, batch, monkeypatch) == (3, 12 + 1)


def test_losses_raise_non_finite_error_naming_the_term():
    cfg = toy_config(dtype="float32")
    model = ReportModel(cfg)
    _, _, batch = _batch(cfg, n=8)
    assert issubclass(T.NonFiniteError, FloatingPointError)
    # l_align ~ log(8) times 3e38 is past float32's largest finite value
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="l_total"):
        model.losses(batch, lambda_align=3e38)


def _greedy_uncached(model, image, kw_ids, kw_mask, bos_id, eos_id, max_len):
    """Reference decode without a KV cache: every step re-runs the
    teacher-forced decoder over the whole prefix."""
    f, f_row_mask = model.fuse(image[None], kw_ids[None], kw_mask[None])
    seq, tokens = [bos_id], []
    for _ in range(max_len):
        logits = DEC.decoder_forward(np.array([seq]), f, f_row_mask, model.params, model.cfg)
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
    [a] = model.generate(s.image[None], kw_ids[None], kw_mask[None], vocab.bos_id,
                         vocab.eos_id, max_len=8)
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
        expect += model.generate(s.image[None], ids[None], m[None], vocab.bos_id,
                                 vocab.eos_id, 10)
    assert hyps == expect
    assert refs == [vocab.encode(s.report) for s in samples]


def test_float32_decode_stays_float32(monkeypatch):
    model = ReportModel(ModelConfig())
    assert model.cfg.dtype == "float32"
    vocab, samples, _ = _batch(model.cfg, n=8)
    enc = [D.encode_keyword_string(vocab, s.keywords, model.cfg.s_l) for s in samples]
    made, caches, logits = [], [], []
    init, step = Tensor.__init__, DEC.decode_step

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.data.dtype)

    def spy_step(*args):
        logits.append(step(*args))
        return logits[-1]

    class SpyCache(DEC.KVCache):
        def __init__(self, params, cfg, f, f_row_mask, max_len):
            super().__init__(params, cfg, f, f_row_mask, max_len)
            self.allocated = [*self.k, *self.v, *self.mem_k, *self.mem_v]
            self.s_f = f.shape[1]
            caches.append(self)

    monkeypatch.setattr(Tensor, "__init__", spy_init)
    monkeypatch.setattr(DEC, "decode_step", spy_step)
    monkeypatch.setattr(DEC, "KVCache", SpyCache)
    model.generate(np.stack([s.image for s in samples]),
                   np.stack([ids for ids, _ in enc]), np.stack([m for _, m in enc]),
                   vocab.bos_id, -1, max_len=6)
    # the Tensors are fuse's; decode_step builds none
    assert made and set(made) == {np.dtype(np.float32)}
    assert len(logits) == 6 and {a.dtype for a in logits} == {np.dtype(np.float32)}
    (cache,) = caches
    cfg = model.cfg
    bufs = [*cache.k, *cache.v, *cache.mem_k, *cache.mem_v]
    assert len(bufs) == 4 * cfg.dec_layers
    assert {b.dtype for b in bufs} == {np.dtype(np.float32)}
    # allocated once, by the constructor, at the size all 6 steps fill
    assert all(a is b for a, b in zip(cache.allocated, bufs))
    assert cache.length == 6
    assert {b.shape for b in bufs} == {(8, cfg.n_kv, 6, cfg.head_dim),
                                       (8, cfg.n_q, cache.s_f, cfg.head_dim)}


def test_generate_sampling_is_seeded():
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, samples, _ = _batch(cfg)
    s = samples[0]
    kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
    image, kw_ids, kw_mask = s.image[None], kw_ids[None], kw_mask[None]
    a = model.generate(image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id,
                       max_len=8, temperature=1.5, seed=4)
    b = model.generate(image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id,
                       max_len=8, temperature=1.5, seed=4)
    assert a == b


def test_generate_temperature_zero_is_greedy_and_above_zero_samples():
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, samples, _ = _batch(cfg)
    s = samples[0]
    kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
    # EOS -1 never comes, so every decode runs all 8 steps
    args = (s.image[None], kw_ids[None], kw_mask[None], vocab.bos_id, -1, 8)
    greedy = _greedy_uncached(model, s.image, kw_ids, kw_mask, vocab.bos_id, -1, 8)
    assert model.generate(*args) == [greedy]                  # the default is 0
    assert model.generate(*args, temperature=0.0, seed=3) == [greedy]
    sampled = [model.generate(*args, temperature=5.0, seed=seed)[0] for seed in range(4)]
    assert any(seq != greedy for seq in sampled)


@pytest.mark.parametrize("temperature", [-1.0, float("nan"), float("inf")])
def test_generate_rejects_negative_or_non_finite_temperature(temperature):
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, samples, _ = _batch(cfg)
    s = samples[0]
    kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
    with pytest.raises(ValueError, match="temperature"):
        model.generate(s.image[None], kw_ids[None], kw_mask[None], vocab.bos_id,
                       vocab.eos_id, max_len=8, temperature=temperature)


def test_generate_respects_max_len():
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab, samples, _ = _batch(cfg)
    s = samples[0]
    kw_ids, kw_mask = D.encode_keyword_string(vocab, s.keywords, cfg.s_l)
    image, kw_ids, kw_mask = s.image[None], kw_ids[None], kw_mask[None]
    [out] = model.generate(image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id, 3)
    assert len(out) <= 3
    with pytest.raises(ValueError):
        model.generate(image, kw_ids, kw_mask, vocab.bos_id, vocab.eos_id, 0)


def test_model_init_is_seed_deterministic():
    a = ReportModel(toy_config(seed=5)).params
    b = ReportModel(toy_config(seed=5)).params
    c = ReportModel(toy_config(seed=6)).params
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)
