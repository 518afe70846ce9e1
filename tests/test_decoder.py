"""Tests for the autoregressive decoder: RoPE, GQA, KV cache, causality, CE."""

import numpy as np
import pytest

from fusegen import decoder as DEC
from fusegen import nn
from fusegen import tensor as T
from fusegen.tensor import Tensor
from fusegen.verify import toy_config

RNG = np.random.default_rng(23)


def _setup(**overrides):
    cfg = toy_config(**overrides)
    params = DEC.init_decoder(cfg, np.random.default_rng(9))
    return cfg, params


def _fused(cfg, n=1, rows=6):
    return Tensor(RNG.normal(0, 1, (n, rows, cfg.p))), np.ones((n, rows), dtype=bool)


# ---------------------------------------------------------------------
# rotary positions
# ---------------------------------------------------------------------

def test_rope_preserves_pair_norms():
    x = Tensor(RNG.normal(0, 1, (2, 3, 5, 8)))
    out = DEC.rope_apply(x, start_pos=2).data
    norms_in = (x.data.reshape(2, 3, 5, 4, 2) ** 2).sum(-1)
    norms_out = (out.reshape(2, 3, 5, 4, 2) ** 2).sum(-1)
    np.testing.assert_allclose(norms_in, norms_out, atol=1e-12)


def test_rope_position_zero_is_identity():
    x = Tensor(RNG.normal(0, 1, (1, 1, 8)))
    np.testing.assert_allclose(DEC.rope_apply(x, start_pos=0).data, x.data, atol=1e-12)


@pytest.mark.parametrize("offset", [1, 5, 17])
def test_rope_dot_products_depend_on_relative_offset(offset):
    hd = 8
    q = RNG.normal(0, 1, (1, 4, hd))
    k = RNG.normal(0, 1, (1, 4, hd))
    q0 = DEC.rope_apply(Tensor(q), start_pos=0).data
    k0 = DEC.rope_apply(Tensor(k), start_pos=0).data
    qs = DEC.rope_apply(Tensor(q), start_pos=offset).data
    ks = DEC.rope_apply(Tensor(k), start_pos=offset).data
    dots0 = q0[0] @ k0[0].T
    dots_s = qs[0] @ ks[0].T
    np.testing.assert_allclose(dots0, dots_s, atol=1e-8)


def test_rope_start_pos_matches_slicing():
    x = RNG.normal(0, 1, (1, 6, 8))
    full = DEC.rope_apply(Tensor(x), start_pos=0).data
    tail = DEC.rope_apply(Tensor(x[:, 4:]), start_pos=4).data
    np.testing.assert_allclose(full[:, 4:], tail, atol=1e-12)


@pytest.mark.parametrize("shape, start", [((2, 3, 5, 8), 0), ((1, 4, 1, 16), 7)])
def test_rope_cached_tables_match_formula_bitwise(shape, start):
    x = RNG.normal(0, 1, shape)
    hd, s = shape[-1], shape[-2]
    ang = (np.arange(start, start + s, dtype=float)[:, None]
           * (DEC.ROPE_BASE ** (-2.0 * np.arange(hd // 2, dtype=float) / hd))[None, :])
    cos, sin = np.cos(ang), np.sin(ang)
    ref = np.empty_like(x)
    ref[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
    ref[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
    for _ in range(2):        # the second call reads the cached tables
        np.testing.assert_array_equal(DEC.rope_apply(Tensor(x), start).data, ref)


# ---------------------------------------------------------------------
# grouped-query attention
# ---------------------------------------------------------------------

def test_gqa_reduces_to_mha_when_groups_are_trivial():
    """n_kv == n_q with shared K/V weights must equal plain per-head attention."""
    cfg, params = _setup(n_kv=4)      # n_q == n_kv == 4
    x = Tensor(RNG.normal(0, 1, (1, 5, cfg.dec_d)))
    out = DEC.gqa_attention(x, params, cfg, layer=0).data

    # independent per-head reference with explicit loops
    pre = "dec.layer0.sa"
    hd = cfg.head_dim
    q = (x.data @ params[f"{pre}.w_q"].data).reshape(1, 5, 4, hd)
    k = (x.data @ params[f"{pre}.w_k"].data).reshape(1, 5, 4, hd)
    v = (x.data @ params[f"{pre}.w_v"].data).reshape(1, 5, 4, hd)
    q = DEC.rope_apply(Tensor(q.transpose(0, 2, 1, 3))).data
    k = DEC.rope_apply(Tensor(k.transpose(0, 2, 1, 3))).data
    v = v.transpose(0, 2, 1, 3)
    heads = []
    for h in range(4):
        logits = q[0, h] @ k[0, h].T / np.sqrt(hd)
        logits[np.triu_indices(5, k=1)] = -np.inf
        e = np.exp(logits - logits.max(-1, keepdims=True))
        w = e / e.sum(-1, keepdims=True)
        heads.append(w @ v[0, h])
    ref = np.concatenate(heads, axis=-1) @ params[f"{pre}.w_o"].data
    np.testing.assert_allclose(out[0], ref, atol=1e-8)


def test_gqa_group_sharing_oracle():
    """With n_kv < n_q, query head i must use KV head i // group_size."""
    for mode in ("softmax", "sigmoid"):
        cfg, params = _setup(attn_norm=mode)            # n_q=4, n_kv=2
        x = Tensor(RNG.normal(0, 1, (1, 4, cfg.dec_d)))
        out = DEC.gqa_attention(x, params, cfg, layer=0).data

        pre = "dec.layer0.sa"
        hd, g = cfg.head_dim, cfg.n_q // cfg.n_kv
        q = (x.data @ params[f"{pre}.w_q"].data).reshape(1, 4, cfg.n_q, hd).transpose(0, 2, 1, 3)
        k = (x.data @ params[f"{pre}.w_k"].data).reshape(1, 4, cfg.n_kv, hd).transpose(0, 2, 1, 3)
        v = (x.data @ params[f"{pre}.w_v"].data).reshape(1, 4, cfg.n_kv, hd).transpose(0, 2, 1, 3)
        q = DEC.rope_apply(Tensor(q)).data
        k = DEC.rope_apply(Tensor(k)).data
        future = np.triu_indices(4, k=1)
        heads = []
        for i in range(cfg.n_q):
            kv = i // g
            logits = q[0, i] @ k[0, kv].T / np.sqrt(hd)
            if mode == "softmax":
                logits[future] = -np.inf
                e = np.exp(logits - logits.max(-1, keepdims=True))
                w = e / e.sum(-1, keepdims=True)
            else:
                w = 1.0 / (1.0 + np.exp(-logits))
                w[future] = 0.0
            heads.append(w @ v[0, kv])
        ref = np.concatenate(heads, axis=-1) @ params[f"{pre}.w_o"].data
        np.testing.assert_allclose(out[0], ref, atol=1e-10, err_msg=mode)


# ---------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------

def _decode(ids, f, f_mask, params, cfg):
    """(N, T, vocab) logits of a decode_step loop over the (N, T) ids, and
    the cache it filled."""
    cache = DEC.KVCache(params, cfg, f, f_mask, ids.shape[1])
    steps = [DEC.decode_step(cache, ids[:, pos]) for pos in range(ids.shape[1])]
    return np.stack(steps, axis=1), cache


def test_cached_equals_uncached_attention():
    """Masked fused rows, in both attention modes: the cached step's
    attention over its growing caches equals the uncached forward."""
    for mode in ("softmax", "sigmoid"):
        cfg, params = _setup(attn_norm=mode)
        n, t = 3, 6
        f, f_mask = _fused(cfg, n=n)
        f_mask[1, 2:] = False
        f_mask[2, ::2] = False
        ids = RNG.integers(0, cfg.vocab_size, (n, t))
        full = DEC.decoder_forward(ids, f, f_mask, params, cfg).data
        cached, _ = _decode(ids, f, f_mask, params, cfg)
        np.testing.assert_allclose(cached, full, rtol=0, atol=1e-10, err_msg=mode)


def test_cache_grows_one_per_step():
    cfg, params = _setup()
    f, f_mask = _fused(cfg, n=2)
    cache = DEC.KVCache(params, cfg, f, f_mask, 8)
    ids = RNG.integers(0, cfg.vocab_size, 2)
    for pos in range(2):
        DEC.decode_step(cache, ids)
        assert cache.length == pos + 1


def test_cached_decoding_matches_full_forward():
    cfg, params = _setup()
    f, f_mask = _fused(cfg)
    ids = RNG.integers(0, cfg.vocab_size, 7)
    full = DEC.decoder_forward(ids[None], f, f_mask, params, cfg).data[0]
    cache = DEC.KVCache(params, cfg, f, f_mask, len(ids))
    for pos, tok in enumerate(ids):
        row = DEC.decode_step(cache, ids[None, pos])[0]
        np.testing.assert_allclose(row, full[pos], atol=1e-8)


def test_batched_decode_step_rows_match_full_forward_per_stream():
    """Also at 64 streams, where a step's weight products run as 2-D GEMMs
    over the stream rows rather than one vector-matrix product per stream."""
    cfg, params = _setup()
    t = 6
    for n in (3, 64):
        f, f_mask = _fused(cfg, n=n)
        ids = RNG.integers(0, cfg.vocab_size, (n, t))
        full = DEC.decoder_forward(ids, f, f_mask, params, cfg).data
        cache = DEC.KVCache(params, cfg, f, f_mask, t)
        for pos in range(t):
            rows = DEC.decode_step(cache, ids[:, pos])
            assert rows.shape == (n, cfg.vocab_size)
            np.testing.assert_allclose(rows, full[:, pos], atol=1e-8)
        assert cache.k[0].shape == (n, cfg.n_kv, t, cfg.head_dim)


def test_cross_attention_kv_cache_matches_uncached(monkeypatch):
    """The constructor projects the cross-attention keys and values of the
    S_F fused rows once, equal to those of ``project_memory(f)``, and a step
    projects no memory row."""
    cfg, params = _setup()
    n, t, s_f = 2, 4, 6
    f, f_mask = _fused(cfg, n=n, rows=s_f)
    ids = RNG.integers(0, cfg.vocab_size, (n, t))
    memory = DEC.project_memory(f, params)
    split, projected = nn.split_heads, []

    def spy_split(x, n_heads):
        projected.append(x.shape[1])
        return split(x, n_heads)

    monkeypatch.setattr(nn, "split_heads", spy_split)
    cache = DEC.KVCache(params, cfg, f, f_mask, t)
    assert projected == [s_f] * 2 * cfg.dec_layers
    for l in range(cfg.dec_layers):
        for cached, name in ((cache.mem_k[l], "w_k"), (cache.mem_v[l], "w_v")):
            w = params[f"dec.layer{l}.ca.{name}"]
            ref = split(T.matmul(memory, w), cfg.n_q).data
            assert cached.shape == (n, cfg.n_q, s_f, cfg.head_dim)
            np.testing.assert_allclose(cached, ref, rtol=0, atol=1e-12)
    for pos in range(t):
        projected.clear()
        DEC.decode_step(cache, ids[:, pos])
        # per layer: q, k, v of self-attention and q of cross-attention
        assert projected == [1, 1, 1, 1] * cfg.dec_layers


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_decode_step_builds_no_tensor(monkeypatch, dtype, mode):
    cfg, params = _setup(attn_norm=mode, dtype=dtype)
    for p in params.values():
        p.data = p.data.astype(dtype)
    f, f_mask = _fused(cfg, n=2)
    f = Tensor(f.data.astype(dtype))
    made = []
    init = Tensor.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", spy_init)
    logits, _ = _decode(RNG.integers(0, cfg.vocab_size, (2, 5)), f, f_mask, params, cfg)
    assert made == []
    assert logits.dtype == np.dtype(dtype) and np.isfinite(logits).all()


def test_cache_fills_its_buffers_in_place():
    """The constructor allocates every buffer at its full size; decode steps
    write into them in place and never change an entry written earlier, and
    a step past ``max_len`` raises."""
    cfg, params = _setup(dec_layers=2)
    n, t = 2, 3
    f, f_mask = _fused(cfg, n=n)
    s_f = f.shape[1]
    cache = DEC.KVCache(params, cfg, f, f_mask, max_len=t)
    assert cache.length == 0
    assert [b.shape for b in cache.k + cache.v] == [(n, cfg.n_kv, t, cfg.head_dim)] * 4
    assert ([b.shape for b in cache.mem_k + cache.mem_v]
            == [(n, cfg.n_q, s_f, cfg.head_dim)] * 4)
    bufs = cache.k + cache.v + cache.mem_k + cache.mem_v
    ids = RNG.integers(0, cfg.vocab_size, (n, t + 1))
    filled = []
    for pos in range(t):
        DEC.decode_step(cache, ids[:, pos])
        filled.append([b[:, :, :pos + 1].copy() for b in cache.k + cache.v]
                      + [b.copy() for b in cache.mem_k + cache.mem_v])
    with pytest.raises(ValueError, match="full"):
        DEC.decode_step(cache, ids[:, t])
    assert cache.length == t
    now = cache.k + cache.v + cache.mem_k + cache.mem_v
    assert all(a is b for a, b in zip(now, bufs))
    for copies in filled:   # entries written earlier never change
        for buf, copy in zip(bufs, copies):
            np.testing.assert_array_equal(buf[:, :, :copy.shape[2]], copy)


def test_cache_rejects_changed_stream_count():
    cfg, params = _setup()
    f, f_mask = _fused(cfg, n=3)
    cache = DEC.KVCache(params, cfg, f, f_mask, 2)
    with pytest.raises(ValueError, match="streams"):
        DEC.decode_step(cache, RNG.integers(0, cfg.vocab_size, 2))
    f, f_mask = _fused(cfg, n=2)
    cache = DEC.KVCache(params, cfg, f, f_mask, 2)
    DEC.decode_step(cache, RNG.integers(0, cfg.vocab_size, 2))
    with pytest.raises(ValueError, match="streams"):
        DEC.decode_step(cache, RNG.integers(0, cfg.vocab_size, 3))
    assert cache.length == 1


# ---------------------------------------------------------------------
# causality and masks
# ---------------------------------------------------------------------

def test_causality_future_tokens_cannot_leak():
    for mode in ("softmax", "sigmoid"):
        cfg, params = _setup(attn_norm=mode)
        f, f_mask = _fused(cfg)
        ids = RNG.integers(0, cfg.vocab_size, 8)
        base = DEC.decoder_forward(ids[None], f, f_mask, params, cfg).data[0]
        for t in (2, 5):
            perturbed = ids.copy()
            perturbed[t + 1:] = RNG.integers(0, cfg.vocab_size, len(ids) - t - 1)
            out = DEC.decoder_forward(perturbed[None], f, f_mask, params, cfg).data[0]
            np.testing.assert_allclose(out[: t + 1], base[: t + 1], atol=1e-12, err_msg=mode)


def test_cross_attention_memory_mask():
    for mode in ("softmax", "sigmoid"):
        cfg, params = _setup(attn_norm=mode)
        f, mask = _fused(cfg, rows=5)
        mask[0, 3:] = False
        ids = RNG.integers(0, cfg.vocab_size, 4)
        a = DEC.decoder_forward(ids[None], f, mask, params, cfg).data
        f2 = Tensor(f.data.copy())
        f2.data[0, 3:] += 7.0       # masked rows only
        b = DEC.decoder_forward(ids[None], f2, mask, params, cfg).data
        np.testing.assert_allclose(a, b, atol=1e-12, err_msg=mode)


def test_decoder_forward_over_40_positions_matches_decode_step():
    """No configured report length caps the teacher-forced pass: 40
    positions, past any report the task makes, match the cached steps."""
    cfg, params = _setup()
    f, f_mask = _fused(cfg, n=2)
    ids = RNG.integers(0, cfg.vocab_size, (2, 40))
    full = DEC.decoder_forward(ids, f, f_mask, params, cfg).data
    cached, _ = _decode(ids, f, f_mask, params, cfg)
    for pos in range(40):
        np.testing.assert_allclose(cached[:, pos], full[:, pos], atol=1e-8,
                                   err_msg=f"position {pos}")


# ---------------------------------------------------------------------
# losses and blocks
# ---------------------------------------------------------------------

def test_swiglu_matches_numpy():
    d, dff = 6, 10
    w1 = Tensor(RNG.normal(0, 1, (d, dff)))
    w2 = Tensor(RNG.normal(0, 1, (d, dff)))
    w3 = Tensor(RNG.normal(0, 1, (dff, d)))
    x = RNG.normal(0, 1, (3, d))
    out = DEC.swiglu_ffn(Tensor(x), w1, w2, w3).data
    a = x @ w1.data
    b = x @ w2.data
    ref = (a * (b / (1.0 + np.exp(-b)))) @ w3.data
    np.testing.assert_allclose(out, ref, atol=1e-10)


def test_cross_entropy_matches_numpy_oracle():
    n, t, v = 2, 5, 9
    logits = RNG.normal(0, 2, (n, t, v))
    targets = RNG.integers(0, v, (n, t))
    mask = RNG.uniform(size=(n, t)) > 0.3
    mask[:, 0] = True
    total, per_tok = DEC.cross_entropy(Tensor(logits), targets, mask)
    logp = logits - logits.max(-1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(-1, keepdims=True))
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    expect = nll[mask].sum()
    assert total.item() == pytest.approx(expect, rel=1e-9)
    assert per_tok.item() == pytest.approx(expect / mask.sum(), rel=1e-9)


@pytest.mark.parametrize("dtype, gap", [(np.float64, 800.0), (np.float32, 105.0)])
def test_cross_entropy_finite_at_large_logit_gap(dtype, gap):
    # exp(-gap) underflows to 0, so log(softmax) would give inf
    logits = Tensor(np.array([[[0.0, gap, 0.0]]], dtype=dtype), requires_grad=True)
    total, _ = DEC.cross_entropy(logits, np.array([[0]]), np.ones((1, 1), dtype=bool))
    assert total.data.dtype == dtype
    assert total.item() == pytest.approx(gap, rel=1e-6)
    total.backward()
    assert logits.grad.dtype == dtype
    np.testing.assert_allclose(logits.grad[0, 0], [-1.0, 1.0, 0.0], atol=1e-6)


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(IndexError):
        DEC.cross_entropy(logits, np.array([[0, 4]]), np.ones((1, 2), dtype=bool))


def test_decoder_forward_grad_reaches_all_params():
    cfg, params = _setup()
    f, f_mask = _fused(cfg)
    ids = RNG.integers(0, cfg.vocab_size, (1, 5))
    logits = DEC.decoder_forward(ids, f, f_mask, params, cfg)
    total, _ = DEC.cross_entropy(logits, RNG.integers(0, cfg.vocab_size, (1, 5)),
                                 np.ones((1, 5), dtype=bool))
    total.backward()
    for name, p in params.items():
        assert p.grad is not None, name
