"""Tests for the optimizer, scheduler, training loop, and checkpoints."""

import json
import struct
import zlib

import numpy as np
import pytest

from fusegen import cli
from fusegen import data as D
from fusegen import training as TR
from fusegen.config import ConfigError, ModelConfig, TrainConfig, config_to_dict
from fusegen.model import ReportModel
from fusegen.tensor import Tensor
from fusegen.verify import toy_config

RNG = np.random.default_rng(29)


# ---------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------

def test_adam_first_step_oracle():
    # with bias correction the first update is -lr * g / (|g| + eps)
    p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    g = {"w": np.array([0.3, -0.7])}
    state = TR.AdamState()
    TR.adam_update(p, g, state, lr=0.1)
    expect = np.array([1.0, -2.0]) - 0.1 * g["w"] / (np.abs(g["w"]) + 1e-8)
    np.testing.assert_allclose(p["w"].data, expect, atol=1e-9)
    assert state.step == 1


def test_adam_two_steps_hand_computed():
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    w = 0.5
    p = {"w": Tensor(np.array([w]), requires_grad=True)}
    state = TR.AdamState()
    m = v = 0.0
    for t, g in enumerate([0.2, -0.4], start=1):
        TR.adam_update(p, {"w": np.array([g])}, state, lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        w = w - lr * mh / (np.sqrt(vh) + eps)
    assert p["w"].data[0] == pytest.approx(w, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_in_place_moments_match_formula_bitwise(dtype):
    b1, b2, eps, lr = TR.ADAM_B1, TR.ADAM_B2, TR.ADAM_EPS, 0.01
    w = RNG.normal(0, 1, 5).astype(dtype)
    p = {"w": Tensor(w.copy(), requires_grad=True)}
    state = TR.AdamState()
    m = v = np.zeros_like(w)
    for t in range(1, 4):
        g = RNG.normal(0, 1, 5).astype(dtype)
        TR.adam_update(p, {"w": g}, state, lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_array_equal(state.m["w"], m)
        np.testing.assert_array_equal(state.v["w"], v)
        np.testing.assert_array_equal(p["w"].data, w)
    assert p["w"].data.dtype == state.m["w"].dtype == state.v["w"].dtype == dtype


def test_adam_skips_missing_grads():
    p = {"w": Tensor(np.ones(2), requires_grad=True),
         "frozen": Tensor(np.ones(2), requires_grad=True)}
    TR.adam_update(p, {"w": np.ones(2)}, TR.AdamState(), lr=0.1)
    np.testing.assert_array_equal(p["frozen"].data, np.ones(2))


# ---------------------------------------------------------------------
# schedule and clipping
# ---------------------------------------------------------------------

def test_constant_schedule():
    cfg = TrainConfig(lr=3e-4, scheduler="constant")
    assert TR.lr_schedule(0, cfg, 100) == 3e-4
    assert TR.lr_schedule(99, cfg, 100) == 3e-4


def test_warmup_cosine_shape():
    cfg = TrainConfig(lr=1e-3, scheduler="warmup_cosine")
    total = 100
    warm = 5
    assert TR.lr_schedule(0, cfg, total) == pytest.approx(1e-3 / warm)
    assert TR.lr_schedule(warm - 1, cfg, total) == pytest.approx(1e-3)
    # decays monotonically to the floor
    lrs = [TR.lr_schedule(s, cfg, total) for s in range(warm, total)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert TR.lr_schedule(total - 1, cfg, total) >= 0.1 * 1e-3 - 1e-12
    assert TR.lr_schedule(total, cfg, total) == pytest.approx(0.1 * 1e-3)


def test_clip_global_norm():
    g = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = TR.clip_global_norm(g, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt(g["a"][0] ** 2 + g["b"][0] ** 2)
    assert clipped == pytest.approx(1.0, rel=1e-6)
    g2 = {"a": np.array([0.1])}
    assert TR.clip_global_norm(g2, max_norm=1.0) == pytest.approx(0.1)
    np.testing.assert_allclose(g2["a"], [0.1])


# ---------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------

def _tiny_run(n_steps, seed=0, start_step=0, model=None, state=None):
    cfg = toy_config(seed=seed)
    model = model or ReportModel(cfg)
    vocab = D.default_vocab()
    samples = D.synth_generate(8, seed=seed + 50, side=cfg.image_side)
    tc = TrainConfig(batch_size=4, lr=1e-3, scheduler="constant", seed=seed, epochs=1)
    state, hist = TR.run_training(model, samples, vocab, tc, n_steps=n_steps,
                                  state=state, start_step=start_step, max_len=10)
    return model, state, hist, tc


def test_batch_indices_deterministic_and_valid():
    a = TR.batch_indices(3, 7, n=10, batch_size=4)
    b = TR.batch_indices(3, 7, n=10, batch_size=4)
    np.testing.assert_array_equal(a, b)
    assert len(set(a.tolist())) == 4
    assert TR.batch_indices(3, 8, n=10, batch_size=4).tolist() != a.tolist()
    assert len(TR.batch_indices(0, 0, n=3, batch_size=8)) == 3


def test_loss_decreases_over_short_run():
    _, _, hist, _ = _tiny_run(30)
    assert hist[-1].l_total < hist[0].l_total


def test_training_is_deterministic():
    _, _, h1, _ = _tiny_run(5)
    _, _, h2, _ = _tiny_run(5)
    assert [h.l_total for h in h1] == [h.l_total for h in h2]


def test_train_step_rejects_empty_batch():
    cfg = toy_config()
    model = ReportModel(cfg)
    vocab = D.default_vocab()
    batch = D.make_batch(D.synth_generate(1, 0, cfg.image_side), vocab, cfg.s_l, 10)
    batch.images = batch.images[:0]
    with pytest.raises(ValueError):
        TR.train_step(model, batch, TR.AdamState(), TrainConfig())


# ---------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    model, state, _, tc = _tiny_run(3)
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    TR.save_checkpoint(model, state, tc, p1)
    m2, s2, tc2 = TR.load_checkpoint(p1)
    assert s2.step == state.step
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, m2.params[name].data)
    for name in state.m:
        np.testing.assert_array_equal(state.m[name], s2.m[name])
        np.testing.assert_array_equal(state.v[name], s2.v[name])
    TR.save_checkpoint(m2, s2, tc2, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_checkpoint_bytes_follow_the_documented_format(tmp_path, dtype):
    # magic, u32 version, u32 blob length, config blob, u32 record count, the
    # records (parameters by name, then each Adam m/v pair by name), CRC32
    model, state, _, tc = _tiny_run(2, model=ReportModel(toy_config(dtype=dtype)))
    p = str(tmp_path / "f.ckpt")
    TR.save_checkpoint(model, state, tc, p)
    blob = json.dumps({"config": config_to_dict(model.cfg, tc), "adam_step": 2},
                      sort_keys=True).encode("utf-8")
    arrays = [(n, q.data) for n, q in sorted(model.params.items())]
    for n in sorted(state.m):
        arrays += [("adam.m." + n, state.m[n]), ("adam.v." + n, state.v[n])]
    body = b"DRMC" + struct.pack("<I", 2) + struct.pack("<I", len(blob)) + blob
    body += struct.pack("<I", len(arrays))
    for n, arr in arrays:
        name = n.encode("utf-8")
        body += struct.pack("<I", len(name)) + name
        body += bytes([{"float64": 0, "float32": 1}[dtype], arr.ndim])
        body += b"".join(struct.pack("<I", s) for s in arr.shape)
        body += arr.astype("<" + arr.dtype.char).tobytes()
    assert len(arrays) == 3 * len(model.params)
    assert open(p, "rb").read() == body + struct.pack("<I", zlib.crc32(body))


def test_resume_continues_the_loss_curve(tmp_path):
    # train 6 straight vs 3 + checkpoint + 3 resumed
    _, _, full, _ = _tiny_run(6)
    model, state, _, tc = _tiny_run(3)
    p = str(tmp_path / "mid.ckpt")
    TR.save_checkpoint(model, state, tc, p)
    m2, s2, _ = TR.load_checkpoint(p)
    _, _, resumed, _ = _tiny_run(3, start_step=3, model=m2, state=s2)
    for a, b in zip(full[3:], resumed):
        assert b.l_total == pytest.approx(a.l_total, abs=1e-9)


def test_loaded_arrays_are_writable_aligned_and_separate(tmp_path):
    # Adam updates the moments in place on resume and grad checks write into
    # p.data, so no loaded array may be read-only or alias another
    model, state, _, tc = _tiny_run(1)
    p = str(tmp_path / "w.ckpt")
    TR.save_checkpoint(model, state, tc, p)
    m2, s2, _ = TR.load_checkpoint(p)
    arrays = [q.data for q in m2.params.values()] + [*s2.m.values(), *s2.v.values()]
    assert len(arrays) == 3 * len(model.params)
    for a in arrays:
        assert a.flags.writeable and a.flags.aligned and a.flags.owndata
        assert a.flags.c_contiguous
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("row", cli.ABLATION_GRID, ids=lambda row: row[0])
def test_load_layout_matches_random_init(row, dtype):
    # the layout a checkpoint load fills is the one a fresh model trains
    _, kw, ab, ad, ca = row
    cfg = ModelConfig(dtype=dtype, use_keywords=kw, use_abstractor=ab,
                      use_adaptor=ad, use_alignment=ca)
    drawn = ReportModel(cfg).params
    layout = ReportModel(cfg, _random_init=False).params
    assert list(layout) == list(drawn)
    for name, p in drawn.items():
        assert (layout[name].shape, layout[name].data.dtype) == (p.shape, p.data.dtype)


def test_checkpoint_bad_magic(tmp_path):
    p = str(tmp_path / "bad.ckpt")
    with open(p, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(p)


def test_checkpoint_crc_detects_corruption(tmp_path):
    model, state, _, tc = _tiny_run(1)
    p = str(tmp_path / "c.ckpt")
    TR.save_checkpoint(model, state, tc, p)
    raw = bytearray(open(p, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    with open(p, "wb") as fh:
        fh.write(bytes(raw))
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(p)


def test_checkpoint_truncation_detected(tmp_path):
    model, state, _, tc = _tiny_run(1)
    p = str(tmp_path / "t.ckpt")
    TR.save_checkpoint(model, state, tc, p)
    raw = open(p, "rb").read()
    with open(p, "wb") as fh:
        fh.write(raw[: len(raw) // 2])
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(p)


def test_version_1_checkpoint_is_rejected(tmp_path):
    # version 1 decoders also cross-attended to their own token embeddings,
    # so their weights would decode wrongly under today's decoder
    model, state, _, tc = _tiny_run(1)
    p = tmp_path / "v1.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = p.read_bytes()[:-4]
    body = body[:4] + struct.pack("<I", 1) + body[8:]
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(TR.CheckpointError, match="version 1"):
        TR.load_checkpoint(str(p))


# body layout: magic, u32 version, u32 meta length, meta JSON, u32 record
# count, then per record u32 name length, name, u8 dtype tag, ...

def _meta_end(body):
    return 12 + struct.unpack_from("<I", body, 8)[0]


def _with_meta(meta):
    def corrupt(body):
        return body[:8] + struct.pack("<I", len(meta)) + meta + body[_meta_end(body):]
    return corrupt


def _set_meta_value(key, value):
    def corrupt(body):
        meta = json.loads(body[12:_meta_end(body)])
        meta[key] = value
        return _with_meta(json.dumps(meta).encode())(body)
    return corrupt


def _drop_meta_key(key):
    def corrupt(body):
        meta = json.loads(body[12:_meta_end(body)])
        del meta[key]
        return _with_meta(json.dumps(meta).encode())(body)
    return corrupt


def _set_dtype_tag(tag):
    def corrupt(body):
        first = _meta_end(body) + 4
        tag_at = first + 4 + struct.unpack_from("<I", body, first)[0]
        return body[:tag_at] + bytes([tag]) + body[tag_at + 1:]
    return corrupt


def _set_config_value(key, value):
    def corrupt(body):
        meta = json.loads(body[12:_meta_end(body)])
        meta["config"][key] = value
        return _with_meta(json.dumps(meta).encode())(body)
    return corrupt


def _other_config_dtype(body):
    # the dtype the stored tensors do not have, whichever the default is
    meta = json.loads(body[12:_meta_end(body)])
    other = {"float32": "float64", "float64": "float32"}[meta["config"]["dtype"]]
    return _set_config_value("dtype", other)(body)


def _drop_adam_v_twin(body):
    # the first adam.v.* record gets a name no parameter has
    return body.replace(b"adam.v.", b"adam.x.", 1)


def _rename_adam_m_record(body):
    # adam.m.dec.head.w -> adam.m.dec.head.x: a name no parameter owns
    return body.replace(b"adam.m.dec.head.w", b"adam.m.dec.head.x", 1)


def _repeat_adam_v_name(body):
    # the first adam.m.* record takes the name of its adam.v.* twin
    return body.replace(b"adam.m.", b"adam.v.", 1)


def _drop_record(name):
    def corrupt(body):
        count_at = _meta_end(body)
        n_records = struct.unpack_from("<I", body, count_at)[0]
        off = count_at + 4
        for _ in range(n_records):
            name_len = struct.unpack_from("<I", body, off)[0]
            tag, rank = body[off + 4 + name_len], body[off + 5 + name_len]
            shape = struct.unpack_from(f"<{rank}I", body, off + 6 + name_len)
            end = (off + 6 + name_len + 4 * rank
                   + int(np.prod(shape)) * TR._TAG_DTYPES[tag].itemsize)
            if body[off + 4:off + 4 + name_len] == name:
                return (body[:count_at] + struct.pack("<I", n_records - 1)
                        + body[count_at + 4:off] + body[end:])
            off = end
        raise AssertionError(f"no record {name!r}")
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _set_dtype_tag(9),
    _with_meta(b"not json"),
    _with_meta(b"\xff\xfe"),
    _with_meta(b"[1, 2]"),
    _drop_meta_key("config"),
    _drop_meta_key("adam_step"),
    _set_meta_value("adam_step", "1"),
    _set_config_value("lr", "abc"),
    _set_config_value("use_keywords", "no"),
    _set_config_value("bogus", 1),
    _other_config_dtype,
    _drop_adam_v_twin,
    _rename_adam_m_record,
    _repeat_adam_v_name,
    _drop_record(b"adam.m.dec.head.w"),
    _set_config_value("lr", float("nan")),
    _set_config_value("lambda_align", float("inf")),
], ids=["unknown-dtype-tag", "meta-not-json", "meta-not-utf8", "meta-not-object",
        "meta-lacks-config", "meta-lacks-adam-step", "adam-step-str", "config-str-float",
        "config-str-bool", "config-unknown-key", "config-dtype-mismatch",
        "adam-v-missing", "unknown-record-name", "duplicate-record-name",
        "adam-m-missing", "config-nan-lr", "config-inf-lambda"])
def test_checkpoint_malformed_body_raises_checkpoint_error(tmp_path, corrupt):
    # each corrupted body gets a fresh CRC, so only the parser can catch it
    model, state, _, tc = _tiny_run(1)
    p = tmp_path / "m.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = corrupt(p.read_bytes()[:-4])
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(str(p))


def test_checkpoint_int64_dtype_tag_is_unknown(tmp_path):
    # tag 2 once meant int64, which no writer produces and no layout holds
    model, state, _, tc = _tiny_run(1)
    p = tmp_path / "i.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = _set_dtype_tag(2)(p.read_bytes()[:-4])
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(TR.CheckpointError, match="unknown dtype tag 2"):
        TR.load_checkpoint(str(p))


def test_checkpoint_with_an_old_extra_key_still_loads(tmp_path):
    # files written before the metadata lost its unused "extra" key carry it
    model, state, _, tc = _tiny_run(1)
    p = tmp_path / "old.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = _set_meta_value("extra", {"steps": 1})(p.read_bytes()[:-4])
    assert b'"extra"' in body
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    m2, s2, _ = TR.load_checkpoint(str(p))
    assert s2.step == state.step
    for name, q in model.params.items():
        np.testing.assert_array_equal(q.data, m2.params[name].data)
    for name in state.m:
        np.testing.assert_array_equal(state.m[name], s2.m[name])
        np.testing.assert_array_equal(state.v[name], s2.v[name])


def test_checkpoint_config_with_max_report_len_is_rejected(tmp_path):
    # files written while the config had a max_report_len field carry it
    model, state, _, tc = _tiny_run(1)
    p = tmp_path / "old.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = _set_config_value("max_report_len", 16)(p.read_bytes()[:-4])
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(TR.CheckpointError, match="max_report_len"):
        TR.load_checkpoint(str(p))


def _truncation_cuts(body, n_records=3):
    """Body lengths that end at each field boundary of the header, the
    metadata and the first records, inside multi-byte fields, and in the
    middle of each of those payloads."""
    meta_end = _meta_end(body)
    cuts = [0, 2, 4, 6, 8, 10, 12, (12 + meta_end) // 2, meta_end - 1,
            meta_end, meta_end + 2, meta_end + 4]
    off = meta_end + 4
    for _ in range(n_records):
        name_len = struct.unpack_from("<I", body, off)[0]
        tag, rank = body[off + 4 + name_len], body[off + 5 + name_len]
        shape_at = off + 6 + name_len
        shape = struct.unpack_from(f"<{rank}I", body, shape_at)
        payload = int(np.prod(shape)) * TR._TAG_DTYPES[tag].itemsize
        end = shape_at + 4 * rank + payload
        cuts += [off, off + 2, off + 4, off + 4 + name_len // 2, off + 4 + name_len,
                 off + 5 + name_len, shape_at, shape_at + 2,
                 *range(shape_at + 4, shape_at + 4 * rank + 1, 4),
                 shape_at + 4 * rank + payload // 2, end - 1, end]
        off = end
    return cuts


def test_checkpoint_truncated_body_raises_checkpoint_error(tmp_path):
    # each cut body gets a fresh CRC, so the parser's own bounds checks must
    # catch it, not struct.error or np.frombuffer's ValueError
    model, state, _, tc = _tiny_run(1)
    p = tmp_path / "cut.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = p.read_bytes()[:-4]
    cuts = _truncation_cuts(body)
    assert len(cuts) > 40 and max(cuts) < len(body)
    for cut in cuts:
        p.write_bytes(body[:cut] + struct.pack("<I", zlib.crc32(body[:cut]) & 0xFFFFFFFF))
        with pytest.raises(TR.CheckpointError):
            TR.load_checkpoint(str(p))


def _fuzz_offsets(body, n_records=12):
    """Byte offsets of the header, the meta, and the first record headers."""
    offsets = list(range(_meta_end(body) + 4))
    off = _meta_end(body) + 4
    for _ in range(n_records):
        name_len = struct.unpack_from("<I", body, off)[0]
        tag, rank = body[off + 4 + name_len], body[off + 5 + name_len]
        header = 4 + name_len + 2 + 4 * rank
        shape = struct.unpack_from(f"<{rank}I", body, off + 6 + name_len)
        offsets += range(off, off + header)
        off += header + int(np.prod(shape)) * TR._TAG_DTYPES[tag].itemsize
    return offsets


def test_checkpoint_byte_flips_raise_only_package_errors(tmp_path):
    # every flip is re-CRC'd, so the parser itself must reject or accept it
    model, state, _, tc = _tiny_run(1)
    p = tmp_path / "f.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = p.read_bytes()[:-4]
    offsets = _fuzz_offsets(body)
    assert len(offsets) > 500
    for i in offsets:
        flipped = bytearray(body)
        flipped[i] ^= 0xFF
        p.write_bytes(bytes(flipped) + struct.pack("<I", zlib.crc32(flipped) & 0xFFFFFFFF))
        try:
            TR.load_checkpoint(str(p))
        except (TR.CheckpointError, ConfigError):
            pass


# ---------------------------------------------------------------------
# per-model dtype
# ---------------------------------------------------------------------

def _tape_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._children)
    return nodes


def _warmup_cosine_run(dtype, n_steps, model=None):
    cfg = toy_config(dtype=dtype)
    model = model or ReportModel(cfg)
    samples = D.synth_generate(16, seed=3, side=cfg.image_side)
    tc = TrainConfig(batch_size=4, lr=1e-3, scheduler="warmup_cosine", seed=0)
    state, hist = TR.run_training(model, samples, D.default_vocab(), tc,
                                  n_steps=n_steps, max_len=10)
    return model, state, hist, samples


def test_float32_model_stays_float32():
    f32 = np.dtype(np.float32)
    model = ReportModel(toy_config(dtype="float32"))
    cfg = model.cfg
    batch = D.make_batch(D.synth_generate(4, seed=3, side=cfg.image_side),
                         D.default_vocab(), cfg.s_l, 10)
    nodes = _tape_nodes(model.losses(batch, 0.5).total)
    assert len(nodes) == 248   # the whole losses graph of the toy model
    assert {n.data.dtype for n in nodes} == {f32}
    _, state, _, _ = _warmup_cosine_run("float32", 3, model=model)
    assert {p.data.dtype for p in model.params.values()} == {f32}
    assert {p.grad.dtype for p in model.params.values()} == {f32}
    assert {a.dtype for a in [*state.m.values(), *state.v.values()]} == {f32}
    assert len(state.m) == len(model.params)


def test_float32_loss_log_tracks_float64():
    logs = {}
    for dtype in ("float64", "float32"):
        _, _, hist, _ = _warmup_cosine_run(dtype, 30)
        logs[dtype] = np.array([(h.l_ce, h.l_align, h.l_total) for h in hist])
    np.testing.assert_allclose(logs["float32"], logs["float64"], rtol=1e-5)


def test_float64_checkpoint_still_loads_as_float64(tmp_path):
    model, state, _, tc = _tiny_run(2)   # toy_config pins float64
    p = tmp_path / "f64.ckpt"
    TR.save_checkpoint(model, state, tc, str(p))
    body = p.read_bytes()
    assert json.loads(body[12:_meta_end(body)])["config"]["dtype"] == "float64"
    m2, s2, _ = TR.load_checkpoint(str(p))
    f64 = np.dtype(np.float64)
    assert m2.cfg.dtype == "float64"
    assert {q.data.dtype for q in m2.params.values()} == {f64}
    assert {a.dtype for a in [*s2.m.values(), *s2.v.values()]} == {f64}


def test_float32_checkpoint_round_trip_bitwise(tmp_path):
    model, state, _, _ = _warmup_cosine_run("float32", 2)
    tc = TrainConfig(batch_size=4)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    TR.save_checkpoint(model, state, tc, p1)
    m2, s2, tc2 = TR.load_checkpoint(p1)
    assert m2.cfg.dtype == "float32"
    for name, p in model.params.items():
        assert m2.params[name].data.dtype == np.float32
        np.testing.assert_array_equal(p.data, m2.params[name].data)
        assert s2.m[name].dtype == s2.v[name].dtype == np.float32
    TR.save_checkpoint(m2, s2, tc2, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
