"""Tests for the tokenizer, synthetic generator, and batching."""

import numpy as np
import pytest

from fusegen import data as D


# ---------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------

def test_reserved_ids_are_stable():
    v = D.default_vocab()
    assert v.pad_id == 0
    assert v.bos_id == 1
    assert v.eos_id == 2
    assert v.sep_id == 3
    assert v.unk_id == 4


def test_encode_decode_round_trip():
    v = D.default_vocab()
    ids = v.encode("a spot at lower left")
    assert v.decode(ids) == "a spot at lower left"
    assert v.encode("nonsense")[0] == v.unk_id


def test_decode_tolerates_out_of_range_ids():
    v = D.default_vocab()
    assert v.decode([len(v) + 3]) == D.UNK


# ---------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------

def test_make_sample_deterministic():
    a = D.make_sample(3, 17, side=16)
    b = D.make_sample(3, 17, side=16)
    np.testing.assert_array_equal(a.image, b.image)
    assert a.keywords == b.keywords and a.report == b.report


def test_sample_report_mentions_keyword_and_position():
    s = D.make_sample(0, 5, side=16)
    words = s.report.split()
    assert s.keywords in words
    assert any(w in D.ROW_WORDS for w in words)
    assert any(w in D.COL_WORDS for w in words)


def test_twin_types_render_identically():
    """Both members of a type pair must be indistinguishable from pixels."""
    found = {}
    for i in range(400):
        s = D.make_sample(0, i, side=16)
        rng = np.random.default_rng([0, i])
        pair_idx = int(rng.integers(len(D.BLOB_TYPES)))
        member = int(rng.integers(2))
        row = int(rng.integers(len(D.ROW_WORDS)))
        col = int(rng.integers(len(D.COL_WORDS)))
        key = (pair_idx, row, col)
        blob = s.image - np.clip(s.image, 0, 0.15)   # strip background noise
        found.setdefault(key, {})[member] = blob
    checked = 0
    for key, members in found.items():
        if len(members) == 2:
            np.testing.assert_array_equal(members[0], members[1])
            checked += 1
    assert checked > 10


def _oracle_render_blob(img, pair_idx, row, col):
    """The blob formula, evaluated afresh on every call."""
    side = img.shape[0]
    cell = side // 2
    y0, x0 = row * cell, col * cell
    cy, cx = y0 + cell // 2, x0 + cell // 2
    yy, xx = np.mgrid[0:side, 0:side]
    r2 = (yy - cy) ** 2 + (xx - cx) ** 2
    rad = max(1.5, cell / 2.5)
    if pair_idx == 0:
        img[r2 <= rad ** 2, 0] = 1.0
    elif pair_idx == 1:
        img[(r2 <= rad ** 2) & (r2 >= (rad - 1.2) ** 2), 0] = 1.0
    elif pair_idx == 2:
        img[cy - 1:cy + 1, x0:x0 + cell, 0] = 1.0
    else:
        h = int(rad)
        img[cy - h:cy + h, cx - h:cx + h, 0] = 1.0


@pytest.mark.parametrize("side", [8, 16, 24])
def test_make_sample_images_match_the_blob_formula_bitwise(side):
    layouts = set()
    for i in range(200):
        rng = np.random.default_rng([3, i])
        pair_idx = int(rng.integers(len(D.BLOB_TYPES)))
        rng.integers(2)
        row = int(rng.integers(len(D.ROW_WORDS)))
        col = int(rng.integers(len(D.COL_WORDS)))
        want = rng.uniform(0.0, 0.15, size=(side, side, 1)).astype(float)
        _oracle_render_blob(want, pair_idx, row, col)
        got = D.make_sample(3, i, side=side).image
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (i, pair_idx, row, col)
        layouts.add((pair_idx, row, col))
    assert len(layouts) == len(D.BLOB_TYPES) * len(D.ROW_WORDS) * len(D.COL_WORDS)


def test_cached_blob_mask_is_read_only():
    mask = D._blob_mask(16, 1, 0, 1)
    assert mask is D._blob_mask(16, 1, 0, 1)
    with pytest.raises(ValueError):
        mask[0, 0] = True


def test_vocab_covers_task():
    v = D.default_vocab()
    for i in range(50):
        s = D.make_sample(1, i, side=16)
        assert v.unk_id not in v.encode(s.report)
        assert v.unk_id not in v.encode(s.keywords)


def test_synth_generate_length_and_validation():
    assert len(D.synth_generate(7, seed=0)) == 7
    with pytest.raises(ValueError):
        D.synth_generate(0, seed=0)


def test_image_range_and_shape():
    s = D.make_sample(2, 0, side=32)
    assert s.image.shape == (32, 32, 1)
    assert s.image.min() >= 0.0 and s.image.max() <= 1.0


# ---------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------

def test_keyword_encoding_padding_and_sep():
    v = D.default_vocab()
    ids, mask = D.encode_keyword_string(v, "spot ring", 4)
    assert list(ids[:3]) == [v.word_to_id["spot"], v.sep_id, v.word_to_id["ring"]]
    assert list(mask) == [True, True, True, False]
    assert ids[3] == v.pad_id


@pytest.mark.parametrize("s_l, kept", [(1, ["spot"]), (2, ["spot"]), (4, ["spot", "dot"]),
                                       (5, ["spot", "dot", "halo"])])
def test_keyword_encoding_keeps_whole_keywords_and_never_ends_on_sep(s_l, kept):
    v = D.default_vocab()
    ids, mask = D.encode_keyword_string(v, "spot dot halo", s_l)
    expect = [v.word_to_id["spot"]]
    for w in kept[1:]:
        expect += [v.sep_id, v.word_to_id[w]]
    assert list(ids[mask]) == expect
    assert (ids[~mask] == v.pad_id).all() and not mask[len(expect):].any()


def test_keyword_encoding_empty_falls_back_to_sep():
    v = D.default_vocab()
    ids, mask = D.encode_keyword_string(v, "", 4)
    assert ids[0] == v.sep_id and mask[0]
    assert not mask[1:].any()


def test_keyword_dropout_all_dropped_still_valid():
    v = D.default_vocab()
    rng = np.random.default_rng(0)
    ids, mask = D.encode_keyword_string(v, "spot", 4, drop_rng=rng, dropout=1.0)
    assert ids[0] == v.sep_id and mask.sum() == 1


def test_make_batch_teacher_forcing_layout():
    v = D.default_vocab()
    samples = D.synth_generate(3, seed=4, side=16)
    batch = D.make_batch(samples, v, s_l=4, max_len=10)
    assert len(batch) == 3
    assert batch.rep_in.shape == (3, 11)
    for i, s in enumerate(samples):
        toks = v.encode(s.report)
        n = len(toks)
        assert batch.rep_in[i, 0] == v.bos_id
        assert list(batch.rep_in[i, 1:n + 1]) == toks
        assert list(batch.rep_tgt[i, :n]) == toks
        assert batch.rep_tgt[i, n] == v.eos_id
        assert batch.rep_mask[i, :n + 1].all()
        assert not batch.rep_mask[i, n + 1:].any()
        assert list(batch.rep_ids[i, :n]) == toks
        assert batch.rep_content_mask[i].sum() == n


def test_make_batch_truncates_to_max_len():
    v = D.default_vocab()
    samples = D.synth_generate(2, seed=4, side=16)
    batch = D.make_batch(samples, v, s_l=4, max_len=3)
    assert batch.rep_in.shape[1] == 4
    assert (batch.rep_content_mask.sum(axis=1) <= 3).all()


def test_make_batch_rejects_empty():
    with pytest.raises(ValueError):
        D.make_batch([], D.default_vocab(), s_l=4, max_len=5)
