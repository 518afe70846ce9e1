"""Tokenizer, synthetic image/keyword/report generator, and batching.

The synthetic task is built so the report is predictable only from image and
keywords jointly: lesion blobs are rendered in one of four grid quadrants
(position readable only from the image), and blob type names come in visually
identical twin pairs (the member readable only from the keyword). The report
template is a deterministic function of (type, row, col), so the mapping is
learnable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

PAD, BOS, EOS, SEP, UNK = "[PAD]", "[BOS]", "[EOS]", "[SEP]", "<UNK>"
RESERVED = [PAD, BOS, EOS, SEP, UNK]

# twin pairs: both members of a row render identically
BLOB_TYPES = [
    ("spot", "dot"),
    ("ring", "halo"),
    ("streak", "line"),
    ("patch", "shade"),
]
ROW_WORDS = ["upper", "lower"]
COL_WORDS = ["left", "right"]

_TEMPLATES = [
    "a {t} at {r} {c}",
    "there is a {t} at {r} {c}",
    "the image shows a {t} at {r} {c} region",
]


class Vocab:
    """Word vocabulary: the reserved tokens at fixed ids, then ``words`` in
    order."""

    def __init__(self, words: Sequence[str]):
        self.id_to_word: List[str] = list(RESERVED) + [w for w in words if w not in RESERVED]
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}

    def __len__(self):
        return len(self.id_to_word)

    @property
    def pad_id(self):
        return self.word_to_id[PAD]

    @property
    def bos_id(self):
        return self.word_to_id[BOS]

    @property
    def eos_id(self):
        return self.word_to_id[EOS]

    @property
    def sep_id(self):
        return self.word_to_id[SEP]

    @property
    def unk_id(self):
        return self.word_to_id[UNK]

    def encode(self, text: str) -> List[int]:
        return [self.word_to_id.get(w, self.unk_id) for w in text.split()]

    def decode(self, ids: Iterable[int]) -> str:
        # ids past the vocabulary (a model may reserve more rows) read as UNK
        special = {self.pad_id, self.bos_id, self.eos_id}
        return " ".join(self.id_to_word[i] if 0 <= i < len(self.id_to_word) else UNK
                        for i in ids if i not in special)


# ---------------------------------------------------------------------
# synthetic samples
# ---------------------------------------------------------------------

@dataclass
class SyntheticSample:
    image: np.ndarray      # (side, side, 1) in [0, 1]
    keywords: str          # space-separated keyword words
    report: str            # space-separated report words


@functools.lru_cache(maxsize=256)
def _blob_mask(side: int, pair_idx: int, row: int, col: int) -> np.ndarray:
    """Read-only (side, side) boolean mask of the pixels a blob of type pair
    ``pair_idx`` in cell (``row``, ``col``) covers."""
    cell = side // 2
    y0, x0 = row * cell, col * cell
    cy, cx = y0 + cell // 2, x0 + cell // 2
    yy, xx = np.mgrid[0:side, 0:side]
    r2 = (yy - cy) ** 2 + (xx - cx) ** 2
    rad = max(1.5, cell / 2.5)
    mask = np.zeros((side, side), dtype=bool)
    if pair_idx == 0:      # filled disk
        mask = r2 <= rad ** 2
    elif pair_idx == 1:    # ring
        mask = (r2 <= rad ** 2) & (r2 >= (rad - 1.2) ** 2)
    elif pair_idx == 2:    # horizontal bar
        mask[cy - 1:cy + 1, x0:x0 + cell] = True
    else:                  # filled square
        h = int(rad)
        mask[cy - h:cy + h, cx - h:cx + h] = True
    mask.flags.writeable = False
    return mask


def make_sample(seed: int, index: int, side: int = 16) -> SyntheticSample:
    rng = np.random.default_rng([seed, index])
    pair_idx = int(rng.integers(len(BLOB_TYPES)))
    member = int(rng.integers(2))
    row = int(rng.integers(len(ROW_WORDS)))
    col = int(rng.integers(len(COL_WORDS)))
    type_word = BLOB_TYPES[pair_idx][member]
    img = (rng.uniform(0.0, 0.15, size=(side, side, 1))).astype(float)
    img[_blob_mask(side, pair_idx, row, col), 0] = 1.0
    # template is a fixed function of content so the report is learnable
    template = _TEMPLATES[(pair_idx + 2 * member + row + col) % len(_TEMPLATES)]
    report = template.format(t=type_word, r=ROW_WORDS[row], c=COL_WORDS[col])
    return SyntheticSample(image=img, keywords=type_word, report=report)


def synth_generate(n: int, seed: int, side: int = 16) -> List[SyntheticSample]:
    if n < 1:
        raise ValueError("n must be >= 1")
    return [make_sample(seed, i, side) for i in range(n)]


def default_vocab() -> Vocab:
    """Every word of the task. Checkpoints store ids, so the order is fixed."""
    return Vocab(["left", "upper", "a", "at", "image", "is", "region", "shows", "the",
                  "there", "dot", "halo", "line", "patch", "ring", "shade", "spot",
                  "streak", "lower", "right"])


# ---------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------

@dataclass
class Batch:
    images: np.ndarray     # (N, side, side, 1)
    kw_ids: np.ndarray     # (N, S_L)
    kw_mask: np.ndarray    # (N, S_L) bool, True = real token
    rep_in: np.ndarray     # (N, T) decoder input: BOS + tokens
    rep_tgt: np.ndarray    # (N, T) next-token targets: tokens + EOS
    rep_mask: np.ndarray   # (N, T) bool over targets

    def __len__(self):
        return self.images.shape[0]


def max_keywords(s_l: int) -> int:
    """How many whole keywords fit in ``s_l`` slots: k keywords take k
    tokens and k-1 separators."""
    return (s_l + 1) // 2


def encode_keyword_string(vocab: Vocab, keywords: str, s_l: int,
                          drop_rng: Optional[np.random.Generator] = None,
                          dropout: float = 0.0):
    """Tokenize [SEP]-joined keywords into a fixed-length padded row. Only
    the first ``max_keywords(s_l)`` keywords are kept, so the row never
    ends on a separator."""
    words = [w for w in keywords.split() if w]
    if drop_rng is not None and dropout > 0.0:
        words = [w for w in words if drop_rng.uniform() >= dropout]
    tokens: List[int] = []
    for i, w in enumerate(words[:max_keywords(s_l)]):
        if i > 0:
            tokens.append(vocab.sep_id)
        tokens.append(vocab.word_to_id.get(w, vocab.unk_id))
    if not tokens:
        tokens = [vocab.sep_id]
    ids = np.full(s_l, vocab.pad_id, dtype=np.int64)
    mask = np.zeros(s_l, dtype=bool)
    ids[: len(tokens)] = tokens
    mask[: len(tokens)] = True
    return ids, mask


def make_batch(samples: Sequence[SyntheticSample], vocab: Vocab, s_l: int,
               max_len: int) -> Batch:
    n = len(samples)
    if n == 0:
        raise ValueError("batch must be nonempty")
    images = np.stack([s.image for s in samples])
    kw_ids = np.zeros((n, s_l), dtype=np.int64)
    kw_mask = np.zeros((n, s_l), dtype=bool)
    t = max_len + 1  # room for BOS/EOS shift
    rep_in = np.zeros((n, t), dtype=np.int64)
    rep_tgt = np.zeros((n, t), dtype=np.int64)
    rep_mask = np.zeros((n, t), dtype=bool)
    for i, s in enumerate(samples):
        kw_ids[i], kw_mask[i] = encode_keyword_string(vocab, s.keywords, s_l)
        toks = vocab.encode(s.report)[:max_len]
        seq_in = [vocab.bos_id] + toks
        seq_tgt = toks + [vocab.eos_id]
        rep_in[i, : len(seq_in)] = seq_in
        rep_tgt[i, : len(seq_tgt)] = seq_tgt
        rep_mask[i, : len(seq_tgt)] = True
    return Batch(images, kw_ids, kw_mask, rep_in, rep_tgt, rep_mask)
