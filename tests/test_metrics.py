"""Tests for BLEU / ROUGE-L / CIDEr against independently written oracles."""

import math
import warnings

import numpy as np
import pytest

from fusegen import metrics as M
from metric_oracles import oracle_bleu, oracle_cider, oracle_rouge_l


def _random_corpus(rng, n_pairs, vocab=12, min_len=1, max_len=9):
    hyps, refs = [], []
    for _ in range(n_pairs):
        hyps.append(list(rng.integers(0, vocab, rng.integers(min_len, max_len + 1))))
        refs.append(list(rng.integers(0, vocab, rng.integers(min_len, max_len + 1))))
    return hyps, refs


# ---------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------

def test_metrics_match_oracles_on_random_corpora():
    rng = np.random.default_rng(31)
    corpora = [_random_corpus(rng, int(rng.integers(2, 8))) for _ in range(50)]
    # 12 pairs over 3 distinct references, each repeated in turn
    hyps, refs = _random_corpus(rng, 12)
    corpora.append((hyps, [list(refs[i % 3]) for i in range(12)]))
    for trial, (hyps, refs) in enumerate(corpora):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = M.score_corpus(hyps, refs)
        want = oracle_bleu(hyps, refs)
        for a, b in zip(got.bleu, want):
            assert abs(a - b) < 1e-9, (trial, got.bleu, want)
        assert abs(M.rouge_l(hyps, refs) - oracle_rouge_l(hyps, refs)) < 1e-9
        assert abs(got.cider - oracle_cider(hyps, refs)) < 1e-9


# ---------------------------------------------------------------------
# hand-computed cases
# ---------------------------------------------------------------------

# corpora with one distinct reference, where CIDEr warns
one_reference = pytest.mark.filterwarnings("ignore:CIDEr IDF is degenerate")


@one_reference
def test_bleu1_brevity_penalty_hand_case():
    # 3-token hypothesis, all matched, against a 4-token reference:
    # p1 = 1, BP = e^(1 - 4/3) = e^(-1/3)
    hyp = [["a", "b", "c"]]
    ref = [["a", "b", "c", "d"]]
    assert M.score_corpus(hyp, ref).bleu[0] == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-4)


@one_reference
def test_bleu_identity_is_one():
    hyps = [["x", "y", "z", "w", "q"]] * 3
    scores = M.score_corpus(hyps, [list(h) for h in hyps]).bleu
    for s in scores:
        assert s == pytest.approx(1.0, abs=1e-12)


def test_rouge_l_two_thirds_precision_hand_case():
    # LCS = 2 over a 3-token hypothesis (precision 2/3) and 2-token reference
    # (recall 1): F = 2.2 * (2/3) * 1 / (1 + 1.2 * 2/3)
    hyp = [["a", "x", "b"]]
    ref = [["a", "b"]]
    p, r, b2 = 2.0 / 3.0, 1.0, 1.2
    expect = (1 + b2) * p * r / (r + b2 * p)
    assert M.rouge_l(hyp, ref) == pytest.approx(expect, abs=1e-4)


def test_rouge_l_order_sensitivity():
    assert M.rouge_l([["a", "b", "c"]], [["c", "b", "a"]]) < \
        M.rouge_l([["a", "b", "c"]], [["a", "b", "c"]])


def test_cider_identity_scores_ten():
    # distinct references, hypothesis == reference: cosine 1 per order
    hyps = [["a", "b", "c", "d", "e"], ["f", "g", "h", "i", "j"]]
    refs = [list(h) for h in hyps]
    assert M.score_corpus(hyps, refs).cider == pytest.approx(10.0, abs=1e-9)


def test_cider_warns_on_degenerate_idf():
    # exactly once per corpus, however many pairs share the reference
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        M.score_corpus([["a", "b"], ["a"]], [["a", "b"], ["a", "b"]])
    assert [str(w.message) for w in caught] == [
        "CIDEr IDF is degenerate with fewer than 2 distinct references"]


def test_empty_hypothesis_handled():
    scores = M.score_corpus([[], ["a"]], [["a", "b"], ["a"]]).bleu
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert M.rouge_l([[]], [["a"]]) == 0.0


def test_mismatched_corpus_rejected():
    with pytest.raises(ValueError):
        M.score_corpus([["a"]], [])
    with pytest.raises(ValueError):
        M.score_corpus([], [])


def test_score_corpus_aggregates():
    hyps = [["a", "b", "c", "d"], []]
    refs = [["a", "b", "c", "d"], ["x", "y"]]
    rep = M.score_corpus(hyps, refs)
    assert rep.n_pairs == 2
    assert rep.n_empty_hyps == 1
    assert "BLEU-4" in rep.format()
