"""Corpus-level caption metrics over token sequences.

BLEU-1..4 (modified n-gram precision, brevity penalty, add-epsilon smoothing
on zero precisions), ROUGE-L (per-pair LCS F-measure with beta^2 = 1.2), and
CIDEr (TF-IDF weighted n-gram cosine, n = 1..4, averaged and scaled by 10; no
length penalty). All operate on pre-tokenized sequences; token identity is
the only thing that matters.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Sequence

EPS = 1e-9
ROUGE_BETA_SQ = 1.2
MAX_N = 4   # BLEU-1..4 and CIDEr's n-gram orders


@dataclass
class ScoreReport:
    bleu: List[float] = field(default_factory=list)   # bleu[0] = BLEU-1 ...
    rouge_l: float = 0.0
    cider: float = 0.0
    n_pairs: int = 0
    n_empty_hyps: int = 0

    def format(self) -> str:
        lines = [f"pairs evaluated: {self.n_pairs}"]
        if self.n_empty_hyps:
            lines.append(f"empty hypotheses: {self.n_empty_hyps}")
        for i, b in enumerate(self.bleu, start=1):
            lines.append(f"BLEU-{i}: {b:.4f}")
        lines.append(f"ROUGE-L: {self.rouge_l:.4f}")
        lines.append(f"CIDEr: {self.cider:.4f}")
        return "\n".join(lines)


def _ngrams(seq: Sequence, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _counts(corpus: Sequence[Sequence]) -> List[List[Counter]]:
    """Each sequence's n-gram counts, orders 1..MAX_N."""
    return [[_ngrams(seq, n) for n in range(1, MAX_N + 1)] for seq in corpus]


def _check_pairs(hypotheses, references):
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("empty corpus")


def _bleu(hypotheses, references, hyp_counts, ref_counts) -> List[float]:
    """Corpus BLEU-1..4 with BP = min(1, e^(1 - r/c))."""
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    hyp_len = ref_len = 0
    for hyp, ref, hc, rc in zip(hypotheses, references, hyp_counts, ref_counts):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            r = rc[n - 1]
            matches[n - 1] += sum(min(c, r[g]) for g, c in hc[n - 1].items())
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if hyp_len == 0:
        return [0.0] * MAX_N
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    precisions = [(m / t) if t > 0 and m > 0 else EPS for m, t in zip(matches, totals)]
    scores = []
    for k in range(1, MAX_N + 1):
        log_mean = sum(math.log(p) for p in precisions[:k]) / k
        scores.append(bp * math.exp(log_mean))
    return scores


def _lcs_len(a: Sequence, b: Sequence) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> float:
    """Mean per-pair LCS F-score, beta^2 = 1.2."""
    _check_pairs(hypotheses, references)
    total = 0.0
    for hyp, ref in zip(hypotheses, references):
        lcs = _lcs_len(hyp, ref)
        if lcs == 0 or not hyp or not ref:
            continue
        p = lcs / len(hyp)
        r = lcs / len(ref)
        total += (1 + ROUGE_BETA_SQ) * p * r / (r + ROUGE_BETA_SQ * p)
    return total / len(hypotheses)


def _cider(references, hyp_counts, ref_counts) -> float:
    """TF-IDF n-gram cosine (n = 1..4) averaged over orders, scaled by 10.

    IDF is computed over the reference corpus; a single-reference corpus has
    degenerate IDF and triggers a warning.
    """
    n_refs = len(references)
    if len({tuple(r) for r in references}) < 2:
        warnings.warn("CIDEr IDF is degenerate with fewer than 2 distinct references")
    doc_freq = [Counter() for _ in range(MAX_N)]
    for rc in ref_counts:
        for df, counts in zip(doc_freq, rc):
            df.update(counts.keys())
    # each distinct n-gram's IDF weight, once; an n-gram in no reference
    # counts as in one, so it weighs log(n_refs)
    log_n = math.log(n_refs)
    idf = [{g: log_n - math.log(c) for g, c in df.items()} for df in doc_freq]

    def tfidf(counts, weights):
        vec = {g: c * weights.get(g, log_n) for g, c in counts.items()}
        return vec, math.sqrt(sum(x * x for x in vec.values()))

    # each distinct reference's vector and norm per order, once: equal
    # sequences have equal counts in the same order, so the same floats
    ref_vecs = {}
    total = 0.0
    for hc, ref, rc in zip(hyp_counts, references, ref_counts):
        key = tuple(ref)
        if key not in ref_vecs:
            ref_vecs[key] = [tfidf(rc[n], idf[n]) for n in range(MAX_N)]
        pair = 0.0
        for n, (vr, nr) in enumerate(ref_vecs[key]):
            vh, nh = tfidf(hc[n], idf[n])
            dot = sum(vh[g] * vr[g] for g in vh if g in vr)
            if nh > 0 and nr > 0:
                pair += dot / (nh * nr)
        total += pair / MAX_N
    return 10.0 * total / len(hyp_counts)


def score_corpus(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> ScoreReport:
    """BLEU, ROUGE-L and CIDEr of one corpus, the package's one scorer; the
    n-gram counts of each sequence are taken once and shared by BLEU and
    CIDEr."""
    _check_pairs(hypotheses, references)
    hyp_counts, ref_counts = _counts(hypotheses), _counts(references)
    report = ScoreReport(
        bleu=_bleu(hypotheses, references, hyp_counts, ref_counts),
        rouge_l=rouge_l(hypotheses, references),
        cider=_cider(references, hyp_counts, ref_counts),
        n_pairs=len(hypotheses),
        n_empty_hyps=sum(1 for h in hypotheses if len(h) == 0),
    )
    return report
