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


def _check_pairs(hypotheses, references):
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("empty corpus")


def bleu(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> List[float]:
    """Corpus BLEU-1..4 with BP = min(1, e^(1 - r/c))."""
    _check_pairs(hypotheses, references)
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            h = _ngrams(hyp, n)
            r = _ngrams(ref, n)
            matches[n - 1] += sum(min(c, r[g]) for g, c in h.items())
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


def cider(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> float:
    """TF-IDF n-gram cosine (n = 1..4) averaged over orders, scaled by 10.

    IDF is computed over the reference corpus; a single-reference corpus has
    degenerate IDF and triggers a warning.
    """
    _check_pairs(hypotheses, references)
    n_refs = len(references)
    if len({tuple(r) for r in references}) < 2:
        warnings.warn("CIDEr IDF is degenerate with fewer than 2 distinct references")
    doc_freq = [Counter() for _ in range(MAX_N)]
    for ref in references:
        for n in range(1, MAX_N + 1):
            doc_freq[n - 1].update(set(_ngrams(ref, n)))

    def tfidf(seq, n):
        counts = _ngrams(seq, n)
        return {g: c * (math.log(n_refs) - math.log(max(1.0, doc_freq[n - 1][g])))
                for g, c in counts.items()}

    total = 0.0
    for hyp, ref in zip(hypotheses, references):
        pair = 0.0
        for n in range(1, MAX_N + 1):
            vh = tfidf(hyp, n)
            vr = tfidf(ref, n)
            dot = sum(vh[g] * vr[g] for g in vh if g in vr)
            nh = math.sqrt(sum(x * x for x in vh.values()))
            nr = math.sqrt(sum(x * x for x in vr.values()))
            if nh > 0 and nr > 0:
                pair += dot / (nh * nr)
        total += pair / MAX_N
    return 10.0 * total / len(hypotheses)


def score_corpus(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> ScoreReport:
    _check_pairs(hypotheses, references)
    report = ScoreReport(
        bleu=bleu(hypotheses, references),
        rouge_l=rouge_l(hypotheses, references),
        cider=cider(hypotheses, references),
        n_pairs=len(hypotheses),
        n_empty_hyps=sum(1 for h in hypotheses if len(h) == 0),
    )
    return report
