"""Evaluation metrics: label-overlap scores and text-overlap scores.

Label scores (accuracy/precision/recall/F1) binarize Positive vs
everything else and micro-pool the confusion cells over all diseases and
records, so they are invariant to any reordering of sentences inside a
report.  The text scores are corpus BLEU-4 (pooled clipped n-gram
precisions, geometric mean, brevity penalty) and ROUGE-L (per-pair LCS
F-measure, beta = 1.2, averaged); both see a report as one token
sequence, so cross-sentence n-grams at the junctions make them order
sensitive by design.  The LCS is the bit-vector algorithm of
Allison-Dix (1986) and Hyyrö (2004): one Python-int match mask per
distinct token, one add/or/and step per token of the other side.

Tokenization everywhere: lowercase; a word is a run of Unicode letters
and digits, and any other non-space character (punctuation, ``_``) is a
token of its own.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .corpus import DiseaseStatus, Report, ReportLabelVector
from .errors import CoaugError, LengthMismatch, SchemaMismatch


class EmptyInput(CoaugError):
    pass


_TOKEN = re.compile(r"[^\W_]+|\S")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def report_tokens(report: Report) -> list[str]:
    return tokenize(" ".join(report.texts()))


# ---------------------------------------------------------------------------
# clinical label scores


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp,
            self.fn + other.fn, self.tn + other.tn,
        )


@dataclass(frozen=True)
class CeScores:
    accuracy: float
    precision: float
    recall: float
    f1: float


def _check_pairs(gold: Sequence[ReportLabelVector], gen: Sequence[ReportLabelVector]) -> None:
    if len(gold) != len(gen):
        raise LengthMismatch(f"{len(gold)} gold vs {len(gen)} generated label vectors")
    if len({len(v.statuses) for v in (*gold, *gen)}) > 1:
        raise SchemaMismatch("label vectors of different schema size")


def ce_confusion(
    gold: Sequence[ReportLabelVector], gen: Sequence[ReportLabelVector]
) -> ConfusionCounts:
    """Micro-pooled positive-vs-rest confusion cells: the per-disease
    cells summed.  Uncertain, Negative and Unmentioned all binarize to 0."""
    return sum(ce_confusion_per_disease(gold, gen), ConfusionCounts())


def ce_confusion_per_disease(
    gold: Sequence[ReportLabelVector], gen: Sequence[ReportLabelVector]
) -> list[ConfusionCounts]:
    _check_pairs(gold, gen)
    if not gold:
        return []
    n_c = len(gold[0].statuses)
    cells = [[0, 0, 0, 0] for _ in range(n_c)]
    for g, h in zip(gold, gen):
        for i, (sg, sh) in enumerate(zip(g.statuses, h.statuses)):
            pg = sg is DiseaseStatus.POSITIVE
            ph = sh is DiseaseStatus.POSITIVE
            cells[i][0 if (pg and ph) else 1 if ph else 2 if pg else 3] += 1
    return [ConfusionCounts(*c) for c in cells]


def ce_scores(c: ConfusionCounts) -> CeScores:
    """Standard formulas with zero-denominator precision/recall/F1 = 0."""
    if c.total == 0:
        raise EmptyInput("no confusion cells")
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return CeScores((c.tp + c.tn) / c.total, precision, recall, f1)


def macro_ce_scores(cells: Sequence[ConfusionCounts]) -> CeScores:
    """Mean of per-disease scores (offered behind the --macro flag)."""
    if not cells:
        raise EmptyInput("no per-disease counts")
    scores = [ce_scores(c) for c in cells]
    n = len(scores)
    return CeScores(
        sum(s.accuracy for s in scores) / n,
        sum(s.precision for s in scores) / n,
        sum(s.recall for s in scores) / n,
        sum(s.f1 for s in scores) / n,
    )


# ---------------------------------------------------------------------------
# text overlap scores


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def bleu_stats(
    gold: Sequence[Report], gen: Sequence[Report]
) -> tuple[list[float], float, float]:
    """(pooled modified precisions p_1..p_4, brevity penalty, score)."""
    if len(gold) != len(gen):
        raise LengthMismatch(f"{len(gold)} gold vs {len(gen)} generated reports")
    matches = [0] * 4
    totals = [0] * 4
    ref_len = cand_len = 0
    for ref_report, cand_report in zip(gold, gen):
        ref = report_tokens(ref_report)
        cand = report_tokens(cand_report)
        ref_len += len(ref)
        cand_len += len(cand)
        for n in range(1, 5):
            cand_counts = _ngram_counts(cand, n)
            if not cand_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += sum(cand_counts.values())
            matches[n - 1] += sum(map(min, cand_counts.values(),
                                      map(ref_counts.get, cand_counts, repeat(0))))
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if cand_len == 0:
        return precisions, 0.0, 0.0
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    if any(p == 0.0 for p in precisions):
        return precisions, bp, 0.0
    score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return precisions, bp, score


def bleu4(gold: Sequence[Report], gen: Sequence[Report]) -> float:
    """Corpus BLEU-4 with a single reference per candidate; 0 whenever a
    pooled n-gram precision is 0 (no smoothing)."""
    return bleu_stats(gold, gen)[2]


def _lcs_length(a: list[str], b: list[str]) -> int:
    """After a[:i], bit j of ``v`` is 0 exactly where LCS(a[:i], b[:j + 1])
    exceeds LCS(a[:i], b[:j]), so the zeros of ``v`` count LCS(a, b)."""
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = v = (1 << len(b)) - 1
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(gold: Sequence[Report], gen: Sequence[Report]) -> float:
    """Mean per-pair LCS F-measure; a pair with an empty side scores 0."""
    if len(gold) != len(gen):
        raise LengthMismatch(f"{len(gold)} gold vs {len(gen)} generated reports")
    if not gold:
        return 0.0
    total = 0.0
    b2 = 1.2 * 1.2  # beta = 1.2
    for ref_report, cand_report in zip(gold, gen):
        ref = report_tokens(ref_report)
        cand = report_tokens(cand_report)
        if not ref or not cand:
            continue
        lcs = _lcs_length(ref, cand)
        if lcs == 0:
            continue
        recall = lcs / len(ref)
        precision = lcs / len(cand)
        total += (1 + b2) * recall * precision / (recall + b2 * precision)
    return total / len(gold)
