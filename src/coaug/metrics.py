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
Each score has one per-pair core: ``CeTally`` on the sets of diseases a pair's
reports mark Positive, and ``bleu_shared_counts`` and ``rouge_l_pair`` on the
tokens that ``pair_tokens`` makes of two reports.  BLEU counts the n-grams
inside a sentence text that both reports hold by its length, since a clip
matches them all, and clips only those of the other sentences and those
across an edge.  The functions that take whole sequences loop the core over
the pairs, and ``coaug evaluate`` over each block of pairs it reads.

Tokenization everywhere: lowercase; a word is a run of Unicode letters
and digits, and any other non-space character (punctuation, ``_``) is a
token of its own.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, itemgetter, sub
from typing import Iterable, Optional, Sequence

from .corpus import DiseaseStatus, Report, ReportLabelVector
from .errors import CoaugError, LengthMismatch, SchemaMismatch


class EmptyInput(CoaugError):
    pass


# a pair's sentence texts, gold then generated, and each distinct text's tokens
Shared = Optional[tuple[list[str], list[str], dict[str, list[str]]]]


_TOKEN = re.compile(r"[^\W_]+|\S")


def tokenize(text: str) -> list[str]:
    tokens = []
    for chunk in text.lower().split():
        # ``isalnum`` accepts exactly the characters of ``[^\W_]``, so a
        # whitespace-free chunk of them is one token; most chunks are words
        if chunk.isalnum():
            tokens.append(chunk)
        else:
            tokens += _TOKEN.findall(chunk)
    return tokens


def report_tokens(report: Report) -> list[str]:
    return tokenize(" ".join(report.texts()))


def _sum_in_order(values: Iterable[float]) -> float:
    """Left-to-right float sum.  From CPython 3.12 on, ``sum`` compensates
    float additions, which can change a score's last digit between
    versions; this gives the same float on every version."""
    total = 0.0
    for value in values:
        total += value
    return total


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


def ce_confusion(
    gold: Sequence[ReportLabelVector], gen: Sequence[ReportLabelVector]
) -> ConfusionCounts:
    """Micro-pooled positive-vs-rest confusion cells: the per-disease
    cells summed.  Uncertain, Negative and Unmentioned all binarize to 0."""
    return sum(ce_confusion_per_disease(gold, gen), ConfusionCounts())


def ce_confusion_per_disease(
    gold: Sequence[ReportLabelVector], gen: Sequence[ReportLabelVector]
) -> list[ConfusionCounts]:
    if len(gold) != len(gen):
        raise LengthMismatch(f"{len(gold)} gold vs {len(gen)} generated label vectors")
    if len({len(v.statuses) for v in (*gold, *gen)}) > 1:
        raise SchemaMismatch("label vectors of different schema size")
    if not gold:
        return []
    tally = CeTally(len(gold[0].statuses))
    positive = DiseaseStatus.POSITIVE
    for g, h in zip(gold, gen):
        tally.add({d for d, s in enumerate(g.statuses) if s is positive},
                  {d for d, s in enumerate(h.statuses) if s is positive})
    return tally.cells()


class CeTally:
    """Positive-vs-rest confusion cells of each disease, tallied pair by pair from
    the sets G and H of diseases that a pair's gold and generated reports mark
    Positive: tp counts G∩H, fp H−G and fn G−H; tn is what the pairs leave."""

    def __init__(self, diseases: int):
        self.pairs, self.counts = 0, [[0, 0, 0] for _ in range(diseases)]  # tp, fp, fn

    def add(self, gold: set[int], gen: set[int]) -> None:
        self.pairs += 1
        for cell, diseases in enumerate((gold & gen, gen - gold, gold - gen)):
            for d in diseases:
                self.counts[d][cell] += 1

    def cells(self) -> list[ConfusionCounts]:
        return [ConfusionCounts(tp, fp, fn, self.pairs - tp - fp - fn)
                for tp, fp, fn in self.counts]


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
        _sum_in_order(s.accuracy for s in scores) / n,
        _sum_in_order(s.precision for s in scores) / n,
        _sum_in_order(s.recall for s in scores) / n,
        _sum_in_order(s.f1 for s in scores) / n,
    )


# ---------------------------------------------------------------------------
# text overlap scores


def bleu_pair_counts(ref: list[str], cand: list[str]) -> tuple[int, ...]:
    """One pair's clipped n-gram matches for n = 1..4, then its candidate
    n-gram totals for n = 1..4.

    All four orders share one Counter per side: unigrams are the token
    strings themselves and longer n-grams are tuples, so orders never
    collide, and each order's keys sit in one run of insertion order.  A
    total is read off the candidate's length."""
    cand_counts, ref_counts = Counter(cand), Counter(ref)
    ends = [len(cand_counts)]
    for cand_grams, ref_grams in (
        (zip(cand, cand[1:]), zip(ref, ref[1:])),
        (zip(cand, cand[1:], cand[2:]), zip(ref, ref[1:], ref[2:])),
        (zip(cand, cand[1:], cand[2:], cand[3:]), zip(ref, ref[1:], ref[2:], ref[3:])),
    ):
        cand_counts.update(cand_grams)
        ref_counts.update(ref_grams)
        ends.append(len(cand_counts))
    # clip: min(c, r) = (c + r - |c - r|) / 2, summed over one order's keys,
    # where the c sum to that order's total
    in_ref = list(map(ref_counts.get, cand_counts, repeat(0)))
    gaps = list(map(abs, map(sub, cand_counts.values(), in_ref)))
    n = len(cand)
    totals = (n, max(n - 1, 0), max(n - 2, 0), max(n - 3, 0))
    starts = (0, *ends[:3])
    matches = [(total + sum(in_ref[i:j]) - sum(gaps[i:j])) // 2
               for total, i, j in zip(totals, starts, ends)]
    return (*matches, *totals)


def pair_tokens(ref_report: Report, cand_report: Report) -> tuple[list[str], list[str], Shared]:
    """Both reports' ``report_tokens`` and, when they share a sentence text,
    their texts and each distinct text's tokens, in order of first use (else None).  Each
    such text is tokenized once and a report's tokens are its sentences' joined in
    order: the same, since the space that joins two sentences ends a
    ``split`` chunk and ``lower``'s final-sigma context."""
    ref_texts, cand_texts = ref_report.texts(), cand_report.texts()
    if set(ref_texts).isdisjoint(cand_texts):
        return tokenize(" ".join(ref_texts)), tokenize(" ".join(cand_texts)), None
    texts = {text: tokenize(text) for text in dict.fromkeys(ref_texts + cand_texts)}
    return (list(chain.from_iterable(map(texts.__getitem__, ref_texts))),
            list(chain.from_iterable(map(texts.__getitem__, cand_texts))),
            (ref_texts, cand_texts, texts))


def bleu_shared_counts(ref: list[str], cand: list[str], shared: Shared) -> tuple[int, ...]:
    """``bleu_pair_counts(ref, cand)`` of ``pair_tokens``, with the n-grams
    inside shared sentences counted by length.  For any multiset S that both
    sides hold, sum min(c + s, r + s) = |S| + sum min(c, r): so each of the
    first ``min(copies)`` copies of a shared text adds its m - n + 1 n-grams
    to the matches, and only the n-grams outside those are clipped.  That
    walks every edge, so where sum(copies * (m - 7)) over texts of m > 7
    is at most the pair's sentence count (templated text), whole lists are."""
    if shared is None:
        return bleu_pair_counts(ref, cand)
    ref_texts, cand_texts, texts = shared
    both = set(ref_texts).intersection(cand_texts)
    held = {text: min(ref_texts.count(text), cand_texts.count(text))
            for text in both if len(texts[text]) > 7}
    squeezed = sum(copies * (len(texts[text]) - 7) for text, copies in held.items())
    if squeezed <= len(ref_texts) + len(cand_texts):  # not worth walking every edge
        return bleu_pair_counts(ref, cand)
    for text in both.difference(held):
        held[text] = min(ref_texts.count(text), cand_texts.count(text))
    matches = [0] * 5  # by n, from 1
    for text, copies in held.items():
        m = len(texts[text])
        for n in range(1, min(m, 4) + 1):
            matches[n] += copies * (m - n + 1)
    cand_counts = Counter(_outside_held(cand, cand_texts, texts, dict(held)))
    # only the reference's n-grams that the candidate has add to a clip
    ref_counts = Counter(filter(cand_counts.__contains__,
                                _outside_held(ref, ref_texts, texts, held)))
    for gram, count in ref_counts.items():
        matches[len(gram)] += min(count, cand_counts[gram])
    n = len(cand)
    return (*matches[1:], n, max(n - 1, 0), max(n - 2, 0), max(n - 3, 0))


# _ACROSS[g]: of the 3 + 3 tokens around an edge, the n-grams (n = 2..4) across
# it that start at or after the edge (or report start) g = 1, 2 or 3+ tokens back
_ACROSS = [None, *[itemgetter(*[slice(3 - d, 3 - d + n) for n in (2, 3, 4)
                                for d in range(1, min(n - 1, g) + 1)]) for g in (1, 2, 3)]]


def _outside_held(tokens: list[str], report_texts: list[str], texts: dict[str, list[str]],
                  left: dict[str, int]) -> list[tuple[str, ...]]:
    """A side's n-grams (n = 1..4, as tuples) outside the first ``left[text]``
    copies of each text: those of each run of other sentences, and those
    across a held copy's edge, each taken at the first edge it crosses.
    One past the report's end holds this side's pad, so it matches nothing."""
    runs, edges = [], {0}
    start = end = 0
    for text in report_texts:
        m = len(texts[text])
        if left.get(text):  # one of the first held copies of ``text``
            left[text] -= 1
            if end > start:
                runs.append(tokens[start:end])
            start = end + m
            edges.update((end, start))
        end += m
    if end > start:
        runs.append(tokens[start:end])
    grams: list[tuple[str, ...]] = []
    for run in runs:
        grams += chain(zip(run), zip(run, run[1:]), zip(run, run[1:], run[2:]),
                       zip(run, run[1:], run[2:], run[3:]))
    edges = sorted(edges - {end})  # no n-gram crosses the report's end
    pad = (object(),) * 3
    padded = (*pad, *tokens, *pad)  # an edge's 3 + 3 tokens start at its index
    for edge, gap in zip(edges[1:], map(sub, edges[1:], edges)):
        grams += _ACROSS[min(gap, 3)](padded[edge:edge + 6])
    return grams


def bleu_from_counts(counts: Sequence[int], ref_len: int) -> tuple[list[float], float, float]:
    """(pooled modified precisions p_1..p_4, brevity penalty, score) from
    ``bleu_pair_counts`` summed over the pairs; the candidate length is
    the unigram total."""
    matches, totals = counts[:4], counts[4:]
    cand_len = totals[0]
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if cand_len == 0:
        return precisions, 0.0, 0.0
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    if any(p == 0.0 for p in precisions):
        return precisions, bp, 0.0
    score = bp * math.exp(_sum_in_order(map(math.log, precisions)) / 4.0)
    return precisions, bp, score


def bleu_stats(
    gold: Sequence[Report], gen: Sequence[Report]
) -> tuple[list[float], float, float]:
    """(pooled modified precisions p_1..p_4, brevity penalty, score)."""
    if len(gold) != len(gen):
        raise LengthMismatch(f"{len(gold)} gold vs {len(gen)} generated reports")
    counts = [0] * 8
    ref_len = 0
    for ref_report, cand_report in zip(gold, gen):
        ref, cand, shared = pair_tokens(ref_report, cand_report)
        counts = list(map(add, counts, bleu_shared_counts(ref, cand, shared)))
        ref_len += len(ref)
    return bleu_from_counts(counts, ref_len)


def bleu4(gold: Sequence[Report], gen: Sequence[Report]) -> float:
    """Corpus BLEU-4 with a single reference per candidate; 0 whenever a
    pooled n-gram precision is 0 (no smoothing)."""
    return bleu_stats(gold, gen)[2]


def _lcs_length(a: list[str], b: list[str]) -> int:
    """After a[:i], bit j of ``v`` is 0 exactly where LCS(a[:i], b[:j + 1])
    exceeds LCS(a[:i], b[:j]), so the zeros of ``v``'s low len(b) bits
    count LCS(a, b).  Carries above those bits are cut once, at the end:
    ``u`` lies in ``v``'s low bits, so ``v - u`` never borrows from them."""
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = v = (1 << len(b)) - 1
    for mask in filter(None, map(masks.get, a)):
        u = v & mask
        v = (v + u) | (v - u)
    return len(b) - (v & full).bit_count()


def rouge_l_pair(ref: list[str], cand: list[str]) -> float:
    """One pair's LCS F-measure (beta = 1.2); 0 when a side is empty."""
    if not ref or not cand:
        return 0.0
    lcs = _lcs_length(ref, cand)
    if lcs == 0:
        return 0.0
    recall = lcs / len(ref)
    precision = lcs / len(cand)
    b2 = 1.2 * 1.2  # beta = 1.2
    return (1 + b2) * recall * precision / (recall + b2 * precision)


def rouge_l(gold: Sequence[Report], gen: Sequence[Report]) -> float:
    """Mean per-pair LCS F-measure; a pair with an empty side scores 0."""
    if len(gold) != len(gen):
        raise LengthMismatch(f"{len(gold)} gold vs {len(gen)} generated reports")
    if not gold:
        return 0.0
    return _sum_in_order(rouge_l_pair(report_tokens(ref_report), report_tokens(cand_report))
                         for ref_report, cand_report in zip(gold, gen)) / len(gold)
