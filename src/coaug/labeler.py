"""Rule-based report labeler: lexicon matching, negation/uncertainty
windows, and report-level aggregation.

The labeler is deliberately mechanical so the whole pipeline stays
reproducible without model weights: a disease is detected when one of
its lexicon patterns matches on token boundaries (case-insensitive);
the mention is Negative if a negation cue starts within ``window``
tokens before the match, Uncertain if an uncertainty cue does, else
Positive.  Report labels aggregate sentence labels by the precedence
Positive > Uncertain > Negative > Unmentioned, which makes them
invariant to sentence order.  A neural labeler could be swapped in
behind the same two functions.  The words are the ``[a-z0-9]+`` runs of
the lowercased text; on ASCII text they are the alphanumeric tokens of
``metrics.tokenize``, which ``coaug evaluate`` has already made.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import compress, count
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import (
    Corpus,
    DiseaseStatus,
    LabelSchema,
    Report,
    ReportLabelVector,
    Sentence,
    STATUS_RANK,
    reading,
)
from .errors import DuplicateRule, MalformedRecord, UnknownDisease

_WORD = re.compile(r"[a-z0-9]+")
_MEMO_TEXTS = 1024  # texts a matcher's memo holds; a full one is cleared before an insert


def match_tokens(text: str) -> list[str]:
    """Lowercased word tokens used for pattern and cue matching."""
    return _WORD.findall(text.lower())


@dataclass(frozen=True)
class LexiconRule:
    disease_index: int
    pattern: str  # lowercase phrase, 1-5 tokens


@dataclass(frozen=True)
class CueList:
    negation: tuple[str, ...]
    uncertainty: tuple[str, ...]
    window: int = 6

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("cue window must be >= 1")
        if not all(map(match_tokens, self.negation + self.uncertainty)):
            raise ValueError("every cue phrase needs a word token")
        negation = {tuple(match_tokens(p)) for p in self.negation}  # as the matcher keys cues
        if not negation.isdisjoint(tuple(match_tokens(p)) for p in self.uncertainty):
            raise ValueError("negation and uncertainty cues must be disjoint")


class Matcher:
    """Compiled lexicon + cues against a fixed schema.  ``label_text`` memoizes labels
    by sentence text, ``_MEMO_TEXTS`` texts at most: an entry is a pure function of its
    text, so clearing the memo changes no label, only which texts are scanned again."""

    def __init__(self, schema: LabelSchema, rules: list[LexiconRule], cues: CueList):
        self.schema = schema
        self.cues = cues
        self.rules = tuple(sorted(rules, key=lambda r: (r.disease_index, r.pattern)))
        # phrases indexed by first token: (tokens, disease) and (tokens, status)
        self._patterns: dict[str, list[tuple[tuple[str, ...], int]]] = {}
        self._cues: dict[str, list[tuple[tuple[str, ...], DiseaseStatus]]] = {}
        seen = set()
        for rule in self.rules:
            toks = tuple(match_tokens(rule.pattern))
            if not 1 <= len(toks) <= 5:
                raise ValueError(f"pattern must be 1-5 tokens: {rule.pattern!r}")
            if (toks, rule.disease_index) in seen:
                raise DuplicateRule(f"duplicate rule {rule.pattern!r}")
            seen.add((toks, rule.disease_index))
            self._patterns.setdefault(toks[0], []).append((toks, rule.disease_index))
        for phrases, status in ((cues.negation, DiseaseStatus.NEGATIVE),
                                (cues.uncertainty, DiseaseStatus.UNCERTAIN)):
            for toks in map(tuple, map(match_tokens, phrases)):
                self._cues.setdefault(toks[0], []).append((toks, status))
        # sentence text -> labels; label outcome -> its one read-only copy
        self._memo: dict[str, Mapping[int, DiseaseStatus]] = {}
        self._outcomes: dict[tuple, Mapping[int, DiseaseStatus]] = {}
        self.sentences = 0  # of the reports labeled by label_report or coaug evaluate
        self._scans = [0, 0]  # texts scanned that matched a pattern, and that matched none

    def label_tokens(self, tokens: Sequence[str]) -> dict[int, DiseaseStatus]:
        tokens = tuple(tokens)
        # best match per disease: longest pattern wins, then leftmost
        best: dict[int, tuple[int, int]] = {}  # disease -> (-length, start), below (0,)
        for start in compress(count(), map(self._patterns.__contains__, tokens)):
            for toks, disease in self._patterns[tokens[start]]:
                end = start + len(toks)
                if tokens[start:end] == toks and (start - end, start) < best.get(disease, (0,)):
                    best[disease] = (start - end, start)
        if not best:
            return {}
        # cue positions once per sentence; a cue counts for a match when
        # it starts at most `window` tokens before it and ends before it
        cues = list(_occurrences(tokens, self._cues))
        labels: dict[int, DiseaseStatus] = {}
        for disease, (_, start) in sorted(best.items()):
            labels[disease], lo = DiseaseStatus.POSITIVE, start - self.cues.window
            for s, e, status in cues:
                if lo <= s and e <= start:
                    labels[disease] = status
                    if status is DiseaseStatus.NEGATIVE:  # negation beats uncertainty
                        break
        return labels

    def label_text(self, text: str,
                   tokens: Optional[list[str]] = None) -> Mapping[int, DiseaseStatus]:
        """Read-only labels of one sentence text, shared by equal outcomes; scanned
        again only once the memo was cleared.  ASCII text takes its words from ``tokens``."""
        labels = self._memo.get(text)
        if labels is None:
            # a list, since label_tokens' tuple of an iterator is resized: +1.4 MB peak RSS
            words = (match_tokens(text) if tokens is None or not text.isascii()
                     else list(filter(str.isalnum, tokens)))
            fresh = self.label_tokens(words)
            labels = self._outcomes.get(outcome := tuple(fresh.items()))
            if labels is None:
                labels = self._outcomes.setdefault(outcome, MappingProxyType(fresh))
            if len(self._memo) >= _MEMO_TEXTS:
                self._memo.clear()
            self._memo[text] = labels
            self._scans[not fresh] += 1
        return labels

    def counts(self) -> dict[str, int]:
        """Sentences labeled, texts scanned, and those matching nothing: the
        texts are the distinct ones while no more than ``_MEMO_TEXTS`` are."""
        return {"sentences": self.sentences, "distinct_texts": sum(self._scans),
                "unmatched_texts": self._scans[1]}


def _occurrences(tokens: tuple[str, ...], by_first: dict):
    """(start, end, value) of every indexed phrase found in *tokens*."""
    for start in compress(count(), map(by_first.__contains__, tokens)):
        for toks, value in by_first[tokens[start]]:
            end = start + len(toks)
            if tokens[start:end] == toks:
                yield start, end, value


def label_sentence(sentence: Sentence, matcher: Matcher) -> Mapping[int, DiseaseStatus]:
    """Disease statuses asserted by one sentence (empty when no pattern
    matches), as a read-only mapping shared by equal outcomes."""
    return matcher.label_text(sentence.text)


def label_report(report: Report, matcher: Matcher) -> ReportLabelVector:
    """Aggregate ``label_sentence``'s labels to one status per schema disease; the
    same walk records each disease's first-mention sentence (-1: none) as ``firsts``."""
    statuses = [DiseaseStatus.UNMENTIONED] * len(matcher.schema)
    firsts = [-1] * len(statuses)
    matcher.sentences += len(report.sentences)
    for s_idx, sentence in enumerate(report.sentences):
        for disease, status in label_sentence(sentence, matcher).items():
            if firsts[disease] < 0:
                firsts[disease] = s_idx
            if STATUS_RANK[status] > STATUS_RANK[statuses[disease]]:
                statuses[disease] = status
    return ReportLabelVector(tuple(statuses), tuple(firsts))


def positive_diseases(sentence_labels: Iterable[Mapping[int, DiseaseStatus]]) -> set[int]:
    """The diseases that some sentence marks Positive: those ``label_report``
    marks Positive, since Positive outranks every other status."""
    return {disease for labels in sentence_labels for disease, status in labels.items()
            if status is DiseaseStatus.POSITIVE}


def label_corpus(corpus: Corpus, matcher: Matcher) -> Corpus:
    """Attach report labels to every record."""
    return Corpus(corpus.schema, tuple(r.with_labels(label_report(r.report, matcher))
                                       for r in corpus.records))


# ---------------------------------------------------------------------------
# lexicon / cue files


def parse_lexicon(lines: Iterable[str], schema: LabelSchema) -> list[LexiconRule]:
    rules = []
    seen = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRecord(line_no, "expected 'disease<TAB>pattern'")
        name, pattern = parts[0].strip(), parts[1].strip().lower()
        tokens = tuple(match_tokens(pattern))
        if not 1 <= len(tokens) <= 5:
            raise MalformedRecord(line_no, f"pattern must be 1-5 word tokens: {pattern!r}")
        try:
            idx = schema.index_of(name)
        except UnknownDisease:
            raise MalformedRecord(line_no, f"unknown disease {name!r}") from None
        # the matcher keys a rule by its tokens, so "a-b" repeats "a b"
        if (idx, tokens) in seen:
            raise DuplicateRule(f"line {line_no}: duplicate rule ({name!r}, {pattern!r})")
        seen.add((idx, tokens))
        rules.append(LexiconRule(idx, pattern))
    return rules


def parse_cues(lines: Iterable[str]) -> CueList:
    negation, uncertainty = [], []
    window = 6
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("window="):
            try:
                window = int(line[len("window="):])
            except ValueError:
                raise MalformedRecord(line_no, f"bad window value {line!r}")
            if window < 1:
                raise MalformedRecord(line_no, "cue window must be >= 1")
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[0] not in ("neg", "unc"):
            raise MalformedRecord(line_no, "expected 'neg<TAB>phrase' or 'unc<TAB>phrase'")
        phrase = parts[1].strip().lower()
        if not (tokens := tuple(match_tokens(phrase))):
            raise MalformedRecord(line_no, "cue phrase has no word tokens")
        own, other = (negation, uncertainty) if parts[0] == "neg" else (uncertainty, negation)
        if tokens in {tuple(match_tokens(p)) for p in other}:  # as the matcher keys cues
            raise MalformedRecord(line_no, "negation and uncertainty cues must be disjoint")
        own.append(phrase)
    return CueList(tuple(negation), tuple(uncertainty), window)


def compile_lexicon(rules_path: str, cues_path: str, schema: LabelSchema) -> Matcher:
    """Compile lexicon and cue files into a matcher.  Compilation is
    independent of rule-file ordering."""
    with reading(rules_path) as lines:
        rules = parse_lexicon(lines, schema)
    with reading(cues_path) as lines:
        cues = parse_cues(lines)
    return Matcher(schema, rules, cues)


def default_lexicon_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_lexicon.tsv")


def default_cues_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_cues.tsv")


def default_matcher(schema: LabelSchema) -> Matcher:
    return compile_lexicon(default_lexicon_path(), default_cues_path(), schema)
