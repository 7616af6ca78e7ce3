"""Rule-based report labeler: sentence segmentation, lexicon matching,
negation/uncertainty windows, and report-level aggregation.

The labeler is deliberately mechanical so the whole pipeline stays
reproducible without model weights: a disease is detected when one of
its lexicon patterns matches on token boundaries (case-insensitive);
the mention is Negative if a negation cue starts within ``window``
tokens before the match, Uncertain if an uncertainty cue does, else
Positive.  Report labels aggregate sentence labels by the precedence
Positive > Uncertain > Negative > Unmentioned, which makes them
invariant to sentence order.  A neural labeler could be swapped in
behind the same two functions.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .corpus import (
    Corpus,
    DiseaseStatus,
    LabelSchema,
    Report,
    ReportLabelVector,
    Sentence,
    STATUS_RANK,
    read_lines,
)
from .errors import DuplicateRule, MalformedRecord

# Trailing periods of these tokens never end a sentence.
ABBREVIATIONS = frozenset(
    ["dr.", "mr.", "mrs.", "ms.", "a.m.", "p.m.", "e.g.", "i.e.", "vs."]
)

_TERMINAL = re.compile(r"[.!?]+(?=\s|$)")
_WORD = re.compile(r"[a-z0-9]+")


def segment(text: str) -> Report:
    """Split raw report text into sentences.

    Boundaries are runs of ``.!?`` followed by whitespace or end of
    input.  A lone period whose token is a guarded abbreviation (or part
    of a decimal number, which never precedes whitespace) does not end a
    sentence.  Fragments are trimmed; empty fragments are dropped.
    """
    sentences = []
    start = 0
    for match in _TERMINAL.finditer(text):
        if match.group() == ".":
            token_start = match.end() - 1
            while token_start > 0 and not text[token_start - 1].isspace():
                token_start -= 1
            token = text[token_start:match.end()].lower()
            if token in ABBREVIATIONS:
                continue
        fragment = text[start:match.end()].strip()
        if fragment:
            sentences.append(Sentence(fragment))
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(Sentence(tail))
    return Report(tuple(sentences))


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
        if set(self.negation) & set(self.uncertainty):
            raise ValueError("negation and uncertainty cues must be disjoint")
        if not all(map(match_tokens, self.negation + self.uncertainty)):
            raise ValueError("every cue phrase needs a word token")


class Matcher:
    """Compiled lexicon + cues against a fixed schema.  ``label_text``
    memoizes labels by sentence text for the matcher's lifetime, so its
    memory grows with the distinct sentences labeled; an entry is a pure
    function of its text."""

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

    def label_tokens(self, tokens: Sequence[str]) -> dict[int, DiseaseStatus]:
        tokens = tuple(tokens)
        # best match per disease: longest pattern wins, then leftmost
        best: dict[int, tuple[int, int]] = {}  # disease -> (-length, start)
        for start, end, disease in _occurrences(tokens, self._patterns):
            cand = (start - end, start)
            if disease not in best or cand < best[disease]:
                best[disease] = cand
        # cue positions once per sentence; a cue counts for a match when
        # it starts at most `window` tokens before it and ends before it
        cues = list(_occurrences(tokens, self._cues))
        labels: dict[int, DiseaseStatus] = {}
        for disease, (_, start) in sorted(best.items()):
            lo = start - self.cues.window
            found = {status for s, e, status in cues if lo <= s and e <= start}
            # negation (rank 1) beats uncertainty (rank 2)
            labels[disease] = min(found, key=STATUS_RANK.get, default=DiseaseStatus.POSITIVE)
        return labels

    def label_text(self, text: str) -> Mapping[int, DiseaseStatus]:
        """Read-only labels of one sentence text, scanned once per text;
        texts with the same outcome share one mapping."""
        labels = self._memo.get(text)
        if labels is None:
            fresh = self.label_tokens(match_tokens(text))
            labels = self._outcomes.setdefault(tuple(fresh.items()), MappingProxyType(fresh))
            self._memo[text] = labels
        return labels


def _occurrences(tokens: tuple[str, ...], by_first: dict):
    """(start, end, value) of every indexed phrase found in *tokens*."""
    for start, token in enumerate(tokens):
        for toks, value in by_first.get(token, ()):
            end = start + len(toks)
            if tokens[start:end] == toks:
                yield start, end, value


def label_sentence(sentence: Sentence, matcher: Matcher) -> Mapping[int, DiseaseStatus]:
    """Disease statuses asserted by one sentence (empty when no pattern
    matches), as a read-only mapping shared by equal outcomes."""
    return matcher.label_text(sentence.text)


def label_report(report: Report, matcher: Matcher) -> ReportLabelVector:
    """Aggregate sentence labels to one status per schema disease."""
    statuses = [DiseaseStatus.UNMENTIONED] * len(matcher.schema)
    for sentence in report.sentences:
        for disease, status in label_sentence(sentence, matcher).items():
            if STATUS_RANK[status] > STATUS_RANK[statuses[disease]]:
                statuses[disease] = status
    return ReportLabelVector(tuple(statuses))


def label_corpus(corpus: Corpus, matcher: Matcher, keep_existing: bool = False) -> Corpus:
    """Attach report labels to every record.  With *keep_existing*,
    records that already carry labels keep them."""
    return Corpus(corpus.schema, tuple(
        r if keep_existing and r.labels is not None
        else r.with_labels(label_report(r.report, matcher))
        for r in corpus.records))


# ---------------------------------------------------------------------------
# lexicon / cue files


def parse_lexicon(lines: list[str], schema: LabelSchema) -> list[LexiconRule]:
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
        idx = schema.index_of(name)
        # the matcher keys a rule by its tokens, so "a-b" repeats "a b"
        if (idx, tokens) in seen:
            raise DuplicateRule(f"line {line_no}: duplicate rule ({name!r}, {pattern!r})")
        seen.add((idx, tokens))
        rules.append(LexiconRule(idx, pattern))
    return rules


def parse_cues(lines: list[str]) -> CueList:
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
        if not match_tokens(phrase):
            raise MalformedRecord(line_no, "cue phrase has no word tokens")
        own, other = (negation, uncertainty) if parts[0] == "neg" else (uncertainty, negation)
        if phrase in other:
            raise MalformedRecord(line_no, "negation and uncertainty cues must be disjoint")
        own.append(phrase)
    return CueList(tuple(negation), tuple(uncertainty), window)


def compile_lexicon(rules_path: str, cues_path: str, schema: LabelSchema) -> Matcher:
    """Compile lexicon and cue files into a matcher.  Compilation is
    independent of rule-file ordering."""
    rules = parse_lexicon(read_lines(rules_path), schema)
    cues = parse_cues(read_lines(cues_path))
    return Matcher(schema, rules, cues)


def default_lexicon_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_lexicon.tsv")


def default_cues_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_cues.tsv")


def default_matcher(schema: LabelSchema) -> Matcher:
    return compile_lexicon(default_lexicon_path(), default_cues_path(), schema)
