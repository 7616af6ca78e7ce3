"""Counterfactual augmentation: sentence popping with feature masking,
sentence-order reconstruction, and dataset-level orchestration.

``augment_record`` builds a record's counterfactual twin in two serial steps:

* Counterfactual Sample Synthesis (CSS, ``css_augment`` alone): pop one
  uniformly chosen sentence (re-drawn until it carries at least one
  disease label), keep the rest in order, and mask the feature vector of
  every disease the popped sentence labeled;
* Counterfactual Report Reconstruction (CRR, ``crr_augment``): reorder
  the remaining sentences by a uniform non-identity permutation
  (identity only for reports shorter than two sentences).

Then it builds the twin record and its outcome.  A twin is labeled
exactly when its source is, with ``label_report`` of its own report;
labels ignore sentence order, so the reordering cannot change them.

Each record draws from its own stream (seed + record id), so a dataset
augmentation is a pure function of (corpus, lexicon, config).  One driver
runs it: ``TwinSpool`` takes the records one at a time, spools each twin's
line on disk and chooses among them at the end; ``augment_dataset`` feeds it
a corpus held in memory.  What grows with the corpus is one fate byte per
record, plus 8 B per eligible record while the twins are chosen.
"""

from __future__ import annotations

import json
import os
import tempfile
from array import array
from contextlib import AbstractContextManager
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Optional, TextIO, Union

from .corpus import (Corpus, DiseaseStatus, LabelSchema, Provenance, Record, Report,
                     record_to_line)
from .errors import CoaugError, ConfigInvalid, MissingFeatures
from .labeler import Matcher, label_report, label_sentence
from .rng import RngStream

ORPHAN_MENTION = "OrphanMention"

_SELECTION_KEY = "augment:selection"

MAX_RESAMPLE = 5  # sentence draws before CSS gives up on a record
MIN_SENTENCES = 2  # CSS leaves at least one sentence

SKIP_REASONS = ("below-min-sentences", "no-labelable-sentence")

TWIN_SUFFIX = "#cf"  # a twin's id is its source's id and this
# a twin's fate in a TwinSpool; a skipped one's is _SKIPPED + its SKIP_REASONS index
_INELIGIBLE, _SPOOLED, _SPOOLED_ORPHAN, _SKIPPED = range(4)


@dataclass(frozen=True)
class AugmentationConfig:
    rate: float = 1.0
    seed: int = 0
    enable_css: bool = True
    enable_crr: bool = True

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigInvalid("rate", f"must be in [0, 1], got {self.rate}")
        if not (self.enable_css or self.enable_crr):
            raise ConfigInvalid("enable_css/enable_crr", "at least one must be true")


_CSS_ONLY = AugmentationConfig(enable_crr=False)


@dataclass(frozen=True)
class Skip:
    """Why the augmenter declined to touch a record."""

    reason: str  # one of SKIP_REASONS


@dataclass(frozen=True)
class AugmentationOutcome:
    record: Record
    popped_sentence_index: Optional[int]
    popped_labels: Mapping[int, DiseaseStatus]
    masked_indices: frozenset[int]
    permutation: tuple[int, ...]
    flags: frozenset[str]


def css_augment(record: Record, matcher: Matcher,
                stream: RngStream) -> Union[AugmentationOutcome, Skip]:
    """Pop one labeled sentence and mask the matching feature vectors.

    Masks every disease the popped sentence labels, even when another
    retained sentence mentions the same disease; that case is surfaced
    via the OrphanMention flag rather than silently avoided.
    """
    return augment_record(record, matcher, stream, _CSS_ONLY)


def crr_augment(report: Report, stream: RngStream) -> tuple[Report, tuple[int, ...]]:
    """Reorder sentences by a uniform permutation, re-drawn until it is
    not the identity whenever the report has at least two sentences.
    ``result.sentences[i] == report.sentences[perm[i]]``."""
    n = len(report)
    if n <= 1:
        return report, tuple(range(n))
    identity = list(range(n))
    while True:
        perm = stream.permutation(n)
        if perm != identity:
            break
    return Report(tuple(report.sentences[i] for i in perm)), tuple(perm)


def augment_record(record: Record, matcher: Matcher, stream: RngStream,
                   cfg: AugmentationConfig) -> Union[AugmentationOutcome, Skip]:
    """The twin of *record* and its outcome.  CSS (when enabled) checks the
    record, then pops a sentence, re-drawn up to ``MAX_RESAMPLE`` times until
    it is labeled, and masks the popped diseases' vectors; CRR (when enabled)
    then reorders what is left on the same stream.  The twin's labels, kept
    when its source has labels, also flag a masked disease a kept sentence
    still mentions."""
    index, popped, report = None, {}, record.report
    if cfg.enable_css:
        if record.provenance is not Provenance.ORIGINAL:
            raise ValueError("css_augment requires an Original record")
        if record.features is None:
            raise MissingFeatures(f"record {record.id!r} has no feature bundle")
        sentences = report.sentences
        if len(sentences) < MIN_SENTENCES:
            return Skip("below-min-sentences")
        for _ in range(MAX_RESAMPLE):
            index = stream.randrange(len(sentences))
            popped = label_sentence(sentences[index], matcher)
            if popped:
                report = Report(sentences[:index] + sentences[index + 1:])
                break
        else:
            return Skip("no-labelable-sentence")
    permutation = tuple(range(len(report)))
    if cfg.enable_crr:
        report, permutation = crr_augment(report, stream)
    masked = frozenset(popped)
    features = record.features.mask(masked) if masked else record.features
    labels = label_report(report, matcher) if masked or record.labels is not None else None
    orphan = any(labels.mentioned(i) for i in masked)
    twin = Record(record.id + TWIN_SUFFIX, report, features,
                  labels if record.labels is not None else None,
                  Provenance.COUNTERFACTUAL, record.id)
    return AugmentationOutcome(twin, index, popped, masked, permutation,
                               frozenset({ORPHAN_MENTION}) if orphan else frozenset())


@dataclass
class AugmentSummary:
    originals: int = 0
    eligible: int = 0
    target: int = 0
    augmented: int = 0
    skipped: int = 0
    orphan_flagged: int = 0
    shortfall: int = 0  # target minus what eligibility allowed


def augment_dataset(corpus: Corpus, matcher: Matcher,
                    cfg: AugmentationConfig) -> tuple[Corpus, AugmentSummary]:
    """``TwinSpool`` of a corpus held in memory: the originals in input
    order followed by the chosen twins ordered by source position."""
    with open(os.devnull, "w", encoding="utf-8") as out, \
            TwinSpool(out, None, corpus.schema, matcher, cfg) as spool:
        twins = [twin for record in corpus if (twin := spool.add(record, "")) is not None]
        rows, summary, _ = spool.finish()
    return Corpus(corpus.schema, corpus.records + tuple(twins[row] for row in rows)), summary


class TwinSpool(AbstractContextManager):
    """Augmentation of records fed in corpus order: ``add`` writes a record's
    line to *out* and spools its twin's line in *directory*, and ``finish``
    chooses ``_decimal_floor(rate, n)`` of the n records' eligible positions
    uniformly without replacement and appends the chosen twins' lines.  It
    keeps a fate byte per record and the ids ending in ``TWIN_SUFFIX``,
    which alone a twin's id can equal."""

    def __init__(self, out: TextIO, directory: Optional[str], schema: LabelSchema,
                 matcher: Matcher, cfg: AugmentationConfig):
        self.out, self.schema, self.matcher, self.cfg = out, schema, matcher, cfg
        self.fates, self.twin_ids = bytearray(), set()
        self.spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=directory)

    def __exit__(self, *exc) -> None:
        self.spool.close()

    def add(self, record: Record, line: str) -> Optional[Record]:
        """Write *record*'s *line*; returns its twin if the twin is spooled."""
        if record.provenance is not Provenance.ORIGINAL:
            raise CoaugError(f"record {record.id!r} is already counterfactual; "
                             "augmentation requires an all-Original corpus")
        self.out.write(line)
        if record.id.endswith(TWIN_SUFFIX):
            self.twin_ids.add(record.id)
        fate, twin, cfg = _INELIGIBLE, None, self.cfg
        # eligible: any record without CSS; with it, one with features and a sentence to spare
        if not cfg.enable_css or (record.features is not None
                                  and len(record.report) >= MIN_SENTENCES):
            stream = RngStream.for_record(cfg.seed, record.id)  # seed + record id
            outcome = augment_record(record, self.matcher, stream, cfg)
            if isinstance(outcome, Skip):
                fate = _SKIPPED + SKIP_REASONS.index(outcome.reason)
            else:
                twin = outcome.record
                self.spool.write(record_to_line(twin, self.schema) + "\n")
                fate = _SPOOLED_ORPHAN if ORPHAN_MENTION in outcome.flags else _SPOOLED
        self.fates.append(fate)
        return twin

    def finish(self) -> tuple[array, AugmentSummary, dict[str, int]]:
        """Append the chosen twins' lines, or raise if one's id is a record's;
        returns their rows among the spooled twins, the counts and the skips
        by reason."""
        fates, n = self.fates, len(self.fates)
        target = _decimal_floor(self.cfg.rate, n)
        eligible = n - fates.count(_INELIGIBLE)
        chosen = fates if target >= eligible else _choose(fates, target, self.cfg.seed)
        skips = {reason: chosen.count(_SKIPPED + k) for k, reason in enumerate(SKIP_REASONS)}
        orphans = chosen.count(_SPOOLED_ORPHAN)
        summary = AugmentSummary(originals=n, eligible=eligible, target=target,
                                 augmented=chosen.count(_SPOOLED) + orphans,
                                 skipped=sum(skips.values()), orphan_flagged=orphans,
                                 shortfall=max(0, target - eligible))
        rows = array("q")
        self.spool.seek(0)
        # the chosen fate of each spooled twin, in spool order
        picks = (pick for fate, pick in zip(fates, chosen) if fate in (_SPOOLED, _SPOOLED_ORPHAN))
        for row, (pick, line) in enumerate(zip(picks, self.spool)):
            if pick:
                if self.twin_ids and (twin_id := json.loads(line)["id"]) in self.twin_ids:
                    raise CoaugError(f"record {twin_id[:-len(TWIN_SUFFIX)]!r}: its twin's id "
                                     f"{twin_id!r} is already a record id")
                self.out.write(line)
                rows.append(row)
        return rows, summary, skips


def _decimal_floor(rate: float, n: int) -> int:
    """floor(rate · n) in integers, for the decimal that a rate in [0, 1]'s
    shortest repr writes: 0.29 · 100 is 29, not 28.999999999999996."""
    digits, _, exponent = repr(rate).partition("e")
    whole, _, fraction = digits.partition(".")
    return int(whole + fraction) * n // 10 ** (len(fraction) - int(exponent or 0))


def _choose(fates: bytearray, target: int, seed: int) -> bytearray:
    """*fates* at *target* of the eligible positions, chosen by a partial
    Fisher-Yates whose order the seed fixes, and ``_INELIGIBLE`` elsewhere."""
    pool = array("q", compress(range(len(fates)), fates))
    stream = RngStream.for_label(seed, _SELECTION_KEY)
    chosen = bytearray(len(fates))
    for i in range(target):
        j = i + stream.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
        chosen[pool[i]] = fates[pool[i]]
    return chosen
