"""Counterfactual augmentation: sentence popping with feature masking,
sentence-order reconstruction, and dataset-level orchestration.

A counterfactual twin of a record is built in two serial steps:

* feature-side (``css_augment``): pop one uniformly chosen sentence
  (re-drawn until it carries at least one disease label), keep the rest
  in order, and mask the feature vector of every disease the popped
  sentence labeled;
* report-side (``crr_augment``): reorder the remaining sentences by a
  uniform non-identity permutation (identity only for reports shorter
  than two sentences).

The twin record and its outcome are then built once.  A twin is labeled
exactly when its source is, with ``label_report`` of its own report;
labels ignore sentence order, so the reordering cannot change them.

Each record draws from its own stream (seed + record id), so a dataset
augmentation is a pure function of (corpus, lexicon, config) in whatever
order its records are processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from .corpus import (
    Corpus,
    DiseaseStatus,
    Provenance,
    Record,
    Report,
)
from .errors import CoaugError, ConfigInvalid, MissingFeatures
from .labeler import Matcher, label_report, label_sentence
from .rng import RngStream

ORPHAN_MENTION = "OrphanMention"

_SELECTION_KEY = "augment:selection"

MAX_RESAMPLE = 5  # sentence draws before CSS gives up on a record
MIN_SENTENCES = 2  # CSS leaves at least one sentence


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
    """A record the augmenter declined to touch, with the reason."""

    record_id: str
    reason: str  # "below-min-sentences" | "no-labelable-sentence"


@dataclass(frozen=True)
class AugmentationOutcome:
    record: Record
    popped_sentence_index: Optional[int]
    popped_labels: Mapping[int, DiseaseStatus]
    masked_indices: frozenset[int]
    permutation: tuple[int, ...]
    flags: frozenset[str]


def _pop_sentence(record: Record, matcher: Matcher, stream: RngStream
                  ) -> Union[tuple[int, Mapping[int, DiseaseStatus], Report], Skip]:
    """CSS's draw: the popped index, its labels and the kept sentences."""
    if record.provenance is not Provenance.ORIGINAL:
        raise ValueError("css_augment requires an Original record")
    if record.features is None:
        raise MissingFeatures(f"record {record.id!r} has no feature bundle")
    sentences = record.report.sentences
    if len(sentences) < MIN_SENTENCES:
        return Skip(record.id, "below-min-sentences")
    for _ in range(MAX_RESAMPLE):
        idx = stream.randrange(len(sentences))
        labels = label_sentence(sentences[idx], matcher)
        if labels:
            return idx, labels, Report(sentences[:idx] + sentences[idx + 1:])
    return Skip(record.id, "no-labelable-sentence")


def _counterfactual(record: Record, matcher: Matcher, report: Report,
                    permutation: tuple[int, ...], popped_index: Optional[int],
                    popped_labels: Mapping[int, DiseaseStatus]) -> AugmentationOutcome:
    """The twin of *record* with *report*, and its outcome.  The popped
    diseases' vectors are masked; the twin's labels, kept when its source
    has labels, also flag a masked disease a kept sentence still mentions."""
    masked = frozenset(popped_labels)
    features = record.features.mask(masked) if masked else record.features
    labels = label_report(report, matcher) if masked or record.labels is not None else None
    orphan = any(labels.mentioned(i) for i in masked)
    twin = Record(record.id + "#cf", report, features,
                  labels if record.labels is not None else None,
                  Provenance.COUNTERFACTUAL, record.id)
    return AugmentationOutcome(twin, popped_index, popped_labels, masked, permutation,
                               frozenset({ORPHAN_MENTION}) if orphan else frozenset())


def css_augment(
    record: Record,
    matcher: Matcher,
    stream: RngStream,
) -> Union[AugmentationOutcome, Skip]:
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


def augment_record(
    record: Record,
    matcher: Matcher,
    stream: RngStream,
    cfg: AugmentationConfig,
) -> Union[AugmentationOutcome, Skip]:
    """Serial composition: pop-and-mask first (when enabled), then
    reorder what remains (when enabled)."""
    index, labels, report = None, {}, record.report
    if cfg.enable_css:
        popped = _pop_sentence(record, matcher, stream)
        if isinstance(popped, Skip):
            return popped
        index, labels, report = popped
    permutation = tuple(range(len(report)))
    if cfg.enable_crr:
        report, permutation = crr_augment(report, stream)
    return _counterfactual(record, matcher, report, permutation, index, labels)


@dataclass
class AugmentSummary:
    originals: int = 0
    eligible: int = 0
    target: int = 0
    augmented: int = 0
    skipped: int = 0
    orphan_flagged: int = 0
    shortfall: int = 0  # target minus what eligibility allowed


def is_eligible(record: Record, cfg: AugmentationConfig) -> bool:
    if not cfg.enable_css:
        return True
    return record.features is not None and len(record.report) >= MIN_SENTENCES


def record_twin(record: Record, matcher: Matcher,
                cfg: AugmentationConfig) -> Union[AugmentationOutcome, Skip]:
    """``augment_record`` on the record's own stream (seed + record id)."""
    return augment_record(record, matcher, RngStream.for_record(cfg.seed, record.id), cfg)


def _select(indices: list[int], target: int, seed: int) -> list[int]:
    # partial Fisher-Yates over the eligible list, order fixed by the seed
    if target >= len(indices):
        return list(indices)
    pool = list(indices)
    stream = RngStream.for_label(seed, _SELECTION_KEY)
    for i in range(target):
        j = i + stream.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:target])


def augment(n: int, eligible: list[int],
            twin: Callable[[int], Union[AugmentationOutcome, Skip]],
            cfg: AugmentationConfig) -> tuple[dict[int, Record], AugmentSummary]:
    """Choose floor(rate * n) of an n-record corpus's *eligible* positions
    uniformly without replacement, and count the outcome ``twin`` gives for
    each chosen one; returns the twins by source position, in order."""
    target = math.floor(cfg.rate * n)
    summary = AugmentSummary(originals=n, eligible=len(eligible), target=target,
                             shortfall=max(0, target - len(eligible)))
    twins: dict[int, Record] = {}
    for index in _select(eligible, target, cfg.seed):
        outcome = twin(index)
        if isinstance(outcome, Skip):
            summary.skipped += 1
            continue
        summary.augmented += 1
        if ORPHAN_MENTION in outcome.flags:
            summary.orphan_flagged += 1
        twins[index] = outcome.record
    return twins, summary


def augment_dataset(corpus: Corpus, matcher: Matcher,
                    cfg: AugmentationConfig) -> tuple[Corpus, AugmentSummary]:
    """Augment floor(rate * |corpus|) records chosen uniformly without
    replacement among the eligible ones; output is the originals in
    input order followed by the twins ordered by source position."""
    for record in corpus:
        if record.provenance is not Provenance.ORIGINAL:
            raise CoaugError(f"record {record.id!r} is already counterfactual; "
                             "augment_dataset requires an all-Original corpus")
    records = corpus.records
    eligible = [i for i, r in enumerate(records) if is_eligible(r, cfg)]
    twins, summary = augment(len(records), eligible,
                             lambda i: record_twin(records[i], matcher, cfg), cfg)
    return Corpus(corpus.schema, records + tuple(twins.values())), summary
