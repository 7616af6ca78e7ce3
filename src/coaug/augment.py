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
from typing import Mapping, Optional, Union

from .corpus import (
    Corpus,
    DiseaseStatus,
    FeatureBundle,
    Provenance,
    Record,
    Report,
    masked_vector,
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
    features = record.features
    if masked:
        features = FeatureBundle(tuple(
            masked_vector(len(vec.values)) if i in masked else vec
            for i, vec in enumerate(features.per_disease)))
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


def _is_eligible(record: Record, cfg: AugmentationConfig) -> bool:
    if not cfg.enable_css:
        return True
    return record.features is not None and len(record.report) >= MIN_SENTENCES


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


def augment_dataset(
    corpus: Corpus,
    matcher: Matcher,
    cfg: AugmentationConfig,
) -> tuple[Corpus, AugmentSummary]:
    """Augment floor(rate * |corpus|) records chosen uniformly without
    replacement among the eligible ones; output is the originals in
    input order followed by the twins ordered by source position."""
    for record in corpus:
        if record.provenance is not Provenance.ORIGINAL:
            raise CoaugError(
                f"record {record.id!r} is already counterfactual; "
                "augment_dataset requires an all-Original corpus"
            )

    n = len(corpus)
    target = math.floor(cfg.rate * n)
    eligible = [i for i, r in enumerate(corpus.records) if _is_eligible(r, cfg)]
    chosen = _select(eligible, target, cfg.seed)

    summary = AugmentSummary(
        originals=n,
        eligible=len(eligible),
        target=target,
        shortfall=max(0, target - len(eligible)),
    )
    twins: list[Record] = []
    for index in chosen:
        record = corpus.records[index]
        stream = RngStream.for_record(cfg.seed, record.id)
        outcome = augment_record(record, matcher, stream, cfg)
        if isinstance(outcome, Skip):
            summary.skipped += 1
            continue
        summary.augmented += 1
        if ORPHAN_MENTION in outcome.flags:
            summary.orphan_flagged += 1
        twins.append(outcome.record)

    return Corpus(corpus.schema, corpus.records + tuple(twins)), summary
