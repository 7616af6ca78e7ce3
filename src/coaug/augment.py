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

Each record draws from its own stream (seed + record id), so a dataset
augmentation is a pure function of (corpus, lexicon, config) in whatever
order its records are processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .labeler import Matcher, label_sentence
from .rng import RngStream

ORPHAN_MENTION = "OrphanMention"

_SELECTION_KEY = "augment:selection"


@dataclass(frozen=True)
class AugmentationConfig:
    rate: float = 1.0
    seed: int = 0
    enable_css: bool = True
    enable_crr: bool = True
    max_resample: int = 5
    min_sentences: int = 2

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigInvalid("rate", f"must be in [0, 1], got {self.rate}")
        if not (self.enable_css or self.enable_crr):
            raise ConfigInvalid("enable_css/enable_crr", "at least one must be true")
        if self.max_resample < 1:
            raise ConfigInvalid("max_resample", "must be >= 1")
        if self.min_sentences < 2:
            raise ConfigInvalid("min_sentences", "must be >= 2")


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


def _counterfactual_id(source_id: str) -> str:
    return source_id + "#cf"


def css_augment(
    record: Record,
    matcher: Matcher,
    stream: RngStream,
    cfg: AugmentationConfig,
) -> Union[AugmentationOutcome, Skip]:
    """Pop one labeled sentence and mask the matching feature vectors.

    Masks every disease the popped sentence labels, even when another
    retained sentence mentions the same disease; that case is surfaced
    via the OrphanMention flag rather than silently avoided.
    """
    if record.provenance is not Provenance.ORIGINAL:
        raise ValueError("css_augment requires an Original record")
    if record.features is None:
        raise MissingFeatures(f"record {record.id!r} has no feature bundle")
    n = len(record.report)
    if n < cfg.min_sentences:
        return Skip(record.id, "below-min-sentences")

    popped_index = -1
    popped_labels: Mapping[int, DiseaseStatus] = {}
    for _ in range(cfg.max_resample):
        idx = stream.randrange(n)
        labels = label_sentence(record.report.sentences[idx], matcher)
        if labels:
            popped_index, popped_labels = idx, labels
            break
    else:
        return Skip(record.id, "no-labelable-sentence")

    masked = frozenset(popped_labels)
    retained = (
        record.report.sentences[:popped_index]
        + record.report.sentences[popped_index + 1:]
    )
    orphan = any(
        masked.intersection(label_sentence(s, matcher)) for s in retained
    )
    d = len(record.features.per_disease[0].values) if record.features.per_disease else 0
    bundle = FeatureBundle(
        tuple(
            masked_vector(d) if i in masked else vec
            for i, vec in enumerate(record.features.per_disease)
        )
    )
    twin = Record(
        id=_counterfactual_id(record.id),
        report=Report(retained),
        features=bundle,
        labels=None,
        provenance=Provenance.COUNTERFACTUAL,
        source_id=record.id,
    )
    return AugmentationOutcome(
        record=twin,
        popped_sentence_index=popped_index,
        popped_labels=popped_labels,
        masked_indices=masked,
        permutation=tuple(range(len(retained))),
        flags=frozenset({ORPHAN_MENTION}) if orphan else frozenset(),
    )


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
    if cfg.enable_css:
        outcome = css_augment(record, matcher, stream, cfg)
        if isinstance(outcome, Skip):
            return outcome
    else:
        twin = Record(
            id=_counterfactual_id(record.id),
            report=record.report,
            features=record.features,
            labels=None,
            provenance=Provenance.COUNTERFACTUAL,
            source_id=record.id,
        )
        outcome = AugmentationOutcome(
            record=twin,
            popped_sentence_index=None,
            popped_labels={},
            masked_indices=frozenset(),
            permutation=tuple(range(len(record.report))),
            flags=frozenset(),
        )
    if cfg.enable_crr:
        reordered, perm = crr_augment(outcome.record.report, stream)
        outcome = replace(
            outcome,
            record=replace(outcome.record, report=reordered),
            permutation=perm,
        )
    return outcome


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
    return record.features is not None and len(record.report) >= cfg.min_sentences


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
