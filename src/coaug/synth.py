"""Synthetic corpus generator with a plantable co-occurrence.

Per record: the planted pair is sampled as exposure ~ Bernoulli(marginal)
and outcome conditioned on it, every other disease independently from its
marginal; Positive diseases are always described, Negative ones with the
configured mention probability; each mentioned disease renders one
templated sentence (schema order or a uniform shuffle); features are the
status prototype plus spherical Gaussian noise.  Records mentioning
nothing are discarded and regeneration continues until ``n_records``
survive.  Everything is drawn from per-attempt streams, so generation is
deterministic and each record depends only on (seed, attempt index).
An attempt draws its statuses and mentions in one packed ``random_n``
call, then the report's order, then all its feature noise in one
``gauss_n`` call, and writes its features with one ``%.9g`` format.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import add
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .corpus import (
    Corpus,
    DiseaseStatus,
    FeatureBundle,
    LabelSchema,
    Provenance,
    Record,
    Report,
    Sentence,
    reading,
)
from .errors import ConfigInvalid, MissingTemplate, UnknownDisease
from .rng import RngStream


class OrderPolicy(Enum):
    SCHEMA = "schema"
    RANDOM = "random"


@dataclass(frozen=True)
class PlantedPair:
    a: int
    b: int
    p_pos_given_pos: float  # P(b Positive | a Positive)
    p_pos_given_neg: float  # P(b Positive | a Negative)


Prototypes = dict[int, tuple[tuple[float, ...], tuple[float, ...]]]


@dataclass(frozen=True)
class SynthConfig:
    n_records: int
    seed: int
    marginals: dict[int, float]
    templates: dict[tuple[int, DiseaseStatus], str]
    planted: tuple[PlantedPair, ...] = ()
    order_policy: OrderPolicy = OrderPolicy.SCHEMA
    mention_positive: float = 1.0
    mention_negative: float = 0.6
    prototypes: Optional[Prototypes] = None  # None = auto one-hot +/- 0.5
    noise_sigma: float = 0.1


def _check_prob(value: float, path: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigInvalid(path, f"probability out of [0, 1]: {value}")


def validate_config(cfg: SynthConfig, schema: LabelSchema) -> None:
    n_c = len(schema)
    if cfg.n_records < 0:
        raise ConfigInvalid("n_records", "must be >= 0")
    if not 0 <= cfg.noise_sigma < math.inf:
        raise ConfigInvalid("noise_sigma", f"must be finite and >= 0, got {cfg.noise_sigma}")
    _check_prob(cfg.mention_positive, "mention_positive")
    _check_prob(cfg.mention_negative, "mention_negative")
    planted_members: set[int] = set()
    planted_b = {pair.b for pair in cfg.planted}
    for i, pair in enumerate(cfg.planted):
        for role, idx in (("a", pair.a), ("b", pair.b)):
            if not 0 <= idx < n_c:
                raise ConfigInvalid(f"planted[{i}].{role}", f"index {idx} out of range")
            if idx in planted_members:
                raise ConfigInvalid(
                    f"planted[{i}].{role}", "disease appears in more than one planted pair"
                )
            planted_members.add(idx)
        _check_prob(pair.p_pos_given_pos, f"planted[{i}].p_pos_given_pos")
        _check_prob(pair.p_pos_given_neg, f"planted[{i}].p_pos_given_neg")
    for idx in range(n_c):
        if idx in planted_b:
            continue  # marginal is induced by the planted conditionals
        if idx not in cfg.marginals:
            raise ConfigInvalid(f"marginals[{idx}]", "missing marginal")
    for idx, p in cfg.marginals.items():
        if not 0 <= idx < n_c:
            raise ConfigInvalid(f"marginals[{idx}]", "index out of range")
        _check_prob(p, f"marginals[{idx}]")
    for idx in range(n_c):
        for status in (DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE):
            if (idx, status) not in cfg.templates:
                raise ConfigInvalid(
                    f"templates[{schema.names[idx]}|{status.value.lower()}]",
                    "missing template",
                )
    for (idx, status), text in cfg.templates.items():
        if not text.strip():
            raise ConfigInvalid(f"templates[{idx}|{status.value.lower()}]", "empty template")
    if cfg.prototypes is not None:
        for idx in range(n_c):
            if idx not in cfg.prototypes:
                raise ConfigInvalid(f"prototypes[{idx}]", "missing prototype pair")
            pos, neg = cfg.prototypes[idx]
            if len(pos) != schema.d or len(neg) != schema.d:
                raise ConfigInvalid(f"prototypes[{idx}]", f"vectors must have length {schema.d}")
            if not all(map(math.isfinite, pos + neg)):
                raise ConfigInvalid(f"prototypes[{idx}]", "values must be finite")


def auto_prototypes(schema: LabelSchema) -> Prototypes:
    """One-hot +/-0.5 patterns: unit separation between the Positive and
    Negative prototype of each disease."""
    protos: Prototypes = {}
    for idx in range(len(schema)):
        base = [0.0] * schema.d
        hot = idx % schema.d
        pos = list(base)
        neg = list(base)
        pos[hot] = 0.5
        neg[hot] = -0.5
        protos[idx] = (tuple(pos), tuple(neg))
    return protos


def render_report(
    statuses: Sequence[DiseaseStatus],
    mentioned: Sequence[int],
    templates: Mapping[tuple[int, DiseaseStatus], Union[str, Sentence]],
    order_policy: OrderPolicy,
    stream: RngStream,
) -> Report:
    """One sentence per mentioned disease; schema order sorts by disease
    index, random order applies a uniform shuffle.  A template given as a
    ``Sentence`` is that sentence in every report rendered from it."""
    order = sorted(mentioned)
    if order_policy is OrderPolicy.RANDOM and len(order) > 1:
        perm = stream.permutation(len(order))
        order = [order[i] for i in perm]
    sentences = []
    for idx in order:
        key = (idx, statuses[idx])
        if key not in templates:
            raise MissingTemplate(f"no template for disease {idx} / {statuses[idx].value}")
        template = templates[key]
        sentences.append(template if isinstance(template, Sentence) else Sentence(template))
    return Report(tuple(sentences))


def sample_features(
    statuses: Sequence[DiseaseStatus],
    prototypes: Prototypes,
    noise_sigma: float,
    stream: RngStream,
    d: int,
) -> FeatureBundle:
    """Status prototype plus spherical Gaussian noise; Unmentioned and
    Uncertain fall back to the Negative prototype.  One flat pass: the
    chosen prototypes in disease order, plus one draw of all the noise."""
    base = chain.from_iterable(prototypes[idx][status is not DiseaseStatus.POSITIVE]
                               for idx, status in enumerate(statuses))
    n = len(statuses) * d
    # base + (0.0 + sigma * z): two roundings, as base + gauss(0.0, sigma)
    values = tuple(map(add, base, stream.gauss_n(n, noise_sigma)) if noise_sigma > 0 else base)
    return FeatureBundle.from_flat(values, (d,) * len(statuses))


def _sample_statuses(cfg: SynthConfig, n_c: int, draws: Sequence[float]) -> list[DiseaseStatus]:
    """Each disease's status from the first n_c of *draws*: the planted
    pairs first (ordered by exposure index), then the rest in index order."""
    positive: list[Optional[bool]] = [None] * n_c
    k = 0
    for pair in sorted(cfg.planted, key=lambda p: p.a):
        a_pos = draws[k] < cfg.marginals[pair.a]
        positive[pair.a] = a_pos
        positive[pair.b] = draws[k + 1] < (pair.p_pos_given_pos if a_pos else pair.p_pos_given_neg)
        k += 2
    for idx in range(n_c):
        if positive[idx] is None:
            positive[idx] = draws[k] < cfg.marginals[idx]
            k += 1
    return [DiseaseStatus.POSITIVE if pos else DiseaseStatus.NEGATIVE for pos in positive]


def _attempt_record(
    cfg: SynthConfig,
    schema: LabelSchema,
    prototypes: Prototypes,
    sentences: Mapping[tuple[int, DiseaseStatus], Sentence],
    attempt: int,
) -> Optional[Record]:
    stream = RngStream.for_label(cfg.seed, f"synth:{attempt}")
    n_c = len(schema)
    # n_c status draws, then n_c mention draws, before any other draw
    draws = stream.random_n(2 * n_c)
    statuses = _sample_statuses(cfg, n_c, draws)
    mention = {DiseaseStatus.POSITIVE: cfg.mention_positive,
               DiseaseStatus.NEGATIVE: cfg.mention_negative}
    mentioned = [idx for idx, (status, u) in enumerate(zip(statuses, draws[n_c:]))
                 if u < mention[status]]
    if not mentioned:
        return None
    report = render_report(statuses, mentioned, sentences, cfg.order_policy, stream)
    features = sample_features(statuses, prototypes, cfg.noise_sigma, stream, schema.d)
    return Record(
        id=f"r{attempt:06d}",
        report=report,
        features=features,
        labels=None,
        provenance=Provenance.ORIGINAL,
    )


def synth_records(cfg: SynthConfig, schema: LabelSchema) -> Iterator[Record]:
    """Yield exactly ``cfg.n_records`` records, one at a time: the first
    that many attempts that mention a disease, in attempt order.  Record
    ids carry the attempt index, so streams and ids stay in lockstep.
    Each template's ``Sentence`` is built once and shared by its records."""
    validate_config(cfg, schema)
    prototypes = cfg.prototypes if cfg.prototypes is not None else auto_prototypes(schema)
    sentences = {key: Sentence(text) for key, text in cfg.templates.items()}

    produced = attempt = 0
    max_attempts = 1000 + 50 * max(cfg.n_records, 1)
    while produced < cfg.n_records:
        if attempt >= max_attempts:
            raise ConfigInvalid(
                "n_records",
                "generation stalled: records almost never mention a disease",
            )
        record = _attempt_record(cfg, schema, prototypes, sentences, attempt)
        if record is not None:
            produced += 1
            yield record
        attempt += 1


def synth_generate(cfg: SynthConfig, schema: LabelSchema) -> Corpus:
    """The corpus of ``synth_records``."""
    return Corpus(schema, tuple(synth_records(cfg, schema)))


# ---------------------------------------------------------------------------
# scenario files


def default_scenario_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_scenario.cfg")


def strong_pair_scenario_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "strong_pair_scenario.cfg")


def _parse_sections(lines: Iterable[str]) -> dict[str, list[tuple[str, str]]]:
    """Each section's ``(key, value)`` pairs; any other line is a ``ConfigInvalid`` of its line."""
    sections: dict[str, list[tuple[str, str]]] = {
        "general": [], "marginals": [], "planted": [], "templates": [], "prototypes": []}
    current = "general"
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in sections:
                raise ConfigInvalid(f"line {line_no}", f"unknown section [{current}]; "
                                    f"expected one of {', '.join(sections)}")
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {line_no}", f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        if current == "planted" and "->" not in key:
            raise ConfigInvalid(f"line {line_no}", "planted key must be 'A -> B'")
        sections[current].append((key.strip(), value.strip()))
    return sections


def _index_of(schema: LabelSchema, name: str, path: str) -> int:
    try:
        return schema.index_of(name.strip())
    except UnknownDisease:
        raise ConfigInvalid(path, f"unknown disease {name.strip()!r}") from None


_KEY_STATUSES = {s.value.lower(): s for s in (DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE)}


def _status_key(section: str, key: str, schema: LabelSchema) -> tuple[int, DiseaseStatus]:
    """The disease index and status of a ``disease | status`` key."""
    name, _, status = key.partition("|")
    status = status.strip().lower()
    if status not in _KEY_STATUSES:
        raise ConfigInvalid(f"{section}.{key}", f"bad status {status!r}, expected "
                            "'disease | positive' or 'disease | negative'")
    return _index_of(schema, name, f"{section}.{key}"), _KEY_STATUSES[status]


def parse_scenario(path: str, schema: LabelSchema) -> SynthConfig:
    """Parse a line-based ``key = value`` scenario file.

    Sections, any other being a ``ConfigInvalid``: [general] (n_records,
    seed, order_policy, mention_*, noise_sigma, prototypes), [marginals]
    (disease = probability), [planted] (``A -> B = p_pos_given_pos,
    p_pos_given_neg``), [templates] (``disease | positive = sentence``),
    and optionally [prototypes] (``disease | positive = v1, v2, ...``).
    """
    with reading(path) as lines:  # a line or field error names the file
        return _scenario_config(_parse_sections(lines), schema)


def _scenario_config(sections: dict, schema: LabelSchema) -> SynthConfig:
    general = {"n_records": "1000", "seed": "0", "order_policy": "schema",
               "mention_positive": "1.0", "mention_negative": "0.6",
               "noise_sigma": "0.1", "prototypes": "auto"}
    for key, value in sections["general"]:
        if key not in general:
            raise ConfigInvalid(f"general.{key}", "unknown key")
        general[key] = value
    if general["prototypes"] != "auto":
        raise ConfigInvalid("general.prototypes",
                            "must be 'auto'; give other vectors in a [prototypes] section")

    marginals: dict[int, float] = {}
    for key, value in sections["marginals"]:
        try:
            marginals[_index_of(schema, key, f"marginals.{key}")] = float(value)
        except ValueError:
            raise ConfigInvalid(f"marginals.{key}", f"bad probability {value!r}")

    planted: list[PlantedPair] = []
    for key, value in sections["planted"]:
        a_name, b_name = key.split("->", 1)
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2:
            raise ConfigInvalid(f"planted.{key}", "expected two conditionals")
        a, b = (_index_of(schema, name, f"planted.{key}") for name in (a_name, b_name))
        try:
            planted.append(PlantedPair(a, b, float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigInvalid(f"planted.{key}", f"bad conditionals {value!r}")

    templates: dict[tuple[int, DiseaseStatus], str] = {}
    for key, value in sections["templates"]:
        status_key = _status_key("templates", key, schema)
        if not value:
            raise ConfigInvalid(f"templates.{key}", "empty template")
        templates[status_key] = value

    prototypes: Optional[Prototypes] = None
    if sections["prototypes"]:
        raw: dict[tuple[int, DiseaseStatus], tuple[float, ...]] = {}
        for key, value in sections["prototypes"]:
            status_key = _status_key("prototypes", key, schema)
            try:
                raw[status_key] = tuple(float(x) for x in value.replace(",", " ").split())
            except ValueError:
                raise ConfigInvalid(f"prototypes.{key}", f"bad vector {value!r}")
        prototypes = {}
        for idx in {i for i, _ in raw}:
            try:
                prototypes[idx] = (raw[idx, DiseaseStatus.POSITIVE],
                                   raw[idx, DiseaseStatus.NEGATIVE])
            except KeyError:
                raise ConfigInvalid(f"prototypes[{idx}]", "need both positive and negative")

    try:
        policy = OrderPolicy(general["order_policy"])
    except ValueError:
        raise ConfigInvalid("general.order_policy", f"unknown policy {general['order_policy']!r}")

    try:
        cfg = SynthConfig(
            n_records=int(general["n_records"]),
            seed=int(general["seed"]),
            marginals=marginals,
            templates=templates,
            planted=tuple(planted),
            order_policy=policy,
            mention_positive=float(general["mention_positive"]),
            mention_negative=float(general["mention_negative"]),
            prototypes=prototypes,
            noise_sigma=float(general["noise_sigma"]),
        )
    except ValueError as exc:
        raise ConfigInvalid("general", str(exc))
    validate_config(cfg, schema)
    return cfg
