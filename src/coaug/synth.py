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
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Iterator, Optional, Sequence

from .corpus import (
    Corpus,
    DiseaseStatus,
    FeatureBundle,
    LabelSchema,
    Provenance,
    Record,
    Report,
    Sentence,
    read_lines,
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
    templates: dict[tuple[int, DiseaseStatus], str],
    order_policy: OrderPolicy,
    stream: RngStream,
) -> Report:
    """One sentence per mentioned disease; schema order sorts by disease
    index, random order applies a uniform shuffle."""
    order = sorted(mentioned)
    if order_policy is OrderPolicy.RANDOM and len(order) > 1:
        perm = stream.permutation(len(order))
        order = [order[i] for i in perm]
    sentences = []
    for idx in order:
        key = (idx, statuses[idx])
        if key not in templates:
            raise MissingTemplate(f"no template for disease {idx} / {statuses[idx].value}")
        sentences.append(Sentence(templates[key]))
    return Report(tuple(sentences))


def sample_features(
    statuses: Sequence[DiseaseStatus],
    prototypes: Prototypes,
    noise_sigma: float,
    stream: RngStream,
    d: int,
) -> FeatureBundle:
    """Status prototype plus spherical Gaussian noise; Unmentioned and
    Uncertain fall back to the Negative prototype."""
    noise = stream.gauss_n(len(statuses) * d, noise_sigma) if noise_sigma > 0 else None
    vecs = []
    for idx, status in enumerate(statuses):
        pos, neg = prototypes[idx]
        base = pos if status is DiseaseStatus.POSITIVE else neg
        noisy = base if noise is None else map(add, base, noise[idx * d:(idx + 1) * d])
        vecs.append(tuple(noisy))
    return FeatureBundle(tuple(vecs))


def _sample_statuses(
    cfg: SynthConfig, schema: LabelSchema, stream: RngStream
) -> list[DiseaseStatus]:
    n_c = len(schema)
    statuses: list[Optional[DiseaseStatus]] = [None] * n_c
    # planted pairs first (ordered by exposure index), then the rest
    for pair in sorted(cfg.planted, key=lambda p: p.a):
        a_pos = stream.random() < cfg.marginals[pair.a]
        cond = pair.p_pos_given_pos if a_pos else pair.p_pos_given_neg
        b_pos = stream.random() < cond
        statuses[pair.a] = DiseaseStatus.POSITIVE if a_pos else DiseaseStatus.NEGATIVE
        statuses[pair.b] = DiseaseStatus.POSITIVE if b_pos else DiseaseStatus.NEGATIVE
    for idx in range(n_c):
        if statuses[idx] is None:
            pos = stream.random() < cfg.marginals[idx]
            statuses[idx] = DiseaseStatus.POSITIVE if pos else DiseaseStatus.NEGATIVE
    return statuses  # type: ignore[return-value]


def _attempt_record(
    cfg: SynthConfig,
    schema: LabelSchema,
    prototypes: Prototypes,
    attempt: int,
) -> Optional[Record]:
    stream = RngStream.for_label(cfg.seed, f"synth:{attempt}")
    statuses = _sample_statuses(cfg, schema, stream)
    mentioned = []
    for idx in range(len(schema)):
        p = (
            cfg.mention_positive
            if statuses[idx] is DiseaseStatus.POSITIVE
            else cfg.mention_negative
        )
        if stream.random() < p:
            mentioned.append(idx)
    if not mentioned:
        return None
    report = render_report(statuses, mentioned, cfg.templates, cfg.order_policy, stream)
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
    ids carry the attempt index, so streams and ids stay in lockstep."""
    validate_config(cfg, schema)
    prototypes = cfg.prototypes if cfg.prototypes is not None else auto_prototypes(schema)

    produced = attempt = 0
    max_attempts = 1000 + 50 * max(cfg.n_records, 1)
    while produced < cfg.n_records:
        if attempt >= max_attempts:
            raise ConfigInvalid(
                "n_records",
                "generation stalled: records almost never mention a disease",
            )
        record = _attempt_record(cfg, schema, prototypes, attempt)
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


def _parse_sections(lines: list[str]) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {
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
        sections[current].append((line_no, line))
    return sections


def _split_kv(line: str, line_no: int) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigInvalid(f"line {line_no}", f"expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


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
    sections = _parse_sections(read_lines(path))

    general = {"n_records": "1000", "seed": "0", "order_policy": "schema",
               "mention_positive": "1.0", "mention_negative": "0.6",
               "noise_sigma": "0.1", "prototypes": "auto"}
    for line_no, line in sections["general"]:
        key, value = _split_kv(line, line_no)
        if key not in general:
            raise ConfigInvalid(f"general.{key}", "unknown key")
        general[key] = value
    if general["prototypes"] != "auto":
        raise ConfigInvalid("general.prototypes",
                            "must be 'auto'; give other vectors in a [prototypes] section")

    marginals: dict[int, float] = {}
    for line_no, line in sections["marginals"]:
        key, value = _split_kv(line, line_no)
        try:
            marginals[_index_of(schema, key, f"marginals.{key}")] = float(value)
        except ValueError:
            raise ConfigInvalid(f"marginals.{key}", f"bad probability {value!r}")

    planted: list[PlantedPair] = []
    for line_no, line in sections["planted"]:
        key, value = _split_kv(line, line_no)
        if "->" not in key:
            raise ConfigInvalid(f"line {line_no}", "planted key must be 'A -> B'")
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
    for line_no, line in sections["templates"]:
        key, value = _split_kv(line, line_no)
        status_key = _status_key("templates", key, schema)
        if not value:
            raise ConfigInvalid(f"templates.{key}", "empty template")
        templates[status_key] = value

    prototypes: Optional[Prototypes] = None
    if sections["prototypes"]:
        raw: dict[tuple[int, DiseaseStatus], tuple[float, ...]] = {}
        for line_no, line in sections["prototypes"]:
            key, value = _split_kv(line, line_no)
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
