import dataclasses
import math

import pytest

from coaug import synth as synth_module
from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    default_schema,
    make_schema,
    validate_record,
    write_corpus,
    DEFAULT_DISEASES,
)
from coaug.errors import ConfigInvalid, MissingTemplate, UnknownDisease
from coaug.labeler import label_report
from coaug.rng import RngStream
from coaug.synth import (
    OrderPolicy,
    PlantedPair,
    SynthConfig,
    auto_prototypes,
    default_scenario_path,
    effective_marginals,
    parse_scenario,
    render_report,
    sample_features,
    strong_pair_scenario_path,
    synth_generate,
)

POS, NEG = DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE


def small_cfg(schema, templates, **overrides):
    base = dict(
        n_records=50,
        seed=1,
        marginals={i: 0.3 for i in range(len(schema))},
        templates=templates,
        planted=(),
        order_policy=OrderPolicy.SCHEMA,
        mention_positive=1.0,
        mention_negative=0.6,
        prototypes=None,
        noise_sigma=0.1,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_scenario_files_parse(schema):
    for path in (default_scenario_path(), strong_pair_scenario_path()):
        cfg = parse_scenario(path, schema)
        assert cfg.n_records == 20000
        assert len(cfg.planted) == 1
        assert cfg.planted[0].a == schema.index_of("Pneumothorax")
        assert cfg.planted[0].b == schema.index_of("Pleural Effusion")


def test_default_scenario_uses_reference_conditionals(schema):
    cfg = parse_scenario(default_scenario_path(), schema)
    assert cfg.planted[0].p_pos_given_pos == 0.463
    assert cfg.planted[0].p_pos_given_neg == 0.159


def test_generate_is_deterministic(tmp_path, schema, default_templates):
    cfg = small_cfg(schema, default_templates, n_records=120, seed=77)
    c1 = synth_generate(cfg, schema)
    c2 = synth_generate(cfg, schema)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(c1, str(p1))
    write_corpus(c2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_is_a_prefix_of_a_longer_run(schema, default_templates):
    cfg = small_cfg(schema, default_templates, n_records=150, seed=5)
    longer = synth_generate(dataclasses.replace(cfg, n_records=190), schema)
    assert synth_generate(cfg, schema).records == longer.records[:150]


def _count_attempts(monkeypatch) -> list[int]:
    calls: list[int] = []
    attempt_record = synth_module._attempt_record

    def counting(cfg, schema, prototypes, attempt):
        calls.append(attempt)
        return attempt_record(cfg, schema, prototypes, attempt)

    monkeypatch.setattr(synth_module, "_attempt_record", counting)
    return calls


def test_generate_stops_at_the_last_kept_attempt(monkeypatch, schema, default_templates):
    # about half the attempts mention nothing; 256 < n < 512
    cfg = small_cfg(schema, default_templates, n_records=300, seed=9,
                    marginals={i: 0.05 for i in range(14)}, mention_negative=0.0)
    calls = _count_attempts(monkeypatch)
    corpus = synth_generate(cfg, schema)
    last = int(corpus.records[-1].id[1:])
    assert len(corpus) == 300 < last + 1
    assert len(calls) == last + 1


def test_generated_records_validate(schema, default_templates):
    cfg = small_cfg(schema, default_templates, n_records=80, seed=3)
    corpus = synth_generate(cfg, schema)
    assert len(corpus) == 80
    for record in corpus:
        assert validate_record(record, schema) is None
        assert len(record.report) >= 1


def test_marginals_and_planted_conditionals_converge(default_templates):
    # law-of-large-numbers check at the documented +/-0.02 tolerance;
    # d=4 keeps the feature draws cheap at this scale
    schema = make_schema(DEFAULT_DISEASES, d=4)
    marginals = {i: 0.25 for i in range(14)}
    marginals[8] = 0.038
    del marginals[9]
    cfg = SynthConfig(
        n_records=50000,
        seed=42,
        marginals=marginals,
        templates=default_templates,
        planted=(PlantedPair(8, 9, 0.463, 0.159),),
        mention_positive=1.0,
        mention_negative=1.0,  # mention everything: labels mirror statuses
        noise_sigma=0.0,
    )
    corpus = synth_generate(cfg, schema)
    n = len(corpus)
    from coaug.labeler import default_matcher

    matcher = default_matcher(schema)
    pos = [0] * 14
    n_a = n_ab_pos = 0
    n_aneg = n_anegb = 0
    for record in corpus:
        labels = label_report(record.report, matcher)
        for i, status in enumerate(labels.statuses):
            pos[i] += status is POS
        if labels.statuses[8] is POS:
            n_a += 1
            n_ab_pos += labels.statuses[9] is POS
        else:
            n_aneg += 1
            n_anegb += labels.statuses[9] is POS
    # planted conditionals within the stated tolerance
    assert abs(n_ab_pos / n_a - 0.463) <= 0.02
    assert abs(n_anegb / n_aneg - 0.159) <= 0.02
    # every unplanted marginal within a 3-sigma binomial bound
    for i in range(14):
        if i in (8, 9):
            continue
        p = 0.25
        assert abs(pos[i] / n - p) <= 3 * math.sqrt(p * (1 - p) / n)
    induced = 0.038 * 0.463 + 0.962 * 0.159
    assert abs(pos[9] / n - induced) <= 3 * math.sqrt(induced * (1 - induced) / n)


def test_schema_order_renders_by_index(schema, default_templates):
    statuses = [NEG] * 14
    statuses[8] = NEG
    statuses[9] = POS
    report = render_report(
        statuses, [8, 9], default_templates, OrderPolicy.SCHEMA, RngStream(0)
    )
    assert report.texts() == [
        "No pneumothorax is seen.",
        "There is a small right pleural effusion.",
    ]


def test_render_missing_template():
    with pytest.raises(MissingTemplate):
        render_report([POS], [0], {}, OrderPolicy.SCHEMA, RngStream(0))


def test_random_order_symmetrizes(schema, default_templates):
    statuses = [POS] * 14
    a_first = 0
    n = 10000
    for i in range(n):
        stream = RngStream.for_record(99, f"rr:{i}")
        report = render_report(
            statuses, [8, 9], default_templates, OrderPolicy.RANDOM, stream
        )
        a_first += report.texts()[0] == default_templates[(8, POS)]
    asym = abs(2 * a_first / n - 1)
    assert asym <= 0.05


def test_features_exact_at_zero_noise(schema):
    protos = auto_prototypes(schema)
    statuses = [POS if i == 2 else NEG for i in range(14)]
    bundle = sample_features(statuses, protos, 0.0, RngStream(1), schema.d)
    assert bundle.per_disease[2].values == protos[2][0]
    assert bundle.per_disease[3].values == protos[3][1]
    assert not any(v.masked for v in bundle.per_disease)


def test_features_differ_across_stream_positions(schema):
    protos = auto_prototypes(schema)
    statuses = [NEG] * 14
    stream = RngStream(1)
    b1 = sample_features(statuses, protos, 0.1, stream, schema.d)
    b2 = sample_features(statuses, protos, 0.1, stream, schema.d)
    assert b1 != b2


def test_nearest_prototype_classification_off_noise(schema):
    # sigma 0.1 against unit-separated prototypes: error rate is
    # Phi(-5) per coordinate sign, far below the 1% budget
    protos = auto_prototypes(schema)
    n = 10000
    wrong = 0
    total = 0
    for i in range(n // 14):
        stream = RngStream.for_record(7, f"np:{i}")
        statuses = [POS if stream.random() < 0.5 else NEG for _ in range(14)]
        bundle = sample_features(statuses, protos, 0.1, stream, schema.d)
        for idx in range(14):
            vec = bundle.per_disease[idx].values
            d_pos = sum((a - b) ** 2 for a, b in zip(vec, protos[idx][0]))
            d_neg = sum((a - b) ** 2 for a, b in zip(vec, protos[idx][1]))
            predicted = POS if d_pos < d_neg else NEG
            wrong += predicted is not statuses[idx]
            total += 1
    assert wrong / total <= 0.01


def test_effective_marginals_replace_planted_outcome(schema, default_templates):
    cfg = small_cfg(
        schema,
        default_templates,
        marginals={i: 0.5 for i in range(14) if i != 9},
        planted=(PlantedPair(8, 9, 0.9, 0.1),),
    )
    eff = effective_marginals(cfg)
    assert eff[9] == pytest.approx(0.5 * 0.9 + 0.5 * 0.1)


def test_config_rejects_disease_in_two_pairs(schema, default_templates):
    with pytest.raises(ConfigInvalid):
        small_cfg(
            schema,
            default_templates,
            planted=(PlantedPair(8, 9, 0.5, 0.5), PlantedPair(9, 1, 0.5, 0.5)),
        ) and synth_generate(
            small_cfg(
                schema,
                default_templates,
                planted=(PlantedPair(8, 9, 0.5, 0.5), PlantedPair(9, 1, 0.5, 0.5)),
            ),
            schema,
        )


def test_config_rejects_bad_probability(schema, default_templates):
    cfg = small_cfg(schema, default_templates, mention_negative=1.2)
    with pytest.raises(ConfigInvalid) as err:
        synth_generate(cfg, schema)
    assert "mention_negative" in str(err.value)


def test_config_requires_all_marginals(schema, default_templates):
    cfg = small_cfg(schema, default_templates, marginals={0: 0.5})
    with pytest.raises(ConfigInvalid):
        synth_generate(cfg, schema)


def test_generation_stalls_cleanly(schema, default_templates):
    cfg = small_cfg(
        schema,
        default_templates,
        n_records=5,
        marginals={i: 0.0 for i in range(14)},
        mention_negative=0.0,
    )
    with pytest.raises(ConfigInvalid):
        synth_generate(cfg, schema)


def test_generation_stalls_after_exactly_max_attempts(monkeypatch, schema, default_templates):
    cfg = small_cfg(
        schema,
        default_templates,
        n_records=5,
        marginals={i: 0.0 for i in range(14)},
        mention_negative=0.0,
    )
    calls = _count_attempts(monkeypatch)
    with pytest.raises(ConfigInvalid, match="stalled"):
        synth_generate(cfg, schema)
    assert len(calls) == 1000 + 50 * 5


def test_scenario_unknown_disease(tmp_path, schema):
    path = tmp_path / "bad.cfg"
    path.write_text("[marginals]\nNessie = 0.5\n")
    with pytest.raises(UnknownDisease):
        parse_scenario(str(path), schema)


def test_labels_mirror_mentions(schema, matcher, default_templates):
    # the shipped templates and lexicon agree: labeling a rendered report
    # recovers exactly the mentioned statuses
    cfg = small_cfg(schema, default_templates, n_records=60, seed=10)
    corpus = synth_generate(cfg, schema)
    for record in corpus:
        labels = label_report(record.report, matcher)
        rendered = {}
        for text in record.report.texts():
            for (idx, status), template in default_templates.items():
                if template == text:
                    rendered[idx] = status
        assert {i: s for i, s in enumerate(labels.statuses) if s is not DiseaseStatus.UNMENTIONED} == rendered


def test_render_report_empty_when_nothing_mentioned(schema, default_templates):
    report = render_report([NEG] * 14, [], default_templates, OrderPolicy.SCHEMA, RngStream(0))
    assert len(report) == 0
