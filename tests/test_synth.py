import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coaug import synth as synth_module
from coaug import corpus as corpus_module
from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    FeatureBundle,
    Provenance,
    Record,
    Report,
    default_schema,
    make_schema,
    record_to_line,
    validate_record,
    write_corpus,
)
from coaug.errors import ConfigInvalid, MissingTemplate
from coaug.labeler import label_report
from coaug.rng import RngStream
from coaug.synth import (
    OrderPolicy,
    PlantedPair,
    SynthConfig,
    auto_prototypes,
    default_scenario_path,
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

    def counting(cfg, schema, prototypes, sentences, attempt):
        calls.append(attempt)
        return attempt_record(cfg, schema, prototypes, sentences, attempt)

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
    schema = default_schema(d=4)
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
    assert bundle.vectors[2] == protos[2][0]
    assert bundle.vectors[3] == protos[3][1]
    assert not bundle.masked


def _per_call_sample_features(statuses, prototypes, noise_sigma, stream, d):
    """sample_features as one gauss() call per float: the reference for
    the fused draw."""
    vecs = []
    for idx, status in enumerate(statuses):
        pos, neg = prototypes[idx]
        base = pos if status is DiseaseStatus.POSITIVE else neg
        if noise_sigma > 0:
            values = tuple(base[j] + stream.gauss(0.0, noise_sigma) for j in range(d))
        else:
            values = tuple(base)
        vecs.append(values)
    return FeatureBundle(tuple(vecs))


@pytest.mark.parametrize("d, noise_sigma", [(3, 0.1), (16, 0.1), (16, 0.0)])
def test_generate_matches_per_call_feature_draws(monkeypatch, default_templates, d, noise_sigma):
    # d=3: a Box-Muller pair spans two vectors of the bundle
    schema = default_schema(d=d)
    cfg = small_cfg(schema, default_templates, n_records=60, noise_sigma=noise_sigma)
    fused = synth_generate(cfg, schema)
    monkeypatch.setattr(synth_module, "sample_features", _per_call_sample_features)
    reference = synth_generate(cfg, schema)
    assert fused == reference
    for a, b in zip(fused, reference):
        assert a.features.texts == b.features.texts


def _hex_rows(vectors):
    return [[x.hex() for x in vec] for vec in vectors]


_prototype_values = st.one_of(
    st.floats(-1e6, 1e6), st.floats(-1e-3, 1e-3),
    st.sampled_from([-0.0, 2.0, 1e-05, 1.5e10, 1.5e16, 5e-324, 1e308, -1e308]))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_prototype_values, min_size=1, max_size=8), d=st.integers(1, 4),
       n_c=st.integers(1, 4), positive=st.lists(st.booleans(), min_size=1, max_size=4),
       sigma=st.one_of(st.just(0.0), st.floats(1e-300, 1e308)), state=st.integers(0, 2 ** 64 - 1))
@example(values=[2.0, -0.0], d=1, n_c=2, positive=[True], sigma=0.0, state=1)  # "2", "-0"
@example(values=[1e-05, 1.5e16], d=2, n_c=2, positive=[False], sigma=0.0, state=2)  # exponents
@example(values=[1.5e10], d=2, n_c=1, positive=[True], sigma=0.0, state=2)  # repr 15000000000.0
@example(values=[5e-324, 0.5], d=2, n_c=1, positive=[True], sigma=1e-320, state=3)  # subnormal
@example(values=[1e308], d=1, n_c=3, positive=[False], sigma=1e308, state=4)  # inf
@example(values=[0.5, -0.5, 0.25], d=3, n_c=3, positive=[True, False], sigma=0.1, state=5)
def test_flat_features_equal_the_per_call_vector_bundle(values, d, n_c, positive, sigma, state):
    # prototypes and statuses cycle through the drawn values and flags
    flat = [values[k % len(values)] for k in range(2 * d * n_c)]
    protos = {i: (tuple(flat[2 * i * d:(2 * i + 1) * d]),
                  tuple(flat[(2 * i + 1) * d:(2 * i + 2) * d])) for i in range(n_c)}
    statuses = [POS if positive[i % len(positive)] else NEG for i in range(n_c)]
    stream, reference_stream = RngStream(state), RngStream(state)
    bundle = sample_features(statuses, protos, sigma, stream, d)
    reference = _per_call_sample_features(statuses, protos, sigma, reference_stream, d)
    assert stream.state == reference_stream.state
    assert bundle.texts == reference.texts
    assert _hex_rows(bundle.vectors) == _hex_rows(reference.vectors)
    assert len(bundle) == len(reference) == n_c
    if not any(math.isnan(x) for vec in reference.vectors for x in vec):
        assert bundle == reference
        assert hash(bundle) == hash(reference)
    twin, reference_twin = bundle.mask({0}), reference.mask({0})
    assert twin.texts == reference_twin.texts
    assert _hex_rows(twin.vectors) == _hex_rows(reference_twin.vectors)


def test_overflowing_features_write_infinity():
    # 1e308 + 1e308 * z leaves the float range for about half the draws
    protos = {0: ((1e308,), (1e308,))}
    texts = [sample_features([NEG], protos, 1e308, RngStream(state), 1).texts[0]
             for state in range(40)]
    assert '{"vec":[Infinity],"masked":false}' in texts


def test_mask_and_record_to_line_never_parse_a_synth_bundle(monkeypatch, schema):
    def refuse(*args):
        raise AssertionError("vectors parsed")

    monkeypatch.setattr(corpus_module, "_parse_vectors", refuse)
    statuses = [POS if i % 3 == 0 else NEG for i in range(14)]
    bundle = sample_features(statuses, auto_prototypes(schema), 0.1, RngStream(3), schema.d)
    twin = bundle.mask({2, 5}).mask({7})
    for features, provenance, source in ((bundle, Provenance.ORIGINAL, None),
                                         (twin, Provenance.COUNTERFACTUAL, "r")):
        record = Record("r" if source is None else "r#cf", Report.from_texts(["A."]),
                        features, None, provenance, source)
        assert record_to_line(record, schema).count('"masked":true') == len(features.masked)
    assert validate_record(Record("r", Report.from_texts(["A."]), bundle), schema) is None


def _per_call_attempt_record(cfg, schema, prototypes, sentences, attempt):
    """_attempt_record with one random() call per status and per mention
    draw: the reference for the packed draws."""
    stream = RngStream.for_label(cfg.seed, f"synth:{attempt}")
    statuses = [None] * len(schema)
    for pair in sorted(cfg.planted, key=lambda p: p.a):
        a_pos = stream.random() < cfg.marginals[pair.a]
        b_pos = stream.random() < (pair.p_pos_given_pos if a_pos else pair.p_pos_given_neg)
        statuses[pair.a] = POS if a_pos else NEG
        statuses[pair.b] = POS if b_pos else NEG
    for idx in range(len(schema)):
        if statuses[idx] is None:
            statuses[idx] = POS if stream.random() < cfg.marginals[idx] else NEG
    mentioned = []
    for idx in range(len(schema)):
        p = cfg.mention_positive if statuses[idx] is POS else cfg.mention_negative
        if stream.random() < p:
            mentioned.append(idx)
    if not mentioned:
        return None
    report = render_report(statuses, mentioned, sentences, cfg.order_policy, stream)
    features = sample_features(statuses, prototypes, cfg.noise_sigma, stream, schema.d)
    return Record(f"r{attempt:06d}", report, features)


@pytest.mark.parametrize("overrides", [
    {},
    {"order_policy": OrderPolicy.RANDOM},
    # two pairs, the second listed with the larger exposure index
    {"planted": (PlantedPair(9, 2, 0.9, 0.05), PlantedPair(3, 12, 0.7, 0.2)),
     "order_policy": OrderPolicy.RANDOM},
    {"mention_negative": 0.0, "mention_positive": 1.0},
    {"mention_negative": 1.0, "mention_positive": 0.0},
    # most attempts mention nothing
    {"marginals": {i: 0.02 for i in range(14)}, "mention_negative": 0.03},
], ids=["schema", "random", "planted", "mention-0-1", "mention-1-0", "mostly-silent"])
def test_generate_matches_per_call_status_and_mention_draws(
        monkeypatch, schema, default_templates, overrides):
    cfg = small_cfg(schema, default_templates, n_records=80, seed=21, **overrides)
    packed = synth_generate(cfg, schema)
    monkeypatch.setattr(synth_module, "_attempt_record", _per_call_attempt_record)
    reference = synth_generate(cfg, schema)
    assert packed == reference
    assert [r.features.texts for r in packed] == [r.features.texts for r in reference]
    if "marginals" in overrides:
        assert int(packed.records[-1].id[1:]) > 1.5 * len(packed)


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
            vec = bundle.vectors[idx]
            d_pos = sum((a - b) ** 2 for a, b in zip(vec, protos[idx][0]))
            d_neg = sum((a - b) ** 2 for a, b in zip(vec, protos[idx][1]))
            predicted = POS if d_pos < d_neg else NEG
            wrong += predicted is not statuses[idx]
            total += 1
    assert wrong / total <= 0.01


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


@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
def test_config_rejects_noise_sigma_that_is_not_finite_and_nonnegative(
        schema, default_templates, sigma):
    cfg = small_cfg(schema, default_templates, noise_sigma=sigma)
    with pytest.raises(ConfigInvalid, match="noise_sigma"):
        synth_generate(cfg, schema)


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_scenario_rejects_non_finite_noise_sigma(tmp_path, schema, sigma):
    text = Path(default_scenario_path()).read_text(encoding="utf-8")
    assert "noise_sigma = 0.1" in text
    path = tmp_path / "sigma.cfg"
    path.write_text(text.replace("noise_sigma = 0.1", f"noise_sigma = {sigma}"))
    with pytest.raises(ConfigInvalid, match="noise_sigma"):
        parse_scenario(str(path), schema)


def test_config_requires_all_marginals(schema, default_templates):
    cfg = small_cfg(schema, default_templates, marginals={0: 0.5})
    with pytest.raises(ConfigInvalid):
        synth_generate(cfg, schema)


def test_records_rendering_one_template_share_its_sentence(schema, default_templates):
    # one Sentence per template and synth call, not one per rendered sentence
    records = synth_generate(small_cfg(schema, default_templates, n_records=40), schema).records
    by_text: dict = {}
    for sentence in (s for r in records for s in r.report.sentences):
        assert by_text.setdefault(sentence.text, sentence) is sentence
    assert len(by_text) < sum(len(r.report) for r in records)
    again = synth_generate(small_cfg(schema, default_templates, n_records=40), schema).records
    assert again == records
    assert again[0].report.sentences[0] is not records[0].report.sentences[0]


def test_config_rejects_a_blank_template(schema, default_templates):
    templates = {**default_templates, (3, POS): "   "}
    with pytest.raises(ConfigInvalid, match="empty template"):
        synth_generate(small_cfg(schema, templates), schema)


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
    # each names the file, its section and key, as the scenario's other field errors do
    path = tmp_path / "bad.cfg"
    for section, line in [("marginals", "Nessie = 0.5"),
                          ("planted", "Edema -> Nessie = 0.5, 0.1"),
                          ("planted", "Nessie -> Edema = 0.5, 0.1"),
                          ("templates", "Nessie | positive = There is a monster."),
                          ("prototypes", "Nessie | negative = 0.0")]:
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigInvalid, match="unknown disease 'Nessie'") as err:
            parse_scenario(str(path), schema)
        assert err.value.field_path == f"{path}: {section}.{key}"


@pytest.mark.parametrize("key", ["Edema", "Edema | maybe", "Edema | uncertain"])
def test_scenario_template_key_needs_positive_or_negative(tmp_path, schema, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[templates]\n{key} = There is edema.\n")
    with pytest.raises(ConfigInvalid, match=r"bad status .*'disease \| positive'") as err:
        parse_scenario(str(path), schema)
    assert err.value.field_path == f"{path}: templates.{key}"


def test_scenario_line_errors_name_the_file_and_stay_config_errors(tmp_path, schema):
    path = tmp_path / "bad.cfg"
    path.write_text("[general]\nseed = 3\n[planted]\nEdema = 0.5, 0.1\n")
    with pytest.raises(ConfigInvalid, match=r"line 4: planted key must be 'A -> B'$") as err:
        parse_scenario(str(path), schema)
    assert err.value.field_path == f"{path}: line 4"


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


# ---------------------------------------------------------------------------
# [prototypes] section and unknown sections


def _prototype_pair(i, d):
    # binary fractions, exact under the 9-digit quantization
    pos = tuple(0.5 * i + 0.25 * k for k in range(d))
    neg = tuple(-0.5 * i - 0.125 * k for k in range(d))
    return pos, neg


def _prototype_lines(schema):
    """[prototypes] lines for both statuses of every disease."""
    return [f"{name} | {status} = " + ", ".join(map(repr, vec))
            for index, name in enumerate(schema.names)
            for status, vec in zip(("positive", "negative"),
                                   _prototype_pair(index, schema.d))]


def _scenario_with_prototypes(lines, header="[prototypes]"):
    """The shipped default scenario at zero noise plus *lines* under *header*."""
    text = Path(default_scenario_path()).read_text(encoding="utf-8")
    text = text.replace("noise_sigma = 0.1", "noise_sigma = 0")
    return text + f"\n{header}\n" + "\n".join(lines) + "\n"


def test_scenario_prototypes_are_the_features_at_zero_noise(tmp_path, schema, matcher):
    path = tmp_path / "protos.cfg"
    path.write_text(_scenario_with_prototypes(_prototype_lines(schema)))
    cfg = dataclasses.replace(parse_scenario(str(path), schema), n_records=40)
    assert cfg.noise_sigma == 0.0
    assert cfg.prototypes == {i: _prototype_pair(i, schema.d) for i in range(len(schema))}
    for record in synth_generate(cfg, schema):
        # Positive diseases are always mentioned, so the labels give the status
        statuses = label_report(record.report, matcher).statuses
        for i, vec in enumerate(record.features.vectors):
            pos, neg = _prototype_pair(i, schema.d)
            assert vec == (pos if statuses[i] is DiseaseStatus.POSITIVE else neg)


@pytest.mark.parametrize("edit, message", [
    (lambda ls: [ln for ln in ls if not ln.startswith("Edema | negative")],
     "need both positive and negative"),
    (lambda ls: [ln.replace("Edema | positive", "Edema | maybe") for ln in ls],
     "bad status"),
    (lambda ls: [ln.replace("Edema | positive = 2.0,", "Edema | positive = 2.0, x,")
                 for ln in ls], "bad vector"),
    (lambda ls: [ln + ", 1.0" if ln.startswith("Edema | positive") else ln for ln in ls],
     "length 16"),
    (lambda ls: [ln.replace("Edema | positive = 2.0,", "Edema | positive = nan,")
                 for ln in ls], "finite"),
    (lambda ls: [ln.replace("Edema | negative = -2.0,", "Edema | negative = -inf,")
                 for ln in ls], "finite"),
], ids=["one-status", "bad-status", "non-numeric", "wrong-length", "nan", "inf"])
def test_scenario_prototypes_reject_bad_lines(tmp_path, schema, edit, message):
    path = tmp_path / "bad.cfg"
    path.write_text(_scenario_with_prototypes(edit(_prototype_lines(schema))))
    with pytest.raises(ConfigInvalid, match=message):
        parse_scenario(str(path), schema)


def test_scenario_unknown_section_is_rejected(tmp_path, schema):
    # a misspelled [prototypes] must not fall back to the auto prototypes
    path = tmp_path / "typo.cfg"
    path.write_text(_scenario_with_prototypes(_prototype_lines(schema), header="[prototype]"))
    with pytest.raises(ConfigInvalid, match=r"unknown section \[prototype\]"):
        parse_scenario(str(path), schema)


def test_scenario_general_prototypes_must_be_auto_even_with_a_section(tmp_path, schema):
    # the [prototypes] section gives the vectors; [general] only says "auto"
    text = _scenario_with_prototypes(_prototype_lines(schema))
    assert "prototypes = auto" in text
    path = tmp_path / "bogus.cfg"
    path.write_text(text.replace("prototypes = auto", "prototypes = bogus"))
    with pytest.raises(ConfigInvalid, match="general.prototypes"):
        parse_scenario(str(path), schema)
