import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    FeatureBundle,
    FeatureVector,
    Provenance,
    Record,
    Report,
    ReportLabelVector,
    Sentence,
    default_schema,
    make_schema,
    masked_vector,
    read_corpus,
    read_schema,
    validate_record,
    write_corpus,
    write_schema,
)
from coaug.errors import MalformedRecord, MissingFile, SchemaMismatch

from conftest import make_record


def test_empty_file_gives_empty_corpus(tmp_path, schema):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    corpus = read_corpus(str(path), schema)
    assert len(corpus) == 0


def test_round_trip_preserves_records(tmp_path, schema):
    labels = ReportLabelVector(
        tuple(
            DiseaseStatus.POSITIVE if i == 9 else DiseaseStatus.UNMENTIONED
            for i in range(len(schema))
        )
    )
    records = [
        make_record("a", ["One sentence.", "Two sentences."], schema, value=0.125),
        make_record("b", ["Only one."], schema, labels=labels),
        Record(
            "a#cf",
            Report.from_texts(["Two sentences."]),
            FeatureBundle(
                tuple(
                    masked_vector(schema.d) if i == 9 else FeatureVector((-0.5,) * schema.d)
                    for i in range(len(schema))
                )
            ),
            None,
            Provenance.COUNTERFACTUAL,
            "a",
        ),
    ]
    corpus = Corpus(schema, tuple(records))
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, str(path))
    back = read_corpus(str(path))
    assert back == corpus  # field-for-field, sidecar schema included


def test_write_is_deterministic(tmp_path, schema):
    corpus = Corpus(schema, (make_record("a", ["Some sentence."], schema, value=1 / 3),))
    p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    write_corpus(corpus, str(p1))
    write_corpus(corpus, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_floats_quantized_to_nine_significant_digits():
    vec = FeatureVector((0.123456789123456789, 1.0 / 3.0))
    assert vec.values == (0.123456789, 0.333333333)


def test_schema_mismatch_on_wrong_bundle_size(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    obj = {
        "id": "x",
        "report": ["A sentence."],
        "features": [{"vec": [0.0] * schema.d, "masked": False}] * 13,
        "provenance": "Original",
    }
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(SchemaMismatch):
        read_corpus(str(path), schema)


def test_schema_mismatch_on_wrong_dimension(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    obj = {
        "id": "x",
        "report": ["A sentence."],
        "features": [{"vec": [0.0] * 3, "masked": False}] * 14,
        "provenance": "Original",
    }
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(SchemaMismatch):
        read_corpus(str(path), schema)


def test_malformed_line_reports_line_number(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    good = json.dumps({"id": "ok", "report": ["Fine."], "provenance": "Original"})
    path.write_text(good + "\n{broken\n")
    with pytest.raises(MalformedRecord) as err:
        read_corpus(str(path), schema)
    assert err.value.line == 2


def test_duplicate_id_rejected(tmp_path, schema):
    line = json.dumps({"id": "dup", "report": ["Fine."], "provenance": "Original"})
    path = tmp_path / "c.jsonl"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(MalformedRecord):
        read_corpus(str(path), schema)


def test_missing_file(schema):
    with pytest.raises(MissingFile):
        read_corpus("/nonexistent/corpus.jsonl", schema)


def test_schema_sidecar_round_trip(tmp_path):
    schema = make_schema(["A", "B", "C"], d=4)
    path = tmp_path / "s.schema"
    write_schema(schema, str(path))
    assert read_schema(str(path)) == schema


def test_schema_file_with_duplicate_names_is_a_data_error(tmp_path):
    path = tmp_path / "dup.schema"
    path.write_text("d=4\nA\nB\nA\n")
    with pytest.raises(SchemaMismatch):
        read_schema(str(path))


def test_given_schema_must_match_the_sidecar(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    write_corpus(Corpus(schema, (make_record("r", ["No pneumothorax."], schema),)), str(path))
    assert read_corpus(str(path), schema).schema == schema
    reversed_schema = make_schema(reversed(schema.names()), schema.d)
    with pytest.raises(SchemaMismatch):
        read_corpus(str(path), reversed_schema)


def test_validate_record_ok(schema):
    record = make_record("r", ["First sentence.", "Second sentence."], schema)
    assert validate_record(record, schema) is None


def test_validate_record_mask_nonzero(schema):
    bundle = FeatureBundle(
        tuple(
            FeatureVector((0.5,) * schema.d, masked=(i == 0))
            for i in range(len(schema))
        )
    )
    record = Record("r", Report.from_texts(["Sentence one."]), bundle)
    violation = validate_record(record, schema)
    assert violation is not None and violation.code == "MaskNonZero"


def test_validate_record_orphan_counterfactual(schema):
    record = Record(
        "r#cf",
        Report.from_texts(["Sentence."]),
        provenance=Provenance.COUNTERFACTUAL,
        source_id=None,
    )
    violation = validate_record(record, schema)
    assert violation is not None and violation.code == "OrphanCounterfactual"


def test_validate_record_source_on_original(schema):
    record = Record("r", Report.from_texts(["Sentence."]), source_id="other")
    violation = validate_record(record, schema)
    assert violation is not None and violation.code == "SourceOnOriginal"


def test_validate_record_empty_original_report(schema):
    record = Record("r", Report())
    violation = validate_record(record, schema)
    assert violation is not None and violation.code == "EmptyOriginalReport"


def test_counterfactual_may_have_empty_report(schema):
    record = Record("r#cf", Report(), provenance=Provenance.COUNTERFACTUAL, source_id="r")
    assert validate_record(record, schema) is None


def test_blank_sentence_is_rejected():
    with pytest.raises(ValueError):
        Sentence("   ")


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
    ),
    masked=st.booleans(),
)
def test_masked_vectors_are_all_zero_property(values, masked):
    schema = make_schema(["Only"], d=len(values))
    vec = masked_vector(len(values)) if masked else FeatureVector(tuple(values))
    record = Record(
        "r", Report.from_texts(["Sentence."]), FeatureBundle((vec,))
    )
    violation = validate_record(record, schema)
    assert violation is None
    if vec.masked:
        assert all(v == 0.0 for v in vec.values)


@settings(max_examples=50, deadline=None)
@given(
    payload=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=16,
        max_size=16,
    )
)
def test_round_trip_random_features(tmp_path_factory, payload, schema):
    record = Record(
        "r",
        Report.from_texts(["A sentence."]),
        FeatureBundle(tuple(FeatureVector(tuple(payload)) for _ in range(len(schema)))),
    )
    corpus = Corpus(schema, (record,))
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    write_corpus(corpus, str(path))
    assert read_corpus(str(path)) == corpus


def test_masked_features_survive_round_trip(tmp_path, schema, matcher):
    from coaug.augment import AugmentationConfig, css_augment
    from coaug.rng import RngStream

    record = make_record(
        "src", ["No pneumothorax.", "Small right pleural effusion."], schema
    )
    out = css_augment(record, matcher, RngStream.for_record(3, "src"), AugmentationConfig())
    corpus = Corpus(schema, (record, out.record))
    path = tmp_path / "cf.jsonl"
    write_corpus(corpus, str(path))
    back = read_corpus(str(path))
    twin = back.records[1]
    masked = [v for v in twin.features.per_disease if v.masked]
    assert masked and all(set(v.values) == {0.0} for v in masked)
    assert back == corpus
