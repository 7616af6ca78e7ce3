import json
import math

import pytest
from hypothesis import example, given, settings
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
    record_to_line,
    validate_record,
    write_corpus,
    write_schema,
)
from coaug.errors import MalformedRecord, MissingFile, SchemaMismatch, UnknownDisease

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


@pytest.mark.parametrize("entry", [
    {"vec": [0.0] * 16, "masked": "false"},
    {"vec": [0.0] * 16, "masked": 0},
    {"vec": [0.0] * 16, "masked": None},
    {"vec": [True] + [0.0] * 15, "masked": False},
], ids=["masked-string", "masked-int", "masked-null", "bool-in-vec"])
def test_feature_entry_with_non_boolean_mask_or_boolean_value_is_malformed(
        tmp_path, schema, entry):
    # json's true/false are not numbers, and "false" is not a boolean
    path = tmp_path / "c.jsonl"
    good = {"vec": [0.0] * schema.d, "masked": False}
    obj = {"id": "x", "report": ["A sentence."],
           "features": [entry] + [good] * (len(schema) - 1), "provenance": "Original"}
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedRecord) as err:
        read_corpus(str(path), schema)
    assert err.value.line == 1


def test_feature_entry_without_a_mask_reads_as_unmasked(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    obj = {"id": "x", "report": ["A sentence."],
           "features": [{"vec": [0.5] * schema.d}] * len(schema), "provenance": "Original"}
    path.write_text(json.dumps(obj) + "\n")
    (record,) = read_corpus(str(path), schema)
    assert not any(v.masked for v in record.features.per_disease)


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


def test_bad_feature_dimension_reports_its_line(tmp_path):
    path = tmp_path / "bad.schema"
    path.write_text("\n\nd=x\nEdema\n")
    with pytest.raises(MalformedRecord, match="bad feature dimension") as err:
        read_schema(str(path))
    assert err.value.line == 3


def test_index_of_an_unknown_name_raises_unknown_disease(schema):
    assert schema.index_of("Edema") == schema.names.index("Edema")
    with pytest.raises(UnknownDisease):
        schema.index_of("Nope")


def test_labels_naming_a_disease_outside_the_schema_are_a_mismatch(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    good = json.dumps({"id": "a", "report": ["Fine."], "labels": {"Edema": "Positive"},
                       "provenance": "Original"})
    bad = json.dumps({"id": "b", "report": ["Fine."], "labels": {"Nessie": "Positive"},
                      "provenance": "Original"})
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(SchemaMismatch, match=r"line 2: unknown disease name 'Nessie'"):
        read_corpus(str(path), schema)


def test_given_schema_must_match_the_sidecar(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    write_corpus(Corpus(schema, (make_record("r", ["No pneumothorax."], schema),)), str(path))
    assert read_corpus(str(path), schema).schema == schema
    reversed_schema = make_schema(reversed(schema.names), schema.d)
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
    from coaug.augment import css_augment
    from coaug.rng import RngStream

    record = make_record(
        "src", ["No pneumothorax.", "Small right pleural effusion."], schema
    )
    out = css_augment(record, matcher, RngStream.for_record(3, "src"))
    corpus = Corpus(schema, (record, out.record))
    path = tmp_path / "cf.jsonl"
    write_corpus(corpus, str(path))
    back = read_corpus(str(path))
    twin = back.records[1]
    masked = [v for v in twin.features.per_disease if v.masked]
    assert masked and all(set(v.values) == {0.0} for v in masked)
    assert back == corpus


def test_masked_vector_is_interned_and_its_text_is_repr_zeros(schema, matcher):
    from coaug.augment import css_augment
    from coaug.rng import RngStream

    assert masked_vector(4) is masked_vector(4)
    assert masked_vector(4).to_json() == '{"vec":[0.0,0.0,0.0,0.0],"masked":true}'
    record = make_record(
        "src", ["No pneumothorax.", "Small right pleural effusion."], schema
    )
    twin = css_augment(record, matcher, RngStream.for_record(3, "src")).record
    masked = [v for v in twin.features.per_disease if v.masked]
    assert masked and all(v is masked_vector(schema.d) for v in masked)


# the vector encoder before the kept .9g texts: float.__repr__, json.dumps for nan/inf
def _repr_vector_json(vec):
    body = ",".join(map(float.__repr__, vec.values))
    if "n" in body:
        return json.dumps({"vec": list(vec.values), "masked": vec.masked},
                          ensure_ascii=False, separators=(",", ":"))
    return f'{{"vec":[{body}],"masked":{"true" if vec.masked else "false"}}}'


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), st.floats(-1e9, 1e9),
                                 st.floats(-1e-3, 1e-3)), max_size=20),
       masked=st.booleans())
@example(values=[1e-4], masked=False)
@example(values=[9.99999999e-5], masked=False)
@example(values=[123456789.0], masked=False)
@example(values=[999999999.5], masked=False)
@example(values=[0.0], masked=True)
@example(values=[-0.0], masked=False)
@example(values=[1.0, 0.5], masked=False)
@example(values=[5e-324], masked=False)
@example(values=[math.nan, 0.25], masked=False)
@example(values=[math.inf, -math.inf], masked=False)
@example(values=[-0.000123456789, 12345678.9], masked=False)
def test_kept_vector_text_equals_the_repr_encoder(values, masked):
    vec = FeatureVector(tuple(values), masked)
    assert vec.to_json() == _repr_vector_json(vec)


# ---------------------------------------------------------------------------
# the encoder before per-vector JSON texts: the reference for record_to_line


def _old_quantize(v):
    return float(format(float(v), ".9g"))


def _old_record_to_line(record, schema):
    obj = {"id": record.id, "report": record.report.texts()}
    if record.features is not None:
        obj["features"] = [
            {"vec": list(v.values), "masked": v.masked}
            for v in record.features.per_disease
        ]
    if record.labels is not None:
        obj["labels"] = {
            name: record.labels.statuses[index].value
            for index, name in enumerate(schema.names)
            if record.labels.statuses[index] is not DiseaseStatus.UNMENTIONED
        }
    obj["provenance"] = record.provenance.value
    if record.source_id is not None:
        obj["source_id"] = record.source_id
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


_feature_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 1e16, 5e-324, -2.2250738585072014e-308, math.nan,
                     math.inf, -math.inf]),
    st.integers(-(2 ** 70), 2 ** 70),  # json reads 3 and 1e2 as int and float
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(
    raw=st.lists(st.lists(_feature_values, min_size=1, max_size=6), min_size=1, max_size=3),
    masked=st.lists(st.booleans(), min_size=3, max_size=3),
    rid=st.text(min_size=1, max_size=8),
    texts=st.lists(st.text(min_size=1, max_size=12).filter(str.strip), max_size=3),
    statuses=st.none() | st.lists(st.sampled_from(DiseaseStatus), min_size=3, max_size=3),
    source_id=st.none() | st.text(max_size=5),
    with_features=st.booleans(),
)
def test_record_to_line_matches_the_whole_record_encoder(
        raw, masked, rid, texts, statuses, source_id, with_features):
    schema = make_schema(["A", "B", "C"], d=1)
    vecs = tuple(FeatureVector(tuple(v), m) for v, m in zip(raw, masked))
    for vec, values in zip(vecs, raw):
        assert [x.hex() for x in vec.values] == [_old_quantize(x).hex() for x in values]
    record = Record(
        rid,
        Report.from_texts(texts),
        FeatureBundle(vecs) if with_features else None,
        ReportLabelVector(tuple(statuses)) if statuses is not None else None,
        Provenance.ORIGINAL if source_id is None else Provenance.COUNTERFACTUAL,
        source_id,
    )
    assert record_to_line(record, schema) == _old_record_to_line(record, schema)
    # a second encoding reuses each vector's kept text
    assert record_to_line(record, schema) == _old_record_to_line(record, schema)


def test_non_finite_features_read_and_write_back_unchanged(tmp_path):
    schema = make_schema(["A", "B"], d=3)
    path = tmp_path / "c.jsonl"
    write_schema(schema, str(path) + ".schema")
    path.write_text(
        '{"id":"a","report":["One."],"features":[{"vec":[NaN,Infinity,-Infinity],'
        '"masked":false},{"vec":[-0.0,1e16,5e-324],"masked":false}],'
        '"provenance":"Original"}\n'
        '{"id":"b","report":["Two."],"features":[{"vec":[1,2.5,-3],"masked":false},'
        '{"vec":[0,0,0],"masked":true}],"provenance":"Original"}\n',
        encoding="utf-8",
    )
    corpus = read_corpus(str(path))
    expected = "".join(_old_record_to_line(r, schema) + "\n" for r in corpus)
    assert "NaN,Infinity,-Infinity" in expected
    out = tmp_path / "out.jsonl"
    write_corpus(corpus, str(out))
    assert out.read_text(encoding="utf-8") == expected
    write_corpus(read_corpus(str(out)), str(out))
    assert out.read_text(encoding="utf-8") == expected


def test_failed_write_leaves_the_target_and_no_temporary_file(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    good = [make_record(f"r{i}", ["A sentence."], schema) for i in range(500)]
    write_corpus(Corpus(schema, tuple(good[:3])), str(path))
    before = path.read_bytes()
    # not a DiseaseStatus: encoding this record raises after the 500
    # before it (well over one buffer) have gone to the temporary file
    bad = make_record("bad", ["A sentence."], schema,
                      labels=ReportLabelVector(("bogus",) * len(schema)))
    with pytest.raises(AttributeError):
        write_corpus(Corpus(schema, (*good, bad)), str(path))
    assert path.read_bytes() == before
    assert not list(tmp_path.glob(".tmp-coaug-*"))
