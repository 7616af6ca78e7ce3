import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coaug import corpus as corpus_module
from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    FeatureBundle,
    Provenance,
    Record,
    Report,
    ReportLabelVector,
    Sentence,
    corpus_writer,
    default_schema,
    labeled_line,
    make_schema,
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
                    (0.0,) * schema.d if i == 9 else (-0.5,) * schema.d
                    for i in range(len(schema))
                ),
                frozenset({9}),
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


def test_corpus_writer_writes_nothing_when_its_block_raises(tmp_path, schema):
    corpus = Corpus(schema, (make_record("a", ["Some sentence."], schema),))
    line = record_to_line(corpus.records[0], schema) + "\n"
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    write_corpus(corpus, str(old))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other = make_schema(reversed(schema.names), schema.d)
    for path in (new, old):
        with pytest.raises(RuntimeError, match="mid-corpus"):
            with corpus_writer(str(path), other) as fh:
                fh.write(line)
                raise RuntimeError("mid-corpus")
    # no new file, no sidecar, no temporary file; the old corpus is whole
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert read_corpus(str(old)) == corpus


def test_floats_quantized_to_nine_significant_digits():
    bundle = FeatureBundle(((0.123456789123456789, 1.0 / 3.0),))
    assert bundle.vectors == ((0.123456789, 0.333333333),)


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


def test_feature_integer_outside_the_float_range_is_malformed(tmp_path, schema):
    # json reads 1 followed by 400 zeros as an int that no float can hold
    path = tmp_path / "c.jsonl"
    good = {"vec": [0.0] * schema.d, "masked": False}
    huge = {"vec": [10 ** 400] + [0.0] * (schema.d - 1), "masked": False}
    obj = {"id": "x", "report": ["A sentence."],
           "features": [good, huge] + [good] * (len(schema) - 2), "provenance": "Original"}
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedRecord, match="float range") as err:
        read_corpus(str(path), schema)
    assert err.value.line == 1


def test_feature_entry_without_a_mask_reads_as_unmasked(tmp_path, schema):
    path = tmp_path / "c.jsonl"
    obj = {"id": "x", "report": ["A sentence."],
           "features": [{"vec": [0.5] * schema.d}] * len(schema), "provenance": "Original"}
    path.write_text(json.dumps(obj) + "\n")
    (record,) = read_corpus(str(path), schema)
    assert not record.features.masked


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


@pytest.mark.parametrize("kind", ["schema", "corpus", "lexicon", "cues", "scenario"])
def test_a_byte_order_mark_reads_as_if_absent(tmp_path, schema, kind):
    # an editor may save UTF-8 with a leading U+FEFF; it is no part of line 1
    from coaug.labeler import compile_lexicon, default_cues_path, default_lexicon_path
    from coaug.synth import default_scenario_path, parse_scenario

    record = make_record("r0", ["No edema.", "Mild cardiomegaly."], schema)
    text = {
        "schema": "d=16\nEdema\nCardiomegaly\n",
        "corpus": record_to_line(record, schema) + "\n",
        "lexicon": "Edema\tedema\nCardiomegaly\tcardiomegaly\n",
        "cues": "neg\tno\nunc\tmay\nwindow=4\n",
        "scenario": "".join(line for line in Path(default_scenario_path()).read_text(
            encoding="utf-8").splitlines(keepends=True) if not line.startswith("#")).lstrip(),
    }[kind]
    read = {
        "schema": read_schema,
        "corpus": lambda path: read_corpus(path, schema),
        "lexicon": lambda path: compile_lexicon(path, default_cues_path(), schema).rules,
        "cues": lambda path: compile_lexicon(default_lexicon_path(), path, schema).cues,
        "scenario": lambda path: parse_scenario(path, schema),
    }[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(str(marked)) == read(str(plain))


def test_read_corpus_without_a_schema_reads_the_sidecar_once(tmp_path, schema, monkeypatch):
    # the sidecar gives the schema: there is nothing to compare it with
    path = tmp_path / "c.jsonl"
    write_corpus(Corpus(schema, (make_record("r1", ["There is edema."], schema),)), str(path))
    read = []
    monkeypatch.setattr(corpus_module, "read_schema",
                        lambda p, real=corpus_module.read_schema: read.append(p) or real(p))
    assert read_corpus(str(path)).schema == schema
    assert read == [str(path) + ".schema"]


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
    bundle = FeatureBundle(((0.5,) * schema.d,) * len(schema), frozenset({0}))
    record = Record("r", Report.from_texts(["Sentence one."]), bundle)
    violation = validate_record(record, schema)
    assert violation is not None and violation.code == "MaskNonZero"


def test_validate_record_bundle_size(schema):
    bundle = FeatureBundle(((0.5,) * schema.d,) * (len(schema) - 1))
    record = Record("r", Report.from_texts(["Sentence one."]), bundle)
    violation = validate_record(record, schema)
    assert violation is not None and violation.code == "BundleSize"
    assert violation.message == "feature bundle has 13 vectors, schema has 14"


def test_validate_record_vector_length(schema):
    # vector 2 is too short and masked nonzero vector 0 comes first: each
    # vector is checked for its length, then for its mask, in index order
    vectors = [(0.5,) * schema.d] * len(schema)
    vectors[2] = (0.0,) * (schema.d - 1)
    bundle = FeatureBundle(tuple(vectors))
    record = Record("r", Report.from_texts(["Sentence one."]), bundle)
    violation = validate_record(record, schema)
    assert violation is not None and violation.code == "VectorLength"
    assert violation.message == "feature vector 2 has length 15, expected 16"
    masked_first = Record("r", record.report, FeatureBundle(tuple(vectors), frozenset({0})))
    assert validate_record(masked_first, schema).code == "MaskNonZero"


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
    bundle = FeatureBundle((tuple(values),))
    if masked:
        bundle = bundle.mask({0})
    record = Record(
        "r", Report.from_texts(["Sentence."]), bundle
    )
    violation = validate_record(record, schema)
    assert violation is None
    if 0 in bundle.masked:
        assert all(v == 0.0 for v in bundle.vectors[0])


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
        FeatureBundle((tuple(payload),) * len(schema)),
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
    masked = [twin.features.vectors[i] for i in twin.features.masked]
    assert masked and all(set(v) == {0.0} for v in masked)
    assert back == corpus


def test_masked_vector_is_interned_and_its_text_is_repr_zeros(schema, matcher):
    from coaug.augment import css_augment
    from coaug.rng import RngStream

    small = FeatureBundle(((0.5,) * 4, (0.25,) * 4))
    masked = small.mask({1})
    assert masked.texts[1] == '{"vec":[0.0,0.0,0.0,0.0],"masked":true}'
    assert masked.vectors[1] is small.mask([1]).vectors[1]  # one zero vector per d
    record = make_record(
        "src", ["No pneumothorax.", "Small right pleural effusion."], schema
    )
    before = (record.features.vectors, record.features.texts, record.features.masked)
    twin = css_augment(record, matcher, RngStream.for_record(3, "src")).record
    source, bundle = record.features, twin.features
    assert bundle.masked
    for i in range(len(schema)):
        if i in bundle.masked:
            zeros = ",".join(["0.0"] * schema.d)
            assert bundle.vectors[i] == (0.0,) * schema.d
            assert bundle.texts[i] == '{"vec":[' + zeros + '],"masked":true}'
        else:
            # the source's own objects, not a quantized copy
            assert bundle.vectors[i] is source.vectors[i]
            assert bundle.texts[i] is source.texts[i]
    assert (source.vectors, source.texts, source.masked) == before
    assert not source.masked


# the vector encoder before the kept .9g texts: float.__repr__, json.dumps for nan/inf
def _repr_vector_json(values, masked):
    body = ",".join(map(float.__repr__, values))
    if "n" in body:
        return json.dumps({"vec": list(values), "masked": masked},
                          ensure_ascii=False, separators=(",", ":"))
    return f'{{"vec":[{body}],"masked":{"true" if masked else "false"}}}'


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
@example(values=[1.5e10], masked=False)  # "%.9g" writes 1.5e+10, repr 15000000000.0
def test_kept_vector_text_equals_the_repr_encoder(values, masked):
    bundle = FeatureBundle((tuple(values),), frozenset({0}) if masked else frozenset())
    assert bundle.texts[0] == _repr_vector_json(bundle.vectors[0], masked)


# ---------------------------------------------------------------------------
# the encoder before per-vector JSON texts: the reference for record_to_line


def _old_quantize(v):
    return float(format(float(v), ".9g"))


def _old_record_to_line(record, schema):
    obj = {"id": record.id, "report": record.report.texts()}
    if record.features is not None:
        obj["features"] = [
            {"vec": list(v), "masked": i in record.features.masked}
            for i, v in enumerate(record.features.vectors)
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


_NEEDS_ESCAPING = ['Quote "q"', "Back\\slash", "Épanchement pleural", "Tab\tand\nline", "Line\u2028sep"]


@settings(max_examples=150, deadline=None)
@given(
    raw=st.lists(st.lists(_feature_values, min_size=1, max_size=6), min_size=1, max_size=3),
    masked=st.lists(st.booleans(), min_size=3, max_size=3),
    rid=st.text(min_size=1, max_size=8),
    texts=st.lists(st.text(min_size=1, max_size=12).filter(str.strip), max_size=3),
    statuses=st.none() | st.lists(st.sampled_from(DiseaseStatus), min_size=3, max_size=3),
    source_id=st.none() | st.text(max_size=5),
    with_features=st.booleans(),
    names=st.just(["A", "B", "C"])
    | st.lists(st.text(min_size=1, max_size=6).filter(str.strip) | st.sampled_from(_NEEDS_ESCAPING),
               min_size=3, max_size=3, unique=True),
)
@example(raw=[[0.5]], masked=[False] * 3, rid='r"\\é', texts=['Say "é" \\ \u2028.'],
         statuses=[DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE, DiseaseStatus.UNCERTAIN],
         source_id=None, with_features=True, names=_NEEDS_ESCAPING[:3])
def test_record_to_line_matches_the_whole_record_encoder(
        raw, masked, rid, texts, statuses, source_id, with_features, names):
    schema = make_schema(names, d=1)
    bundle = FeatureBundle(tuple(map(tuple, raw)),
                           frozenset(i for i, m in zip(range(len(raw)), masked) if m))
    for vec, values in zip(bundle.vectors, raw):
        assert [x.hex() for x in vec] == [_old_quantize(x).hex() for x in values]
    record = Record(
        rid,
        Report.from_texts(texts),
        bundle if with_features else None,
        ReportLabelVector(tuple(statuses)) if statuses is not None else None,
        Provenance.ORIGINAL if source_id is None else Provenance.COUNTERFACTUAL,
        source_id,
    )
    assert record_to_line(record, schema) == _old_record_to_line(record, schema)
    # a second encoding reuses each vector's kept text
    assert record_to_line(record, schema) == _old_record_to_line(record, schema)
    if record.labels is not None:
        # the labeled line spliced into the line of the record without labels
        unlabeled = record_to_line(replace(record, labels=None), schema)
        assert labeled_line(unlabeled, record, schema) == _old_record_to_line(record, schema)


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


# ---------------------------------------------------------------------------
# a bundle built from flat values, as synth builds it, against FeatureBundle(vectors)


def _hex_rows(vectors):
    # float.hex tells -0.0 from 0.0, which == does not
    return [[x.hex() for x in vec] for vec in vectors]


_flat_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-1e9, 1e9),
    st.floats(-1e-3, 1e-3),
    st.sampled_from([-0.0, 2.0, 1e-05, 1.5e10, 1.5e16, 5e-324, math.inf, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_flat_floats, max_size=5), max_size=4),
       masked=st.frozensets(st.integers(0, 3)))
@example(rows=[[1e-05, 1.5e16]], masked=frozenset())  # exponent pieces
@example(rows=[[1.5e10, 0.5]], masked=frozenset())  # "1.5e+10", whose repr has no exponent
@example(rows=[[2.0, -0.0], [0.5, 0.25]], masked=frozenset({1}))  # "2" and "-0"
@example(rows=[[5e-324, -2.2250738585072014e-308]], masked=frozenset())  # subnormals
@example(rows=[[math.inf, 0.5], [math.nan, -math.inf]], masked=frozenset({0}))
@example(rows=[[0.125], [0.5], [-0.75]], masked=frozenset({2}))  # d=1, every piece a repr
@example(rows=[[0.1, 0.2, 0.3]] * 3, masked=frozenset({0, 2}))  # d=3
@example(rows=[[], [1.0]], masked=frozenset({0}))  # an empty vector
@example(rows=[], masked=frozenset())
def test_flat_bundle_equals_the_vector_bundle(rows, masked):
    lengths = tuple(map(len, rows))
    values = tuple(x for row in rows for x in row)
    flat, vector = FeatureBundle.from_flat(values, lengths), FeatureBundle(rows)
    assert flat.texts == vector.texts
    assert flat.texts == tuple(_repr_vector_json([_old_quantize(x) for x in row], False)
                               for row in rows)
    assert _hex_rows(flat.vectors) == _hex_rows(vector.vectors)
    assert len(flat) == len(vector) == len(rows)
    if not any(map(math.isnan, values)):  # nan equals nothing, and hashes by identity
        assert flat == vector
        assert hash(flat) == hash(vector)
    indices = {i for i in masked if i < len(rows)}
    flat_twin, vector_twin = flat.mask(indices), vector.mask(indices)
    assert flat_twin.texts == vector_twin.texts
    assert _hex_rows(flat_twin.vectors) == _hex_rows(vector_twin.vectors)
    assert flat_twin.masked == vector_twin.masked == indices


def test_bundle_equality_is_on_the_quantized_floats_not_the_texts():
    negative, positive = FeatureBundle.from_flat((-0.0, 1.0), (2,)), FeatureBundle([[0.0, 1.0]])
    assert negative.texts != positive.texts
    assert negative == positive
    assert hash(negative) == hash(positive)
    assert negative != positive.mask({0})


def test_reading_a_corpus_quantizes_no_feature(tmp_path, schema, monkeypatch):
    # analyze reads features it never looks at: the parsed lists are kept
    import coaug.corpus as corpus_module

    path = tmp_path / "c.jsonl"
    records = [make_record(f"r{i}", ["A sentence."], schema, value=0.1 * i) for i in range(5)]
    write_corpus(Corpus(schema, tuple(records)), str(path))

    def refuse(*args):
        raise AssertionError("quantized on read")

    monkeypatch.setattr(corpus_module, "_vector_texts", refuse)
    monkeypatch.setattr(corpus_module, "_parse_vectors", refuse)
    back = read_corpus(str(path), schema)
    assert [r.id for r in back] == [r.id for r in records]
    monkeypatch.undo()
    assert back.records == tuple(records)


@pytest.mark.parametrize("value", ["positive", 1, ["x"], {}],
                         ids=["lowercase", "int", "list", "object"])
def test_a_label_value_that_is_no_status_is_malformed(tmp_path, schema, value):
    # an unhashable value is reported like any other, not as a TypeError
    path = tmp_path / "c.jsonl"
    good = json.dumps({"id": "a", "report": ["Fine."], "labels": {"Edema": "Positive"},
                       "provenance": "Original"})
    bad = json.dumps({"id": "b", "report": ["Fine."], "labels": {"Edema": value},
                      "provenance": "Original"})
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(MalformedRecord, match=r"line 2: unknown status "):
        read_corpus(str(path), schema)
