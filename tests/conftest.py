import pytest

from coaug.corpus import (
    Corpus,
    FeatureBundle,
    Provenance,
    Record,
    Report,
    default_schema,
)
from coaug.labeler import default_matcher
from coaug.synth import default_scenario_path, parse_scenario


@pytest.fixture(scope="session")
def schema():
    return default_schema()


@pytest.fixture(scope="session")
def matcher(schema):
    return default_matcher(schema)


@pytest.fixture(scope="session")
def default_templates(schema):
    """Per-disease sentence templates shared with the shipped scenario."""
    return parse_scenario(default_scenario_path(), schema).templates


def make_record(rid, texts, schema, value=0.25, labels=None,
                provenance=Provenance.ORIGINAL, source_id=None, features=True):
    bundle = None
    if features:
        bundle = FeatureBundle(((value,) * schema.d,) * len(schema))
    return Record(rid, Report.from_texts(texts), bundle, labels, provenance, source_id)


def make_corpus(schema, records):
    return Corpus(schema, tuple(records))
