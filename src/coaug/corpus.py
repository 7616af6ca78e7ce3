"""Corpus data model and line-delimited serialization.

A corpus is an ordered sequence of records, each pairing a multi-sentence
report with one feature vector per disease in a fixed label schema.  The
on-disk form is UTF-8 JSON lines (one record per line) plus a sidecar
schema file (``<path>.schema``) listing the disease names in index order
and the feature dimension.

Serialization is deterministic: fixed key order, floats quantized to
9 significant digits at construction time, so writing the same corpus
twice produces identical bytes and read(write(c)) == c.
Lines are streamed to a temporary file renamed over the target when
complete.  A record's feature vectors live in one ``FeatureBundle``,
which quantizes all of them with one ``%.9g`` format and keeps each
vector's JSON text: the ``%.9g`` pieces themselves when each has a ``.``
and no exponent, since such a piece is the ``repr`` of its float, else
``float.__repr__`` of the quantized values, or ``json.dumps`` when one
is NaN or infinite.  ``FeatureBundle.mask`` builds a counterfactual
twin's bundle from its source's: the kept vectors and texts are the
source's objects, each masked vector is zeros with a text shared per
dimension, and nothing is quantized again.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Optional, TextIO

from .errors import MalformedRecord, MissingFile, SchemaMismatch, UnknownDisease


class DiseaseStatus(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    UNCERTAIN = "Uncertain"
    UNMENTIONED = "Unmentioned"


# Aggregation precedence: an abnormal mention anywhere wins.
STATUS_RANK = {
    DiseaseStatus.UNMENTIONED: 0,
    DiseaseStatus.NEGATIVE: 1,
    DiseaseStatus.UNCERTAIN: 2,
    DiseaseStatus.POSITIVE: 3,
}


class Provenance(Enum):
    ORIGINAL = "Original"
    COUNTERFACTUAL = "Counterfactual"


@dataclass(frozen=True)
class LabelSchema:
    """Disease names in index order plus the feature dimension d."""

    names: tuple[str, ...]
    d: int = 16

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate disease names in schema")
        if not all(name.strip() for name in self.names):
            raise ValueError("blank disease name")
        if self.d < 1:
            raise ValueError("feature dimension must be >= 1")

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownDisease(name) from None


def make_schema(names: Iterable[str], d: int = 16) -> LabelSchema:
    return LabelSchema(tuple(names), d)


@dataclass(frozen=True)
class Sentence:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("sentence text must be non-empty")


@dataclass(frozen=True)
class Report:
    sentences: tuple[Sentence, ...] = ()

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Report":
        return cls(tuple(Sentence(t) for t in texts))

    def texts(self) -> list[str]:
        return [s.text for s in self.sentences]

    def __len__(self) -> int:
        return len(self.sentences)


@lru_cache(maxsize=64)
def _g9_format(n: int) -> str:
    return ",".join(["%.9g"] * n)


@lru_cache(maxsize=None)
def _masked_row(d: int) -> tuple[tuple[float, ...], str]:
    """The all-zero masked vector of dimension d and its JSON text."""
    return (0.0,) * d, f'{{"vec":[{",".join(["0.0"] * d)}],"masked":true}}'


@dataclass(frozen=True, slots=True)
class FeatureBundle:
    """A record's feature vectors, one per disease, and the indices of the
    masked ones.  Each vector's JSON text is kept in ``texts``, outside ``==``."""

    vectors: tuple[tuple[float, ...], ...]
    masked: frozenset[int] = frozenset()
    texts: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # 9 significant digits keeps golden files stable across platforms
        flat = tuple(chain.from_iterable(self.vectors))
        pieces = (_g9_format(len(flat)) % flat).split(",") if flat else []
        values = tuple(map(float, pieces))
        masked = frozenset(self.masked)
        vectors, texts, start = [], [], 0
        for i, vec in enumerate(self.vectors):
            end = start + len(vec)
            row, body = values[start:end], ",".join(pieces[start:end])
            start = end
            # a .9g text with a "." and no "e" is the repr of its float (nan and inf have no ".")
            if body.count(".") != len(row) or "e" in body:
                body = ",".join(map(float.__repr__, row))
            vectors.append(row)
            # json writes a finite float as its repr; only nan/inf have an "n"
            texts.append(_dumps({"vec": list(row), "masked": i in masked}) if "n" in body
                         else f'{{"vec":[{body}],"masked":{"true" if i in masked else "false"}}}')
        object.__setattr__(self, "vectors", tuple(vectors))
        object.__setattr__(self, "masked", masked)
        object.__setattr__(self, "texts", tuple(texts))

    def __len__(self) -> int:
        return len(self.vectors)

    def mask(self, indices: Iterable[int]) -> "FeatureBundle":
        """This bundle with the vectors at *indices* zeroed and masked: a CSS
        twin's features.  The other vectors and their texts are this bundle's
        own objects, and nothing is quantized again."""
        indices = frozenset(indices)
        vectors, texts = list(self.vectors), list(self.texts)
        for i in indices:
            vectors[i], texts[i] = _masked_row(len(vectors[i]))
        twin = object.__new__(FeatureBundle)
        object.__setattr__(twin, "vectors", tuple(vectors))
        object.__setattr__(twin, "masked", self.masked | indices)
        object.__setattr__(twin, "texts", tuple(texts))
        return twin


@dataclass(frozen=True)
class ReportLabelVector:
    """One status per schema disease, indexed by disease index."""

    statuses: tuple[DiseaseStatus, ...]

    def mentioned(self, index: int) -> bool:
        return self.statuses[index] is not DiseaseStatus.UNMENTIONED


@dataclass(frozen=True)
class Record:
    id: str
    report: Report
    features: Optional[FeatureBundle] = None
    labels: Optional[ReportLabelVector] = None
    provenance: Provenance = Provenance.ORIGINAL
    source_id: Optional[str] = None

    def with_labels(self, labels: ReportLabelVector) -> "Record":
        return replace(self, labels=labels)


@dataclass(frozen=True)
class Corpus:
    schema: LabelSchema
    records: tuple[Record, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class Violation:
    """First violated record invariant, as a machine-readable code."""

    code: str
    message: str


def validate_record(record: Record, schema: LabelSchema) -> Optional[Violation]:
    """Return None when the record satisfies every invariant, else the
    first violation in a fixed check order."""
    n_c = len(schema)
    if not record.id:
        return Violation("EmptyId", "record id must be non-empty")
    if record.provenance is Provenance.COUNTERFACTUAL and not record.source_id:
        return Violation("OrphanCounterfactual", "counterfactual record lacks source_id")
    if record.provenance is Provenance.ORIGINAL and record.source_id:
        return Violation("SourceOnOriginal", "original record carries a source_id")
    if record.provenance is Provenance.ORIGINAL and len(record.report) == 0:
        return Violation("EmptyOriginalReport", "original record has an empty report")
    if record.features is not None:
        if len(record.features) != n_c:
            return Violation(
                "BundleSize",
                f"feature bundle has {len(record.features)} vectors, schema has {n_c}",
            )
        for i, vec in enumerate(record.features.vectors):
            if len(vec) != schema.d:
                return Violation(
                    "VectorLength",
                    f"feature vector {i} has length {len(vec)}, expected {schema.d}",
                )
            if i in record.features.masked and any(vec):
                return Violation("MaskNonZero", f"masked feature vector {i} has nonzero values")
    if record.labels is not None and len(record.labels.statuses) != n_c:
        return Violation(
            "LabelCount",
            f"label vector has {len(record.labels.statuses)} entries, schema has {n_c}",
        )
    return None


# ---------------------------------------------------------------------------
# serialization


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _obj_to_record(obj: dict, schema: LabelSchema, line_no: int) -> Record:
    def fail(reason: str):
        raise MalformedRecord(line_no, reason)

    if not isinstance(obj, dict):
        fail("record is not an object")
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid:
        fail("missing or empty id")
    texts = obj.get("report")
    if not isinstance(texts, list) or any(not isinstance(t, str) for t in texts):
        fail("report must be a list of strings")
    try:
        report = Report.from_texts(texts)
    except ValueError as exc:
        fail(str(exc))

    features = None
    if "features" in obj and obj["features"] is not None:
        raw = obj["features"]
        if not isinstance(raw, list):
            fail("features must be a list")
        if len(raw) != len(schema):
            raise SchemaMismatch(
                f"line {line_no}: {len(raw)} feature vectors, schema has {len(schema)}"
            )
        vectors, masked = [], set()
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "vec" not in entry:
                fail("feature entry must be an object with a 'vec' field")
            vec = entry["vec"]
            # json's true/false are ints to isinstance; only int and float are numbers
            if not isinstance(vec, list) or not set(map(type, vec)) <= {int, float}:
                fail("feature 'vec' must be a list of numbers")
            flag = entry.get("masked", False)
            if not isinstance(flag, bool):
                fail(f"feature 'masked' must be true or false, got {flag!r}")
            if len(vec) != schema.d:
                raise SchemaMismatch(
                    f"line {line_no}: feature vector of length {len(vec)}, expected d={schema.d}"
                )
            vectors.append(vec)
            if flag:
                masked.add(i)
        try:
            features = FeatureBundle(tuple(vectors), frozenset(masked))
        except OverflowError:
            fail("feature value outside the float range")

    labels = None
    if "labels" in obj and obj["labels"] is not None:
        raw = obj["labels"]
        if not isinstance(raw, dict):
            fail("labels must be a mapping")
        statuses = [DiseaseStatus.UNMENTIONED] * len(schema)
        for name, value in raw.items():
            try:
                idx = schema.index_of(name)
            except UnknownDisease:
                raise SchemaMismatch(f"line {line_no}: unknown disease name {name!r}")
            try:
                statuses[idx] = DiseaseStatus(value)
            except ValueError:
                fail(f"unknown status {value!r}")
        labels = ReportLabelVector(tuple(statuses))

    prov_raw = obj.get("provenance")
    try:
        provenance = Provenance(prov_raw)
    except ValueError:
        fail(f"unknown provenance {prov_raw!r}")
    source_id = obj.get("source_id")
    if source_id is not None and not isinstance(source_id, str):
        fail("source_id must be a string")

    record = Record(rid, report, features, labels, provenance, source_id)
    violation = validate_record(record, schema)
    if violation is not None:
        fail(f"{violation.code}: {violation.message}")
    return record


def schema_path_for(path: str) -> str:
    return path + ".schema"


def write_schema(schema: LabelSchema, path: str) -> None:
    lines = [f"d={schema.d}", *schema.names]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_lines(path: str) -> list[str]:
    """Every line of a UTF-8 text file, newlines kept."""
    if not os.path.exists(path):
        raise MissingFile(path)
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def read_schema(path: str) -> LabelSchema:
    lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(read_lines(path), start=1)
             if ln.strip()]
    line_no, head = lines[0] if lines else (1, "")
    if not head.startswith("d="):
        raise MalformedRecord(line_no, "schema file must start with 'd=<int>'", path)
    try:
        d = int(head[2:])
    except ValueError:
        raise MalformedRecord(line_no, f"bad feature dimension {head!r}", path)
    try:
        return make_schema((name for _, name in lines[1:]), d)
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None


def default_schema_path() -> str:
    """The 14-disease schema (d=16) that ships in the package."""
    return os.path.join(os.path.dirname(__file__), "data", "default_schema.txt")


def default_schema(d: int = 16) -> LabelSchema:
    return replace(read_schema(default_schema_path()), d=d)


@contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """A text file whose lines replace *path* when the block ends; on error
    the temporary file is removed and *path* is kept."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-coaug-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_lines(path: str, lines: Iterable[str]) -> None:
    with atomic_writer(path) as fh:
        fh.writelines(lines)


def atomic_write_text(path: str, data: str) -> None:
    atomic_write_lines(path, (data,))


def record_to_line(record: Record, schema: LabelSchema) -> str:
    head = {"id": record.id, "report": record.report.texts()}
    tail: dict = {}
    if record.labels is not None:
        tail["labels"] = {name: status.value
                          for name, status in zip(schema.names, record.labels.statuses)
                          if status is not DiseaseStatus.UNMENTIONED}
    tail["provenance"] = record.provenance.value
    if record.source_id is not None:
        tail["source_id"] = record.source_id
    if record.features is None:
        return _dumps({**head, **tail})
    # the vectors' kept texts, spliced in where json puts "features"
    features = ",".join(record.features.texts)
    return f'{_dumps(head)[:-1]},"features":[{features}],{_dumps(tail)[1:]}'


def write_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus atomically; identical corpora yield identical bytes."""
    lines = (record_to_line(r, corpus.schema) + "\n" for r in corpus.records)
    atomic_write_lines(path, lines)
    write_schema(corpus.schema, schema_path_for(path))


def read_corpus(path: str, schema: Optional[LabelSchema] = None) -> Corpus:
    """Read a corpus; the schema comes from the sidecar file unless given.
    A given schema must equal the sidecar, when there is one."""
    if not os.path.exists(path):
        raise MissingFile(path)
    sidecar = schema_path_for(path)
    if schema is None:
        schema = read_schema(sidecar)
    elif os.path.exists(sidecar) and read_schema(sidecar) != schema:
        raise SchemaMismatch(f"{path}: the given schema differs from {sidecar}")
    records = []
    seen = set()
    # the lines below know their number, not their file: name it here
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}")
                record = _obj_to_record(obj, schema, line_no)
                if record.id in seen:
                    raise MalformedRecord(line_no, f"duplicate record id {record.id!r}")
                seen.add(record.id)
                records.append(record)
    except MalformedRecord as exc:
        raise MalformedRecord(exc.line, exc.reason, path) from None
    except SchemaMismatch as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
    return Corpus(schema, tuple(records))
