"""Corpus data model and line-delimited serialization.

A corpus is an ordered sequence of records, each pairing a multi-sentence
report with one feature vector per disease in a fixed label schema.  The
on-disk form is UTF-8 JSON lines (one record per line) plus a sidecar
schema file (``<path>.schema``) listing the disease names in index order
and the feature dimension.

Serialization is deterministic: fixed key order, floats quantized to
9 significant digits at construction time, so writing the same corpus
twice produces identical bytes and read(write(c)) == c.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional

from .errors import MalformedRecord, MissingFile, SchemaMismatch


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
class DiseaseId:
    index: int
    name: str


@dataclass(frozen=True)
class LabelSchema:
    """Disease names in index order plus the feature dimension d."""

    diseases: tuple[DiseaseId, ...]
    d: int = 16

    def __post_init__(self):
        names = [dz.name for dz in self.diseases]
        if len(set(names)) != len(names):
            raise ValueError("duplicate disease names in schema")
        for i, dz in enumerate(self.diseases):
            if dz.index != i:
                raise ValueError(f"disease index {dz.index} at position {i}")
            if not dz.name.strip():
                raise ValueError("blank disease name")
        if self.d < 1:
            raise ValueError("feature dimension must be >= 1")

    def __len__(self) -> int:
        return len(self.diseases)

    def index_of(self, name: str) -> int:
        for dz in self.diseases:
            if dz.name == name:
                return dz.index
        raise KeyError(name)

    def names(self) -> list[str]:
        return [dz.name for dz in self.diseases]


DEFAULT_DISEASES = (
    "Enlarged Cardiomediastinum",
    "Cardiomegaly",
    "Lung Opacity",
    "Lung Lesion",
    "Edema",
    "Consolidation",
    "Pneumonia",
    "Atelectasis",
    "Pneumothorax",
    "Pleural Effusion",
    "Pleural Other",
    "Fracture",
    "Support Devices",
    "No Finding",
)


def default_schema(d: int = 16) -> LabelSchema:
    return LabelSchema(
        tuple(DiseaseId(i, n) for i, n in enumerate(DEFAULT_DISEASES)), d
    )


def make_schema(names: Iterable[str], d: int = 16) -> LabelSchema:
    return LabelSchema(tuple(DiseaseId(i, n) for i, n in enumerate(names)), d)


def _quantize(v: float) -> float:
    # 9 significant digits keeps golden files stable across platforms
    return float(format(float(v), ".9g"))


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


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]
    masked: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_quantize(v) for v in self.values))


def masked_vector(d: int) -> FeatureVector:
    return FeatureVector((0.0,) * d, masked=True)


@dataclass(frozen=True)
class FeatureBundle:
    per_disease: tuple[FeatureVector, ...]

    def __len__(self) -> int:
        return len(self.per_disease)


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
        for i, vec in enumerate(record.features.per_disease):
            if len(vec.values) != schema.d:
                return Violation(
                    "VectorLength",
                    f"feature vector {i} has length {len(vec.values)}, expected {schema.d}",
                )
            if vec.masked and any(v != 0.0 for v in vec.values):
                return Violation("MaskNonZero", f"masked feature vector {i} has nonzero values")
    if record.labels is not None and len(record.labels.statuses) != n_c:
        return Violation(
            "LabelCount",
            f"label vector has {len(record.labels.statuses)} entries, schema has {n_c}",
        )
    return None


# ---------------------------------------------------------------------------
# serialization


def _record_to_obj(record: Record, schema: LabelSchema) -> dict:
    obj: dict = {"id": record.id, "report": record.report.texts()}
    if record.features is not None:
        obj["features"] = [
            {"vec": list(v.values), "masked": v.masked}
            for v in record.features.per_disease
        ]
    if record.labels is not None:
        labels = {}
        for dz in schema.diseases:
            status = record.labels.statuses[dz.index]
            if status is not DiseaseStatus.UNMENTIONED:
                labels[dz.name] = status.value
        obj["labels"] = labels
    obj["provenance"] = record.provenance.value
    if record.source_id is not None:
        obj["source_id"] = record.source_id
    return obj


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
        vecs = []
        for entry in raw:
            if not isinstance(entry, dict) or "vec" not in entry:
                fail("feature entry must be an object with a 'vec' field")
            vec = entry["vec"]
            if not isinstance(vec, list) or any(
                not isinstance(x, (int, float)) for x in vec
            ):
                fail("feature 'vec' must be a list of numbers")
            if len(vec) != schema.d:
                raise SchemaMismatch(
                    f"line {line_no}: feature vector of length {len(vec)}, expected d={schema.d}"
                )
            vecs.append(FeatureVector(tuple(vec), bool(entry.get("masked", False))))
        features = FeatureBundle(tuple(vecs))

    labels = None
    if "labels" in obj and obj["labels"] is not None:
        raw = obj["labels"]
        if not isinstance(raw, dict):
            fail("labels must be a mapping")
        statuses = [DiseaseStatus.UNMENTIONED] * len(schema)
        for name, value in raw.items():
            try:
                idx = schema.index_of(name)
            except KeyError:
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
    lines = [f"d={schema.d}"] + schema.names()
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_schema(path: str) -> LabelSchema:
    if not os.path.exists(path):
        raise MissingFile(path)
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("d="):
        raise MalformedRecord(1, "schema file must start with 'd=<int>'")
    try:
        d = int(lines[0][2:])
    except ValueError:
        raise MalformedRecord(1, f"bad feature dimension {lines[0]!r}")
    try:
        return make_schema(lines[1:], d)
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None


def atomic_write_text(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-coaug-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def record_to_line(record: Record, schema: LabelSchema) -> str:
    return json.dumps(_record_to_obj(record, schema), ensure_ascii=False,
                      separators=(",", ":"))


def write_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus atomically; identical corpora yield identical bytes."""
    lines = [record_to_line(r, corpus.schema) for r in corpus.records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))
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
    return Corpus(schema, tuple(records))
