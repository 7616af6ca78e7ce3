"""Corpus data model and line-delimited serialization.

A corpus is an ordered sequence of records, each pairing a multi-sentence
report with one feature vector per disease in a fixed label schema.  The
on-disk form is UTF-8 JSON lines (one record per line) plus a sidecar
schema file (``<path>.schema``) listing the disease names in index order
and the feature dimension.

Serialization is deterministic: fixed key order, floats quantized to
9 significant digits, so writing the same corpus twice produces
identical bytes and read(write(c)) == c.  Lines are streamed to a
temporary file renamed over the target when complete.

A record's feature vectors live in one ``FeatureBundle``, which holds
one form and derives the other on first use: the numbers it was built
from (a read record's parsed lists), or the JSON texts a generated
record's features are written as.  The texts come from one cached
``%``-template per vector shape that writes every value with ``%.9g``:
a vector's pieces are its text when each has a ``.`` and no exponent,
since such a piece is the ``repr`` of its float; otherwise the text is
``float.__repr__`` of the quantized values, or json's text when one
is NaN or infinite.  The floats are parsed back from the texts only
when asked for, which writing a record never does.
``FeatureBundle.mask`` builds a counterfactual twin's bundle from its
source's texts: the kept texts (and vectors, once parsed) are the
source's objects, each masked vector is zeros with a text shared per
dimension, and nothing is quantized again.

A line is joined from pieces in json's key order, its labels from a
per-schema table of ``"Name":"Status"`` pieces, and ``labeled_line``
splices the labels into the line of the same record without them.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .errors import (ConfigInvalid, DuplicateRule, MalformedRecord, MissingFile, SchemaMismatch,
                     UnknownDisease)


class DiseaseStatus(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    UNCERTAIN = "Uncertain"
    UNMENTIONED = "Unmentioned"

    # members are singletons: hash by identity, not by Enum's Python-level
    # hash of the name, which every STATUS_RANK lookup would run
    __hash__ = object.__hash__


# Aggregation precedence: an abnormal mention anywhere wins.
STATUS_RANK = {
    DiseaseStatus.UNMENTIONED: 0,
    DiseaseStatus.NEGATIVE: 1,
    DiseaseStatus.UNCERTAIN: 2,
    DiseaseStatus.POSITIVE: 3,
}
_STATUSES = {status.value: status for status in DiseaseStatus}  # by their JSON text


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
        return cls(tuple(map(Sentence, texts)))

    def texts(self) -> list[str]:
        return [s.text for s in self.sentences]

    def __len__(self) -> int:
        return len(self.sentences)


_ROW_HEAD, _ROW_TAIL, _MASKED_TAIL = '{"vec":[', '],"masked":false}', '],"masked":true}'
_ROW_E = (_ROW_HEAD + _ROW_TAIL).count("e")  # the "e"s of a vector text that are not a value's


@lru_cache(maxsize=64)
def _shape(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """One shared tuple per vector shape, held by every bundle of that shape."""
    return lengths


@lru_cache(maxsize=64)
def _texts_template(lengths: tuple[int, ...]) -> tuple[str, int, int]:
    """The %-template that writes values, ``%.9g`` each, as the unmasked
    texts of vectors of these lengths, one a line, and the template's
    own counts of "." and "e"."""
    template = "\n".join(_ROW_HEAD + ",".join(["%.9g"] * n) + _ROW_TAIL for n in lengths)
    return template, template.count("."), template.count("e")


def _vector_texts(values: tuple, lengths: tuple[int, ...],
                  masked: frozenset[int] = frozenset()) -> tuple[str, ...]:
    """The JSON texts of the vectors of these lengths whose values, in
    order, are *values*: one ``%.9g`` format quantizes all of them."""
    if not lengths:
        return ()
    template, dots, es = _texts_template(lengths)
    text = template % values
    rows = text.split("\n")
    # a piece with a "." and no "e" is the repr of its float; nan and inf have
    # no "." and an "n": so when the counts are the template's and there is
    # no "n", every piece is such a repr
    if text.count(".") != dots or text.count("e") != es or "n" in text:
        rows = list(map(_repr_row, rows, lengths))
    if masked:
        rows = [row[:-len(_ROW_TAIL)] + _MASKED_TAIL if i in masked else row
                for i, row in enumerate(rows)]
    return tuple(rows)


def _repr_row(row: str, n: int) -> str:
    """An unmasked vector text of n ``%.9g`` pieces, with ``float.__repr__``
    of the quantized values in place of the pieces unless each is its own
    repr, or json's text when one is NaN or infinite."""
    if row.count(".") == n and row.count("e") == _ROW_E and "n" not in row:
        return row
    values = list(map(float, row[len(_ROW_HEAD):-len(_ROW_TAIL)].split(",")))
    body = ",".join(map(float.__repr__, values))
    # json writes a finite float as its repr; only nan/inf have an "n"
    return _encode({"vec": values, "masked": False}) if "n" in body else _ROW_HEAD + body + _ROW_TAIL


def _parse_vectors(texts: tuple[str, ...], lengths: tuple[int, ...]
                   ) -> tuple[tuple[float, ...], ...]:
    """The quantized vectors of vector texts: ``float`` reads each piece
    back exactly (a ``%.9g`` piece, a repr, NaN or Infinity), and a masked
    zero text gives the shared zero vector."""
    vectors = []
    for text, n in zip(texts, lengths):
        zero, zero_text = _masked_row(n)
        if text == zero_text:
            vectors.append(zero)
        else:
            body = text[len(_ROW_HEAD):text.index("]")]
            vectors.append(tuple(map(float, body.split(","))) if n else ())
    return tuple(vectors)


@lru_cache(maxsize=None)
def _masked_row(d: int) -> tuple[tuple[float, ...], str]:
    """The all-zero masked vector of dimension d and its JSON text."""
    return (0.0,) * d, f'{{"vec":[{",".join(["0.0"] * d)}],"masked":true}}'


class FeatureBundle:
    """A record's feature vectors, one per disease, and the indices of the
    masked ones.  A bundle holds one form and derives the other on first
    use: the numbers it was built from, whose JSON ``texts`` one ``%.9g``
    format quantizes, or the texts alone, whose ``vectors`` are parsed
    from them.  ``==`` and ``hash`` are on the quantized ``vectors`` and
    ``masked``, not on the texts: -0.0 equals 0.0."""

    __slots__ = ("masked", "_lengths", "_values", "_texts", "_vectors")

    def __init__(self, vectors: Iterable[Sequence[float]], masked: Iterable[int] = frozenset()):
        self._values = tuple(vectors)
        self._lengths = _shape(tuple(map(len, self._values)))
        self.masked = frozenset(masked)
        self._texts: Optional[tuple[str, ...]] = None
        self._vectors: Optional[tuple[tuple[float, ...], ...]] = None

    @classmethod
    def _of_texts(cls, texts: tuple[str, ...], lengths: tuple[int, ...],
                  masked: frozenset[int] = frozenset(),
                  vectors: Optional[tuple[tuple[float, ...], ...]] = None) -> "FeatureBundle":
        bundle = object.__new__(cls)
        bundle._texts, bundle._lengths, bundle.masked = texts, lengths, masked
        bundle._values, bundle._vectors = None, vectors
        return bundle

    @classmethod
    def from_flat(cls, values: tuple, lengths: tuple[int, ...]) -> "FeatureBundle":
        """The unmasked bundle of vectors of these lengths whose values, in
        order, are *values*: quantized to texts here, in one format."""
        return cls._of_texts(_vector_texts(values, lengths), _shape(lengths))

    @property
    def texts(self) -> tuple[str, ...]:
        """Each vector's JSON text, 9 significant digits a value."""
        if self._texts is None:
            self._texts = _vector_texts(tuple(chain.from_iterable(self._values)),
                                        self._lengths, self.masked)
        return self._texts

    @property
    def vectors(self) -> tuple[tuple[float, ...], ...]:
        """The quantized vectors: each value to 9 significant digits."""
        if self._vectors is None:
            self._vectors = _parse_vectors(self.texts, self._lengths)
        return self._vectors

    def _row(self, i: int) -> Sequence[float]:
        """Vector i as built, else as quantized: quantizing keeps a vector's
        length, and whether it is all zero."""
        return self.vectors[i] if self._values is None else self._values[i]

    def __len__(self) -> int:
        return len(self._lengths)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vectors, self.masked) == (other.vectors, other.masked)

    def __hash__(self) -> int:
        return hash((self.vectors, self.masked))

    def __repr__(self) -> str:
        return f"FeatureBundle(vectors={self.vectors!r}, masked={self.masked!r})"

    def mask(self, indices: Iterable[int]) -> "FeatureBundle":
        """This bundle with the vectors at *indices* zeroed and masked: a CSS
        twin's features.  It is built from the texts: the other texts, and
        vectors when this bundle has parsed them, are this bundle's own
        objects, and nothing is quantized again."""
        indices = frozenset(indices)
        texts = list(self.texts)
        vectors = None if self._vectors is None else list(self._vectors)
        for i in indices:
            zero, texts[i] = _masked_row(self._lengths[i])
            if vectors is not None:
                vectors[i] = zero
        return FeatureBundle._of_texts(tuple(texts), self._lengths, self.masked | indices,
                                       None if vectors is None else tuple(vectors))


@dataclass(frozen=True)
class ReportLabelVector:
    """One status per schema disease, indexed by disease index.  ``firsts``,
    outside ``==``, ``hash`` and ``repr``, holds ``label_report``'s first
    mentions; labels read from a file or built by hand carry ``()``."""

    statuses: tuple[DiseaseStatus, ...]
    firsts: tuple[int, ...] = field(default=(), compare=False, repr=False)

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
        return Record(self.id, self.report, self.features, labels, self.provenance, self.source_id)


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
        features = record.features
        for i, length in enumerate(features._lengths):
            if length != schema.d:
                return Violation(
                    "VectorLength",
                    f"feature vector {i} has length {length}, expected {schema.d}",
                )
            if i in features.masked and any(features._row(i)):
                return Violation("MaskNonZero", f"masked feature vector {i} has nonzero values")
    if record.labels is not None and len(record.labels.statuses) != n_c:
        return Violation(
            "LabelCount",
            f"label vector has {len(record.labels.statuses)} entries, schema has {n_c}",
        )
    return None


# ---------------------------------------------------------------------------
# serialization


# json.dumps with these arguments would build a new encoder on every call
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
_quote = json.encoder.encode_basestring  # what _encode writes a str as, in a list too
_SURROGATE = re.compile("[\ud800-\udfff]").search  # a lone one: no UTF-8 text holds it


def _obj_to_record(obj: dict, schema: LabelSchema, line_no: int, index: dict) -> Record:
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
        vectors, masked, with_ints = [], set(), []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "vec" not in entry:
                fail("feature entry must be an object with a 'vec' field")
            vec = entry["vec"]
            # json's true/false are ints to isinstance; only int and float are numbers
            kinds = set(map(type, vec)) if isinstance(vec, list) else None
            if kinds is None or not kinds <= {int, float}:
                fail("feature 'vec' must be a list of numbers")
            if int in kinds:
                with_ints.append(vec)
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
        # the bundle quantizes on first use; an int that no float holds fails here
        try:
            for vec in with_ints:
                list(map(float, vec))
        except OverflowError:
            fail("feature value outside the float range")
        features = FeatureBundle(vectors, masked)

    labels = None
    if "labels" in obj and obj["labels"] is not None:
        raw = obj["labels"]
        if not isinstance(raw, dict):
            fail("labels must be a mapping")
        statuses = [DiseaseStatus.UNMENTIONED] * len(schema)
        for name, value in raw.items():
            if name not in index:
                raise SchemaMismatch(f"line {line_no}: unknown disease name {name!r}")
            status = _STATUSES.get(value) if isinstance(value, str) else None  # [] is unhashable
            if status is None:
                fail(f"unknown status {value!r}")
            statuses[index[name]] = status
        labels = ReportLabelVector(tuple(statuses))

    prov_raw = obj.get("provenance")
    try:
        provenance = Provenance(prov_raw)
    except ValueError:
        fail(f"unknown provenance {prov_raw!r}")
    source_id = obj.get("source_id")
    if source_id is not None and not isinstance(source_id, str):
        fail("source_id must be a string")
    # JSON may escape a lone surrogate; an ASCII string holds none
    if not ("".join(texts).isascii() and rid.isascii() and (source_id or "").isascii()):
        lone = _SURROGATE("".join([rid, *texts, source_id or ""]))
        if lone:
            fail(f"lone surrogate {lone.group()!r} in a string")

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


@contextmanager
def reading(path: str) -> Iterator[Iterator[str]]:
    """The lines of the UTF-8 text file at *path*, newlines kept, each
    checked as it is read: a byte that is not UTF-8 is a ``MalformedRecord``
    of its line.  A byte-order mark that starts the file is dropped before
    line 1.  A ``MalformedRecord``, ``SchemaMismatch``, ``DuplicateRule``
    or ``ConfigInvalid`` raised in the block is raised again naming the file."""
    if not os.path.exists(path):
        raise MissingFile(path)
    try:
        # a strict decoder, which works in chunks, fails a bad byte before the lines ahead of it
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            if fh.buffer.peek(3).startswith(b"\xef\xbb\xbf"):  # dropped before any text is decoded
                fh.buffer.read(3)
            yield _utf8_lines(fh)
    except MalformedRecord as exc:
        raise MalformedRecord(exc.line, exc.reason, path) from None
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc.field_path}", exc.reason) from None
    except (SchemaMismatch, DuplicateRule) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _utf8_lines(lines: Iterable[str]) -> Iterator[str]:
    for line_no, line in enumerate(lines, start=1):
        # surrogateescape reads a bad byte as a lone surrogate, and nothing else as one
        bad = not line.isascii() and _SURROGATE(line)
        if bad:
            raise MalformedRecord(line_no, f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}")
        yield line


def read_schema(path: str) -> LabelSchema:
    with reading(path) as lines:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(lines, start=1) if ln.strip()]
        line_no, head = lines[0] if lines else (1, "")
        if not head.startswith("d="):
            raise MalformedRecord(line_no, "schema file must start with 'd=<int>'")
        try:
            d = int(head[2:])
        except ValueError:
            raise MalformedRecord(line_no, f"bad feature dimension {head!r}")
        try:
            return make_schema((name for _, name in lines[1:]), d)
        except ValueError as exc:
            raise SchemaMismatch(str(exc)) from None


def default_schema_path() -> str:
    """The 14-disease schema (d=16) that ships in the package."""
    return os.path.join(os.path.dirname(__file__), "data", "default_schema.txt")


def default_schema(d: int = 16) -> LabelSchema:
    return replace(read_schema(default_schema_path()), d=d)


@contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """A text file whose lines replace *path* when the block ends; on error
    the temporary file is removed and *path* is kept.  Like ``open``, it is
    created with mode 0o666 less the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-coaug-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def corpus_writer(path: str, schema: LabelSchema) -> Iterator[TextIO]:
    """An ``atomic_writer`` for a corpus's lines: once they replace *path*,
    the schema sidecar is written; on error neither is written."""
    with atomic_writer(path) as fh:
        yield fh
    write_schema(schema, schema_path_for(path))


def atomic_write_text(path: str, data: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(data)


_VALUE = attrgetter("_value_")  # an enum member's value, without the ``value`` descriptor
_PROVENANCE = ',"provenance":'  # once in a line without labels: a string's quotes are escaped
_PROVENANCE_PIECES = {p.value: _PROVENANCE + _encode(p.value) for p in Provenance}


@lru_cache(maxsize=16)
def _label_pieces(names: tuple[str, ...]) -> tuple[dict[str, str], ...]:
    """Per disease, each status value's ``"Name":"Status"`` piece; "" for Unmentioned."""
    return tuple({s.value: "" if s is DiseaseStatus.UNMENTIONED
                  else f"{_encode(name)}:{_encode(s.value)}" for s in DiseaseStatus}
                 for name in names)


def _labels_piece(labels: ReportLabelVector, schema: LabelSchema) -> str:
    pieces = map(dict.__getitem__, _label_pieces(schema.names), map(_VALUE, labels.statuses))
    return ',"labels":{' + ",".join(filter(None, pieces)) + "}"


def record_to_line(record: Record, schema: LabelSchema) -> str:
    """The record's JSON line, without the newline, in json's key order."""
    texts = ",".join(map(_quote, record.report.texts()))
    line = '{"id":' + _encode(record.id) + ',"report":[' + texts + "]"
    if record.features is not None:
        line += ',"features":[' + ",".join(record.features.texts) + "]"
    if record.labels is not None:
        line += _labels_piece(record.labels, schema)
    line += _PROVENANCE_PIECES[_VALUE(record.provenance)]
    if record.source_id is not None:
        line += ',"source_id":' + _encode(record.source_id)
    return line + "}"


def labeled_line(line: str, record: Record, schema: LabelSchema) -> str:
    """``record_to_line(record, schema)`` from *line*, the line of *record*
    without its labels: the labels piece goes in before the provenance."""
    at = line.rindex(_PROVENANCE)
    return line[:at] + _labels_piece(record.labels, schema) + line[at:]


def write_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus atomically; identical corpora yield identical bytes."""
    with corpus_writer(path, corpus.schema) as fh:
        fh.writelines(record_to_line(record, corpus.schema) + "\n" for record in corpus)


def iter_corpus(path: str, schema: LabelSchema) -> Iterator[Record]:
    """The records of the corpus at *path*, read and checked one line at a
    time; a line error names the file.  The file must exist and *schema*
    must equal its sidecar, when there is one: both are checked before
    this returns."""
    if not os.path.exists(path):
        raise MissingFile(path)
    sidecar = schema_path_for(path)
    if os.path.exists(sidecar) and read_schema(sidecar) != schema:
        raise SchemaMismatch(f"{path}: the given schema differs from {sidecar}")
    return _read_records(path, schema)


def _read_records(path: str, schema: LabelSchema) -> Iterator[Record]:
    # the ids read so far, as a dict's keys: a set of 1,500 takes 128 KiB, a dict 50
    seen, index = {}, {name: i for i, name in enumerate(schema.names)}
    with reading(path) as lines:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}")
            record = _obj_to_record(obj, schema, line_no, index)
            if record.id in seen:
                raise MalformedRecord(line_no, f"duplicate record id {record.id!r}")
            seen[record.id] = None
            yield record


def read_corpus(path: str, schema: Optional[LabelSchema] = None) -> Corpus:
    """The corpus of ``iter_corpus``; the schema comes from the sidecar
    file unless given."""
    if schema is not None:
        return Corpus(schema, tuple(iter_corpus(path, schema)))
    if not os.path.exists(path):
        raise MissingFile(path)
    schema = read_schema(schema_path_for(path))  # the sidecar's own: nothing to compare
    return Corpus(schema, tuple(_read_records(path, schema)))
