"""Co-occurrence confounder statistics over labeled corpora.

Quantifies how strongly two diseases associate in a corpus and whether
that association reverses inside sub-populations:

* 2x2 contingency tables (with the Uncertain/Unmentioned residual kept
  in ``total_population`` and the exposure margins, so conditional
  probabilities are taken over all exposure-classified records);
* conditional probabilities, odds ratio (Haldane-Anscombe corrected on
  zero cells) and the independence gap P(A+ and B+) - P(A+)P(B+) over
  the four classified cells;
* aggregate-vs-strata reversal detection on log-odds-ratio signs;
* report-level co-mention lift and directional sentence-order asymmetry.

The statistics read ``LabelColumns``, a few bytes per record filled one
record at a time: each cell, margin, stratum and lift count is a count of
(stratum, status of A, status of B) over two or three zipped byte
columns, and order asymmetry zips two columns of ``label_report``'s first mentions.

Association direction is the sign of the log odds ratio, computed by
exact integer cross-multiplication so scaling all counts never flips it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

from .corpus import Corpus, DiseaseStatus, Provenance, Record
from .errors import (
    EmptyTable,
    InsufficientStrata,
    MissingLabels,
    NoCooccurrence,
    UndefinedConditional,
    UndefinedLift,
)
# label_sentence is unused here: perfbench/tracer.py wraps this module's binding
from .labeler import Matcher, label_report, label_sentence  # noqa: F401


@dataclass(frozen=True)
class ContingencyTable:
    """Counts for exposure disease A (rows, +/-) against outcome disease
    B (columns, +/-).

    ``margin_a_pos``/``margin_a_neg`` count every record whose A status
    is Positive/Negative, including those whose B status is Uncertain or
    Unmentioned and therefore lands in no cell; ``total_population``
    additionally counts records whose A status is unclassified.  Both
    default to the corresponding cell sums.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    margin_a_pos: Optional[int] = None
    margin_a_neg: Optional[int] = None
    total_population: Optional[int] = None

    def __post_init__(self):
        for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.margin_a_pos is None:
            object.__setattr__(self, "margin_a_pos", self.n_pp + self.n_pm)
        if self.margin_a_neg is None:
            object.__setattr__(self, "margin_a_neg", self.n_mp + self.n_mm)
        if self.total_population is None:
            object.__setattr__(
                self, "total_population", self.margin_a_pos + self.margin_a_neg
            )
        if self.margin_a_pos < self.n_pp + self.n_pm:
            raise ValueError("margin_a_pos smaller than its cells")
        if self.margin_a_neg < self.n_mp + self.n_mm:
            raise ValueError("margin_a_neg smaller than its cells")
        if self.total_population < self.margin_a_pos + self.margin_a_neg:
            raise ValueError("total_population smaller than the A margins")

    @property
    def cell_total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def cells(self) -> tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)

    def scaled(self, factor: int) -> "ContingencyTable":
        return ContingencyTable(
            self.n_pp * factor,
            self.n_pm * factor,
            self.n_mp * factor,
            self.n_mm * factor,
            self.margin_a_pos * factor,
            self.margin_a_neg * factor,
            self.total_population * factor,
        )


def add_tables(a: ContingencyTable, b: ContingencyTable) -> ContingencyTable:
    return ContingencyTable(
        a.n_pp + b.n_pp,
        a.n_pm + b.n_pm,
        a.n_mp + b.n_mp,
        a.n_mm + b.n_mm,
        a.margin_a_pos + b.margin_a_pos,
        a.margin_a_neg + b.margin_a_neg,
        a.total_population + b.total_population,
    )


@dataclass(frozen=True)
class StratifiedTables:
    """Per-stratum tables plus their aggregate; cells add up exactly."""

    strata: dict[str, ContingencyTable]
    aggregate: ContingencyTable

    def __post_init__(self):
        sums = [0, 0, 0, 0]
        for table in self.strata.values():
            for i, c in enumerate(table.cells()):
                sums[i] += c
        if tuple(sums) != self.aggregate.cells():
            raise ValueError("stratum cells do not sum to the aggregate")


@dataclass(frozen=True)
class AssociationStats:
    odds_ratio: float
    independence_gap: float


@dataclass(frozen=True)
class SimpsonReport:
    aggregate_direction: int
    strata_directions: tuple[int, ...]
    reversal: bool


@dataclass(frozen=True)
class OrderAsymmetry:
    co_occur_count: int
    asym: float


def conditional_probability(t: ContingencyTable) -> tuple[float, float, float, float]:
    """(P(B+|A+), P(B+|A-), P(B-|A+), P(B-|A-)), denominators being the
    full exposure margins."""
    if t.margin_a_pos == 0 or t.margin_a_neg == 0:
        raise UndefinedConditional("a row margin is zero")
    return (
        t.n_pp / t.margin_a_pos,
        t.n_mp / t.margin_a_neg,
        t.n_pm / t.margin_a_pos,
        t.n_mm / t.margin_a_neg,
    )


def _corrected_cells(t: ContingencyTable) -> tuple[float, float, float, float]:
    # Haldane-Anscombe: +0.5 everywhere as soon as any cell is zero
    if 0 in t.cells():
        return tuple(c + 0.5 for c in t.cells())  # type: ignore[return-value]
    return tuple(float(c) for c in t.cells())  # type: ignore[return-value]


def odds_ratio(t: ContingencyTable) -> float:
    pp, pm, mp, mm = _corrected_cells(t)
    return (pp * mm) / (pm * mp)


def or_sign(t: ContingencyTable) -> int:
    """Sign of the log odds ratio; 0 when a row or column margin is zero
    (no direction) or the ratio is exactly 1.

    Uses the exact uncorrected cross-product comparison (scaling every
    count by the same factor scales both sides by its square, so the
    sign can never flip); the +0.5 correction applies only to the
    reported ratio value, where it would break that invariance."""
    if (
        t.n_pp + t.n_pm == 0
        or t.n_mp + t.n_mm == 0
        or t.n_pp + t.n_mp == 0
        or t.n_pm + t.n_mm == 0
    ):
        return 0
    lhs = t.n_pp * t.n_mm
    rhs = t.n_pm * t.n_mp
    return (lhs > rhs) - (lhs < rhs)


def association_stats(t: ContingencyTable) -> AssociationStats:
    """Odds ratio and independence gap over the four classified cells."""
    n = t.cell_total
    if n == 0:
        raise EmptyTable("all four cells are zero")
    gap = t.n_pp / n - ((t.n_pp + t.n_pm) / n) * ((t.n_pp + t.n_mp) / n)
    return AssociationStats(
        odds_ratio=odds_ratio(t),
        independence_gap=gap,
    )


def detect_simpson_reversal(st: StratifiedTables) -> SimpsonReport:
    """Reversal: the aggregate has a direction and every directional
    stratum points the opposite way (zero-sign strata are ignored)."""
    if len(st.strata) < 2:
        raise InsufficientStrata(f"need >= 2 strata, got {len(st.strata)}")
    agg = or_sign(st.aggregate)
    signs = tuple(or_sign(t) for t in st.strata.values())
    nonzero = [s for s in signs if s != 0]
    reversal = agg != 0 and bool(nonzero) and all(s == -agg for s in nonzero)
    return SimpsonReport(agg, signs, reversal)


# ---------------------------------------------------------------------------
# corpus columns


_STATUSES = tuple(DiseaseStatus)  # a status's code is its index here
_CODES = range(len(_STATUSES))
_POS, _NEG, _UNC, _UNM = _CODES
_STATUS_STRATA = tuple(status.value for status in _STATUSES)
_PROVENANCES = tuple(Provenance)
_PROVENANCE_STRATA = tuple(provenance.value for provenance in _PROVENANCES)


class LabelColumns:
    """A corpus as columns, filled one record at a time.  Per record, row
    after row: one status code byte per disease (the status's index in
    ``DiseaseStatus``), the provenance code, and each disease's first-mention
    sentence index as ``label_report`` found it (-1: none, or none given).
    The pair statistics read these bytes; they keep no record, label
    nothing and hash no status."""

    def __init__(self, n_diseases: int):
        self.n_diseases = n_diseases
        self.statuses = bytearray()
        self.provenance = bytearray()
        self.firsts = array("b")  # widened to "i" by a first mention past sentence 127
        self.unlabeled: Optional[str] = None  # the id of the first record without labels

    @classmethod
    def of(cls, corpus: Corpus, matcher: Optional[Matcher] = None) -> "LabelColumns":
        """Every record of *corpus*'s columns, in order, with *matcher*'s first mentions if given."""
        columns = cls(len(corpus.schema))
        for record in corpus:
            columns.append(record, () if matcher is None
                           else label_report(record.report, matcher).firsts)
        return columns

    def __len__(self) -> int:
        return len(self.provenance)

    def append(self, record: Record, firsts: Sequence[int] = ()) -> None:
        """Add *record*'s row with its first mentions (empty: none).  A record
        without labels makes the label statistics raise ``MissingLabels``."""
        n = self.n_diseases
        if firsts and len(firsts) != n:
            raise ValueError(f"record {record.id!r} has {len(firsts)} first mentions, expected {n}")
        if record.labels is None:
            if self.unlabeled is None:
                self.unlabeled = record.id
            codes = bytes([_UNM]) * n
        else:
            codes = bytes(map(_STATUSES.index, record.labels.statuses))
            if len(codes) != n:
                raise ValueError(f"record {record.id!r} has {len(codes)} labels, expected {n}")
        self.statuses += codes
        self.provenance.append(_PROVENANCES.index(record.provenance))
        self._add_firsts(firsts or (-1,) * n)

    def extend(self, other: "LabelColumns", rows: Iterable[int]) -> None:
        """Append the rows of *other* at *rows*, in that order; *other*'s
        records must all carry labels."""
        if other.unlabeled is not None:
            raise ValueError(f"record {other.unlabeled!r} has no labels")
        n = self.n_diseases
        for row in rows:
            self.statuses += other.statuses[row * n:(row + 1) * n]
            self.provenance.append(other.provenance[row])
            self._add_firsts(other.firsts[row * n:(row + 1) * n])

    def status_counts(self) -> list[dict[str, int]]:
        """Per disease, its records of each status, keyed by the status's value."""
        return [{value: self._column(self.statuses, disease).count(code)
                 for code, value in enumerate(_STATUS_STRATA)}
                for disease in range(self.n_diseases)]

    def _add_firsts(self, firsts) -> None:
        try:
            self.firsts += array(self.firsts.typecode, firsts)
        except OverflowError:
            self.firsts = array("i", self.firsts)
            self.firsts += array("i", firsts)

    def _column(self, values, disease: int):
        """Every record's entry for *disease* in a row-major column."""
        return values[range(self.n_diseases)[disease]::self.n_diseases]

    def _joint(self, strata, a: int, b: int) -> Counter:
        """Records per (stratum code, status code of a, status code of b)."""
        if self.unlabeled is not None:
            raise MissingLabels(
                f"record {self.unlabeled!r} has no labels; run label_report first")
        column = self._column
        return Counter(zip(strata, column(self.statuses, a), column(self.statuses, b)))

    def contingency(self, a: int, b: int, stratify_by: Optional[str | int] = None
                    ) -> StratifiedTables:
        """``build_contingency`` of these columns."""
        if stratify_by is None:
            keys, strata = ("all",), bytes(len(self))
        elif stratify_by == "provenance":
            keys, strata = _PROVENANCE_STRATA, self.provenance
        else:
            keys, strata = _STATUS_STRATA, self._column(self.statuses, stratify_by)
        counts = self._joint(strata, a, b)
        tables = {}
        for k, key in enumerate(keys):
            by_a = [sum(counts[k, sa, sb] for sb in _CODES) for sa in _CODES]
            tables[key] = ContingencyTable(
                counts[k, _POS, _POS], counts[k, _POS, _NEG],
                counts[k, _NEG, _POS], counts[k, _NEG, _NEG],
                by_a[_POS], by_a[_NEG], sum(by_a),
            )
        return StratifiedTables(tables, reduce(add_tables, tables.values()))

    def lift(self, a: int, b: int) -> float:
        """``co_mention_lift`` of these columns."""
        n = len(self)
        if n == 0:
            raise UndefinedLift("empty corpus")
        counts = self._joint(bytes(n), a, b)
        n_a = sum(c for (_, sa, _), c in counts.items() if sa != _UNM)
        n_b = sum(c for (_, _, sb), c in counts.items() if sb != _UNM)
        n_ab = sum(c for (_, sa, sb), c in counts.items() if sa != _UNM and sb != _UNM)
        if n_a == 0 or n_b == 0:
            raise UndefinedLift("a disease is never mentioned")
        return (n_ab / n) / ((n_a / n) * (n_b / n))

    def order_asymmetry(self, a: int, b: int) -> OrderAsymmetry:
        """``order_asymmetry`` of these columns."""
        return _order_asymmetry(self._column(self.firsts, a), self._column(self.firsts, b))


def _order_asymmetry(firsts_a: Iterable[int], firsts_b: Iterable[int]) -> OrderAsymmetry:
    """From each record's first-mention sentence of a and of b (-1: none)."""
    a_first = b_first = 0
    for sa, sb in zip(firsts_a, firsts_b):
        if sa < 0 or sb < 0 or sa == sb:
            continue
        if sa < sb:
            a_first += 1
        else:
            b_first += 1
    count = a_first + b_first
    if count == 0:
        raise NoCooccurrence("no report mentions both diseases in distinct sentences")
    return OrderAsymmetry(count, abs(a_first - b_first) / count)


# ---------------------------------------------------------------------------
# corpus statistics: the columns of the corpus, then the column function


def build_contingency(
    corpus: Corpus,
    a: int,
    b: int,
    stratify_by: Optional[str | int] = None,
) -> StratifiedTables:
    """Count A-vs-B cells over a labeled corpus.

    Records where either disease is Uncertain/Unmentioned contribute to
    ``total_population`` (and, when A is classified, to the A margin)
    but to no cell.  ``stratify_by`` is None, ``"provenance"``, or a
    third disease index (stratum = its status).
    """
    return LabelColumns.of(corpus).contingency(a, b, stratify_by)


def co_mention_lift(corpus: Corpus, a: int, b: int) -> float:
    """P(a and b both mentioned) / (P(a mentioned) * P(b mentioned)),
    where mentioned means any status but Unmentioned."""
    return LabelColumns.of(corpus).lift(a, b)


def first_mention_table(corpus: Corpus, matcher: Matcher) -> list[list[Optional[int]]]:
    """Per record, the index of the first sentence mentioning each
    disease (None when unmentioned)."""
    return [[None if f < 0 else f for f in label_report(record.report, matcher).firsts]
            for record in corpus]


def order_asymmetry_from_table(
    table: Sequence[Sequence[Optional[int]]],
    a: int,
    b: int,
) -> OrderAsymmetry:
    """``order_asymmetry`` of a ``first_mention_table``."""
    return _order_asymmetry(*([-1 if row[i] is None else row[i] for row in table] for i in (a, b)))


def order_asymmetry(
    corpus: Corpus,
    matcher: Matcher,
    a: int,
    b: int,
) -> OrderAsymmetry:
    """Directional bias of sentence order for a disease pair: 1.0 when
    one disease's first sentence always precedes the other's, 0 when
    the two orders are equally common."""
    return LabelColumns.of(corpus, matcher).order_asymmetry(a, b)
