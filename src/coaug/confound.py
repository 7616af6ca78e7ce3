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

Contingency tables and lift are read off one joint count per pair: how
many records have each (stratum, status of A, status of B).

Association direction is the sign of the log odds ratio, computed by
exact integer cross-multiplication so scaling all counts never flips it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .corpus import Corpus, DiseaseStatus
from .errors import (
    EmptyTable,
    InsufficientStrata,
    MissingLabels,
    NoCooccurrence,
    UndefinedConditional,
    UndefinedLift,
)
from .labeler import Matcher, label_sentence


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
# corpus scans


_POS, _NEG, _UNM = DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE, DiseaseStatus.UNMENTIONED
_STATUS_STRATA = ("Positive", "Negative", "Uncertain", "Unmentioned")
_PROVENANCE_STRATA = ("Original", "Counterfactual")


def _joint_counts(corpus: Corpus, a: int, b: int, strata: Iterable[str]) -> Counter:
    """Records per (stratum, status of a, status of b).  ``strata`` runs in
    step with the records and is drawn only once every record is known to
    carry labels, so a generator over the records may read them."""
    try:
        rows = [record.labels.statuses for record in corpus]
    except AttributeError:
        record = next(r for r in corpus if r.labels is None)
        raise MissingLabels(
            f"record {record.id!r} has no labels; run label_report first"
        ) from None
    return Counter(zip(strata, map(itemgetter(a), rows), map(itemgetter(b), rows)))


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
    if stratify_by is None:
        keys: tuple[str, ...] = ("all",)
        strata: Iterable[str] = repeat("all")
    elif stratify_by == "provenance":
        keys = _PROVENANCE_STRATA
        strata = (record.provenance.value for record in corpus)
    else:
        keys = _STATUS_STRATA
        strata = (record.labels.statuses[stratify_by].value for record in corpus)
    counts = _joint_counts(corpus, a, b, strata)

    tables = {}
    for key in keys:
        by_a = [(sa, c) for (k, sa, _), c in counts.items() if k == key]
        tables[key] = ContingencyTable(
            counts[key, _POS, _POS], counts[key, _POS, _NEG],
            counts[key, _NEG, _POS], counts[key, _NEG, _NEG],
            sum(c for sa, c in by_a if sa is _POS),
            sum(c for sa, c in by_a if sa is _NEG),
            sum(c for _, c in by_a),
        )
    return StratifiedTables(tables, reduce(add_tables, tables.values()))


def co_mention_lift(corpus: Corpus, a: int, b: int) -> float:
    """P(a and b both mentioned) / (P(a mentioned) * P(b mentioned)),
    where mentioned means any status but Unmentioned."""
    n = len(corpus)
    if n == 0:
        raise UndefinedLift("empty corpus")
    counts = _joint_counts(corpus, a, b, repeat("all"))
    n_a = sum(c for (_, sa, _), c in counts.items() if sa is not _UNM)
    n_b = sum(c for (_, _, sb), c in counts.items() if sb is not _UNM)
    n_ab = sum(c for (_, sa, sb), c in counts.items() if sa is not _UNM and sb is not _UNM)
    if n_a == 0 or n_b == 0:
        raise UndefinedLift("a disease is never mentioned")
    return (n_ab / n) / ((n_a / n) * (n_b / n))


def first_mention_table(corpus: Corpus, matcher: Matcher) -> list[list[Optional[int]]]:
    """Per record, the index of the first sentence mentioning each
    disease (None when unmentioned).  Shared by all pairwise scans."""
    table = []
    n_c = len(matcher.schema)
    for record in corpus:
        firsts: list[Optional[int]] = [None] * n_c
        for s_idx, sentence in enumerate(record.report.sentences):
            for disease in label_sentence(sentence, matcher):
                if firsts[disease] is None:
                    firsts[disease] = s_idx
        table.append(firsts)
    return table


def order_asymmetry_from_table(
    table: Sequence[Sequence[Optional[int]]],
    a: int,
    b: int,
) -> OrderAsymmetry:
    a_first = b_first = 0
    for firsts in table:
        sa, sb = firsts[a], firsts[b]
        if sa is None or sb is None or sa == sb:
            continue
        if sa < sb:
            a_first += 1
        else:
            b_first += 1
    count = a_first + b_first
    if count == 0:
        raise NoCooccurrence("no report mentions both diseases in distinct sentences")
    return OrderAsymmetry(count, abs(a_first - b_first) / count)


def order_asymmetry(
    corpus: Corpus,
    matcher: Matcher,
    a: int,
    b: int,
) -> OrderAsymmetry:
    """Directional bias of sentence order for a disease pair: 1.0 when
    one disease's first sentence always precedes the other's, 0 when
    the two orders are equally common."""
    return order_asymmetry_from_table(first_mention_table(corpus, matcher), a, b)
