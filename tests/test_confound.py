import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.confound import (
    ContingencyTable,
    LabelColumns,
    OrderAsymmetry,
    StratifiedTables,
    add_tables,
    association_stats,
    build_contingency,
    co_mention_lift,
    conditional_probability,
    detect_simpson_reversal,
    first_mention_table,
    odds_ratio,
    order_asymmetry,
    order_asymmetry_from_table,
    or_sign,
)
from coaug.corpus import Corpus, DiseaseStatus, Provenance, Report, ReportLabelVector
from coaug.errors import (
    EmptyTable,
    InsufficientStrata,
    MissingLabels,
    NoCooccurrence,
    UndefinedConditional,
    UndefinedLift,
)
from coaug.synth import OrderPolicy, PlantedPair, SynthConfig, synth_generate
from coaug.labeler import label_corpus, label_report, label_sentence

from conftest import make_record

# counts for the Pneumothorax/Pleural-Effusion distribution fixture
T1 = ContingencyTable(3552, 1345, 30988, 153822, 7667, 195425, 203092)

POS, NEG, UNM = DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE, DiseaseStatus.UNMENTIONED


def label_vec(schema, **statuses):
    out = [UNM] * len(schema)
    for name, status in statuses.items():
        out[schema.index_of(name)] = status
    return ReportLabelVector(tuple(out))


# ---------------------------------------------------------------------------
# contingency arithmetic


def test_reference_conditionals_at_three_decimals():
    p_pp, p_mp, p_pm, p_mm = conditional_probability(T1)
    assert round(p_pp, 3) == 0.463
    assert round(p_mp, 3) == 0.159
    assert round(p_pm, 3) == 0.175
    assert round(p_mm, 3) == 0.787
    assert round(T1.cell_total / T1.total_population, 3) == 0.934


def test_uniform_table_conditionals():
    table = ContingencyTable(10, 10, 10, 10)
    assert conditional_probability(table) == (0.5, 0.5, 0.5, 0.5)


def test_zero_margin_is_undefined():
    with pytest.raises(UndefinedConditional):
        conditional_probability(ContingencyTable(0, 0, 5, 5))


def test_reference_independence_gap():
    # 3552/189707 - (4897/189707)(34540/189707), hand arithmetic
    gap = association_stats(T1).independence_gap
    assert abs(gap - 0.0140237) < 1e-5
    assert abs(gap - (0.01872 - 0.00470)) < 1e-5


def test_independent_table_gap_zero_or_one():
    stats = association_stats(ContingencyTable(25, 25, 25, 25))
    assert stats.independence_gap == 0.0
    assert stats.odds_ratio == 1.0
    # non-uniform margin-product cells: rows (40, 20) x cols (15, 45) / 60
    skewed = association_stats(ContingencyTable(10, 30, 5, 15))
    assert skewed.independence_gap == 0.0
    assert skewed.odds_ratio == 1.0


def test_haldane_anscombe_correction():
    assert association_stats(ContingencyTable(1, 0, 0, 1)).odds_ratio == 9.0


def test_empty_table():
    with pytest.raises(EmptyTable):
        association_stats(ContingencyTable(0, 0, 0, 0, 1, 1, 5))


def test_margins_must_cover_cells():
    with pytest.raises(ValueError):
        ContingencyTable(5, 5, 0, 0, margin_a_pos=9)
    with pytest.raises(ValueError):
        ContingencyTable(1, 1, 1, 1, total_population=3)


@settings(max_examples=300, deadline=None)
@given(
    cells=st.tuples(*([st.integers(min_value=0, max_value=500)] * 4)),
)
def test_gap_is_bounded(cells):
    if sum(cells) == 0:
        return
    stats = association_stats(ContingencyTable(*cells))
    assert -0.25 <= stats.independence_gap <= 0.25
    assert stats.odds_ratio > 0


# ---------------------------------------------------------------------------
# reversal detection


def classic_reversal():
    s1 = ContingencyTable(90, 10, 800, 200)
    s2 = ContingencyTable(200, 800, 10, 90)
    return StratifiedTables({"s1": s1, "s2": s2}, add_tables(s1, s2))


def test_classic_reversal_fixture():
    st_tables = classic_reversal()
    assert odds_ratio(st_tables.strata["s1"]) == 2.25
    assert odds_ratio(st_tables.strata["s2"]) == 2.25
    assert round(odds_ratio(st_tables.aggregate), 3) == 0.128
    report = detect_simpson_reversal(st_tables)
    assert report.reversal is True
    assert report.aggregate_direction == -1
    assert report.strata_directions == (1, 1)


def test_independent_strata_no_reversal():
    s = ContingencyTable(25, 25, 25, 25)
    tables = StratifiedTables({"s1": s, "s2": s}, add_tables(s, s))
    report = detect_simpson_reversal(tables)
    assert report.reversal is False
    assert report.aggregate_direction == 0


def test_zero_margin_stratum_ignored():
    # one stratum with an empty exposure row (sign 0), the other opposing
    # the aggregate: hand-computed ORs 2.25 vs ~0.394
    s1 = ContingencyTable(0, 0, 4000, 10)
    s2 = ContingencyTable(90, 10, 800, 200)
    agg = add_tables(s1, s2)
    assert or_sign(s1) == 0
    assert or_sign(s2) == 1
    assert round(odds_ratio(agg), 3) == 0.394
    report = detect_simpson_reversal(StratifiedTables({"s1": s1, "s2": s2}, agg))
    assert report.reversal is True


def test_insufficient_strata():
    s = ContingencyTable(1, 2, 3, 4)
    with pytest.raises(InsufficientStrata):
        detect_simpson_reversal(StratifiedTables({"only": s}, s))


def test_reversal_invariant_under_uniform_scaling_fuzz():
    rng = random.Random(20240501)
    for _ in range(1200):
        n_strata = rng.randint(2, 4)
        strata = {}
        agg = ContingencyTable(0, 0, 0, 0)
        for i in range(n_strata):
            cells = [rng.randint(0, 40) for _ in range(4)]
            strata[f"s{i}"] = ContingencyTable(*cells)
            agg = add_tables(agg, strata[f"s{i}"])
        base = detect_simpson_reversal(StratifiedTables(strata, agg))
        factor = rng.randint(2, 100)
        scaled = {key: t.scaled(factor) for key, t in strata.items()}
        rescaled = detect_simpson_reversal(
            StratifiedTables(scaled, agg.scaled(factor))
        )
        assert rescaled.reversal == base.reversal
        assert rescaled.aggregate_direction == base.aggregate_direction
        assert rescaled.strata_directions == base.strata_directions


# ---------------------------------------------------------------------------
# corpus scans


def test_build_contingency_reproduces_reference_counts(schema):
    records = []
    combos = [
        (POS, POS, 3552),
        (POS, NEG, 1345),
        (NEG, POS, 30988),
        (NEG, NEG, 153822),
        (POS, UNM, 7667 - 3552 - 1345),
        (NEG, UNM, 195425 - 30988 - 153822),
    ]
    # one record per combination, then scale the counts via table arithmetic:
    # building 203092 records would be slow, so verify on a 1/1000 thinning
    # plus exact margins through a handmade scaled corpus below.
    idx = 0
    for st_a, st_b, count in combos:
        for _ in range(max(1, count // 1000)):
            records.append(
                make_record(
                    f"r{idx}", ["Filler sentence."], schema, features=False,
                    labels=label_vec(schema, **{"Pneumothorax": st_a, "Pleural Effusion": st_b}),
                )
            )
            idx += 1
    corpus = Corpus(schema, tuple(records))
    tables = build_contingency(corpus, 8, 9)
    t = tables.aggregate
    assert t.cells() == (3552 // 1000, 1345 // 1000, 30988 // 1000, 153822 // 1000)
    assert t.margin_a_pos == 3 + 1 + (7667 - 4897) // 1000
    assert t.total_population == len(records)


def test_build_contingency_empty_corpus(schema):
    tables = build_contingency(Corpus(schema, ()), 8, 9)
    assert tables.aggregate.cells() == (0, 0, 0, 0)
    assert tables.aggregate.total_population == 0


def test_build_contingency_requires_labels(schema):
    corpus = Corpus(schema, (make_record("r", ["Sentence."], schema, features=False),))
    with pytest.raises(MissingLabels):
        build_contingency(corpus, 8, 9)


def test_stratified_by_provenance_sums_to_aggregate(schema):
    records = []
    rng = random.Random(5)
    for i in range(200):
        prov = Provenance.ORIGINAL if i % 2 == 0 else Provenance.COUNTERFACTUAL
        statuses = {
            "Pneumothorax": rng.choice([POS, NEG, UNM]),
            "Pleural Effusion": rng.choice([POS, NEG, UNM]),
        }
        records.append(
            make_record(
                f"r{i}", ["Sentence."], schema, features=False,
                labels=label_vec(schema, **statuses),
                provenance=prov, source_id="src" if prov is Provenance.COUNTERFACTUAL else None,
            )
        )
    tables = build_contingency(Corpus(schema, tuple(records)), 8, 9, "provenance")
    assert set(tables.strata) == {"Original", "Counterfactual"}
    summed = ContingencyTable(0, 0, 0, 0, 0, 0, 0)
    for t in tables.strata.values():
        summed = add_tables(summed, t)
    assert summed == tables.aggregate


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stratum_additivity_by_third_disease(schema, data):
    n = data.draw(st.integers(min_value=1, max_value=60))
    statuses = [POS, NEG, DiseaseStatus.UNCERTAIN, UNM]
    records = []
    for i in range(n):
        records.append(
            make_record(
                f"r{i}", ["Sentence."], schema, features=False,
                labels=label_vec(
                    schema,
                    **{
                        "Pneumothorax": data.draw(st.sampled_from(statuses)),
                        "Pleural Effusion": data.draw(st.sampled_from(statuses)),
                        "Edema": data.draw(st.sampled_from(statuses)),
                    },
                ),
            )
        )
    tables = build_contingency(
        Corpus(schema, tuple(records)), 8, 9, schema.index_of("Edema")
    )
    assert list(tables.strata) == ["Positive", "Negative", "Uncertain", "Unmentioned"]
    for i in range(4):
        assert (
            sum(t.cells()[i] for t in tables.strata.values())
            == tables.aggregate.cells()[i]
        )
    assert (
        sum(t.total_population for t in tables.strata.values())
        == tables.aggregate.total_population
        == n
    )


# ---------------------------------------------------------------------------
# lift


def test_lift_every_report_mentions_both(schema):
    records = [
        make_record(
            f"r{i}", ["Sentence."], schema, features=False,
            labels=label_vec(schema, **{"Pneumothorax": POS, "Pleural Effusion": NEG}),
        )
        for i in range(10)
    ]
    assert co_mention_lift(Corpus(schema, tuple(records)), 8, 9) == 1.0


def test_lift_never_together(schema):
    records = []
    for i in range(10):
        statuses = {"Pneumothorax": POS} if i % 2 == 0 else {"Pleural Effusion": POS}
        records.append(
            make_record(
                f"r{i}", ["Sentence."], schema, features=False,
                labels=label_vec(schema, **statuses),
            )
        )
    assert co_mention_lift(Corpus(schema, tuple(records)), 8, 9) == 0.0


def test_lift_undefined_when_never_mentioned(schema):
    records = [
        make_record(
            "r0", ["Sentence."], schema, features=False, labels=label_vec(schema)
        )
    ]
    with pytest.raises(UndefinedLift):
        co_mention_lift(Corpus(schema, tuple(records)), 8, 9)


def test_planted_lift_two_at_desk_scale(schema, matcher):
    # plant P(B+|A+)=0.6, P(B+|A-)=0.225 with P(A+)=0.2 and positive-only
    # mentions: mention lift = 0.6 / P(B+) = 2.0 before the no-mention drop
    cfg = SynthConfig(
        n_records=20000,
        seed=13,
        marginals={i: (0.2 if i == 8 else 0.3) for i in range(14) if i != 9},
        templates=_templates(schema),
        planted=(PlantedPair(8, 9, 0.6, 0.225),),
        mention_positive=1.0,
        mention_negative=0.0,
        noise_sigma=0.0,
    )
    labeled = label_corpus(synth_generate(cfg, schema), matcher)
    lift = co_mention_lift(labeled, 8, 9)
    assert 1.9 <= lift <= 2.1


# ---------------------------------------------------------------------------
# the joint-count scans against the per-record loops they replaced


def _loop_require_labels(record):
    if record.labels is None:
        raise MissingLabels(f"record {record.id!r} has no labels; run label_report first")


def _loop_build_contingency(corpus, a, b, stratify_by=None):
    """The per-record loop that ``build_contingency`` replaced."""
    binary = (POS, NEG)
    if stratify_by is None:
        keys = ("all",)
    elif stratify_by == "provenance":
        keys = ("Original", "Counterfactual")
    else:
        keys = ("Positive", "Negative", "Uncertain", "Unmentioned")
    counts = {key: [0, 0, 0, 0, 0, 0, 0] for key in keys}  # cells + margins + total
    for record in corpus:
        _loop_require_labels(record)
        if stratify_by is None:
            key = "all"
        elif stratify_by == "provenance":
            key = record.provenance.value
        else:
            key = record.labels.statuses[stratify_by].value
        row = counts[key]
        row[6] += 1
        st_a = record.labels.statuses[a]
        st_b = record.labels.statuses[b]
        if st_a is POS:
            row[4] += 1
        elif st_a is NEG:
            row[5] += 1
        if st_a in binary and st_b in binary:
            row[(0 if st_a is POS else 2) + (0 if st_b is POS else 1)] += 1
    strata = {
        key: ContingencyTable(*row[:4], row[4], row[5], row[6]) for key, row in counts.items()
    }
    aggregate = ContingencyTable(0, 0, 0, 0, 0, 0, 0)
    for table in strata.values():
        aggregate = add_tables(aggregate, table)
    return StratifiedTables(strata, aggregate)


def _loop_co_mention_lift(corpus, a, b):
    """The per-record loop that ``co_mention_lift`` replaced."""
    n = len(corpus)
    if n == 0:
        raise UndefinedLift("empty corpus")
    n_a = n_b = n_ab = 0
    for record in corpus:
        _loop_require_labels(record)
        ma = record.labels.mentioned(a)
        mb = record.labels.mentioned(b)
        n_a += ma
        n_b += mb
        n_ab += ma and mb
    if n_a == 0 or n_b == 0:
        raise UndefinedLift("a disease is never mentioned")
    return (n_ab / n) / ((n_a / n) * (n_b / n))


def _loop_first_mention_table(corpus, matcher):
    """The per-record loop that ``first_mention_table`` replaced."""
    table = []
    for record in corpus:
        firsts = [None] * len(corpus.schema)
        for s_idx, sentence in enumerate(record.report.sentences):
            for disease in label_sentence(sentence, matcher):
                if firsts[disease] is None:
                    firsts[disease] = s_idx
        table.append(firsts)
    return table


def _loop_order_asymmetry_from_table(table, a, b):
    """The per-record loop that ``order_asymmetry_from_table`` replaced."""
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


def _outcome(fn, *args):
    """The result, or the error's type and message; strata compared in key order."""
    try:
        out = fn(*args)
    except (MissingLabels, UndefinedLift, NoCooccurrence) as exc:
        return type(exc), str(exc)
    if isinstance(out, StratifiedTables):
        return list(out.strata.items()), out.aggregate
    if isinstance(out, OrderAsymmetry):
        return out.co_occur_count, out.asym
    return out


ALL_STATUSES = [POS, NEG, DiseaseStatus.UNCERTAIN, UNM]


def _scan_corpus(schema, statuses, unlabeled=()):
    """One record per status row (diseases 0..len(row)-1, the rest
    Unmentioned), alternating provenance; positions in *unlabeled* get none."""
    records = []
    for i, row in enumerate(statuses):
        labels = ReportLabelVector(tuple(row) + (UNM,) * (len(schema) - len(row)))
        prov = Provenance.ORIGINAL if i % 3 else Provenance.COUNTERFACTUAL
        records.append(make_record(
            f"r{i}", ["Sentence."], schema, features=False,
            labels=None if i in unlabeled else labels, provenance=prov,
            source_id="src" if prov is Provenance.COUNTERFACTUAL else None,
        ))
    return Corpus(schema, tuple(records))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scans_equal_the_per_record_loops(schema, data):
    n = data.draw(st.integers(min_value=0, max_value=40), label="n")
    statuses = [
        data.draw(st.lists(st.sampled_from(ALL_STATUSES), min_size=4, max_size=4))
        for _ in range(n)
    ]
    where = data.draw(st.sampled_from(["none", "first", "middle", "last"]), label="unlabeled")
    unlabeled = {"none": (), "first": (0,), "middle": (n // 2, n - 1),
                 "last": (n - 1,)}[where] if n else ()
    corpus = _scan_corpus(schema, statuses, unlabeled)
    a = data.draw(st.integers(0, 3), label="a")
    b = data.draw(st.integers(0, 3), label="b")
    stratify_by = data.draw(st.sampled_from([None, "provenance", 2, 3, a, b]), label="stratify")
    assert (_outcome(build_contingency, corpus, a, b, stratify_by)
            == _outcome(_loop_build_contingency, corpus, a, b, stratify_by))
    assert (_outcome(co_mention_lift, corpus, a, b)
            == _outcome(_loop_co_mention_lift, corpus, a, b))


@pytest.mark.parametrize("unlabeled, rid", [((0,), "'r0'"), ((3, 5), "'r3'")])
def test_scans_name_the_first_unlabeled_record(schema, unlabeled, rid):
    corpus = _scan_corpus(schema, [[POS, NEG, POS, UNM]] * 7, unlabeled)
    for scan in (build_contingency, co_mention_lift):
        with pytest.raises(MissingLabels, match=rid):
            scan(corpus, 0, 1)
    with pytest.raises(MissingLabels, match=rid):
        build_contingency(corpus, 0, 1, 2)


@pytest.mark.parametrize("statuses, message", [
    ([], "empty corpus"),
    ([[UNM, POS]] * 3, "a disease is never mentioned"),
    ([[DiseaseStatus.UNCERTAIN, UNM]] * 3, "a disease is never mentioned"),
])
def test_lift_undefined_cases_match_the_loop(schema, statuses, message):
    corpus = _scan_corpus(schema, statuses)
    assert _outcome(co_mention_lift, corpus, 0, 1) == (UndefinedLift, message)
    assert _outcome(_loop_co_mention_lift, corpus, 0, 1) == (UndefinedLift, message)


def test_empty_corpus_tables_equal_the_loop(schema):
    empty = Corpus(schema, ())
    for stratify_by in (None, "provenance", 4, 8, 9):
        assert (_outcome(build_contingency, empty, 8, 9, stratify_by)
                == _outcome(_loop_build_contingency, empty, 8, 9, stratify_by))


# sentences mentioning diseases 0-3 (one of them two), and one mentioning none
MENTION_SENTENCES = [
    "The cardiomediastinal silhouette is enlarged.",
    "No cardiomegaly is present.",
    "There is a focal lung opacity on the left.",
    "No pulmonary nodule is identified.",
    "Cardiomegaly and a lung nodule.",
    "Nothing further to note.",
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_columns_filled_record_by_record_equal_the_loops(schema, matcher, data):
    # as the pipeline fills them: one record at a time, the twins' rows
    # appended to the labeled records' from a second set of columns
    n = data.draw(st.integers(min_value=0, max_value=30), label="n")
    statuses = [data.draw(st.lists(st.sampled_from(ALL_STATUSES), min_size=4, max_size=4))
                for _ in range(n)]
    where = data.draw(st.sampled_from(["none", "first", "middle", "last"]), label="unlabeled")
    unlabeled = {"none": (), "first": (0,), "middle": (n // 2,),
                 "last": (n - 1,)}[where] if n else ()
    corpus = _scan_corpus(schema, statuses, unlabeled)
    reports = [data.draw(st.lists(st.sampled_from(MENTION_SENTENCES), min_size=1, max_size=6))
               for _ in range(n)]
    corpus = Corpus(schema, tuple(dataclasses.replace(r, report=Report.from_texts(texts))
                                  for r, texts in zip(corpus, reports)))
    split = data.draw(st.integers(0, n), label="split")
    columns = LabelColumns(len(schema))
    for record in corpus.records[:split]:
        columns.append(record, label_report(record.report, matcher).firsts)
    tail = LabelColumns(len(schema))
    for record in corpus.records[split:]:
        tail.append(record, label_report(record.report, matcher).firsts)
    if tail.unlabeled is None:
        columns.extend(tail, range(len(tail)))
    else:
        for record in corpus.records[split:]:
            columns.append(record, label_report(record.report, matcher).firsts)
    a = data.draw(st.integers(0, 3), label="a")
    b = data.draw(st.integers(0, 3), label="b")
    stratify_by = data.draw(st.sampled_from([None, "provenance", 2, 3, a, b]), label="stratify")
    assert len(columns) == n
    assert (_outcome(columns.contingency, a, b, stratify_by)
            == _outcome(_loop_build_contingency, corpus, a, b, stratify_by))
    assert _outcome(columns.lift, a, b) == _outcome(_loop_co_mention_lift, corpus, a, b)
    table = _loop_first_mention_table(corpus, matcher)
    expected = _outcome(_loop_order_asymmetry_from_table, table, a, b)
    assert first_mention_table(corpus, matcher) == table
    assert _outcome(columns.order_asymmetry, a, b) == expected
    assert _outcome(order_asymmetry, corpus, matcher, a, b) == expected
    assert _outcome(order_asymmetry_from_table, table, a, b) == expected


def test_first_mentions_past_sentence_127_widen_their_column(schema, matcher):
    filler = ["Nothing further to note."]
    texts = [filler * 3 + MENTION_SENTENCES[:2],
             filler * 200 + MENTION_SENTENCES[1:2] + filler * 40 + MENTION_SENTENCES[:1],
             MENTION_SENTENCES[1::-1]]
    corpus = Corpus(schema, tuple(make_record(f"r{i}", t, schema, features=False,
                                              labels=label_vec(schema))
                                  for i, t in enumerate(texts)))
    columns = LabelColumns.of(corpus, matcher)
    assert columns.firsts.typecode == "i"
    assert first_mention_table(corpus, matcher)[1][:2] == [241, 200]
    assert _outcome(order_asymmetry, corpus, matcher, 0, 1) == (3, 1 / 3)
    head = LabelColumns(len(schema))
    head.append(corpus.records[0], label_report(corpus.records[0].report, matcher).firsts)
    head.extend(columns, [2, 1])
    assert head.firsts.typecode == "i"
    assert _outcome(head.order_asymmetry, 0, 1) == (3, 1 / 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(MENTION_SENTENCES), max_size=8), max_size=5))
def test_label_report_records_the_first_mentions_of_the_loop(schema, matcher, reports):
    corpus = Corpus(schema, tuple(make_record(f"r{i}", texts, schema, features=False)
                                  for i, texts in enumerate(reports)))
    for record, row in zip(corpus, _loop_first_mention_table(corpus, matcher)):
        labels = label_report(record.report, matcher)
        assert labels.firsts == tuple(-1 if f is None else f for f in row)
        # the first mentions take no part in equality, hash or repr
        bare = ReportLabelVector(labels.statuses)
        assert bare.firsts == ()
        assert labels == bare and hash(labels) == hash(bare) and repr(labels) == repr(bare)


@pytest.mark.parametrize("length", [1, 3, 5])
def test_first_mentions_of_the_wrong_length_are_a_value_error(schema, length):
    columns = LabelColumns(len(schema))
    record = make_record("r1", ["Sentence."], schema, features=False, labels=label_vec(schema))
    with pytest.raises(ValueError, match="'r1' has %d first mentions" % length):
        columns.append(record, (-1,) * length)
    columns.append(record, (-1,) * len(schema))
    assert len(columns) == 1


def test_columns_take_no_rows_from_unlabeled_columns(schema):
    tail = LabelColumns(len(schema))
    tail.append(make_record("r1", ["Sentence."], schema, features=False))
    with pytest.raises(ValueError, match="'r1'"):
        LabelColumns(len(schema)).extend(tail, [0])


def _templates(schema):
    from coaug.synth import parse_scenario, default_scenario_path

    return parse_scenario(default_scenario_path(), schema).templates


# ---------------------------------------------------------------------------
# order asymmetry


def test_order_asymmetry_deterministic_order(schema, matcher):
    records = [
        make_record(
            f"r{i}",
            ["There is a moderate left apical pneumothorax.",
             "There is a small right pleural effusion."],
            schema, features=False,
        )
        for i in range(50)
    ]
    oa = order_asymmetry(Corpus(schema, tuple(records)), matcher, 8, 9)
    assert oa.asym == 1.0
    assert oa.co_occur_count == 50


def test_order_asymmetry_after_reordering(schema, matcher):
    # six-sentence reports so the non-identity redraw bias (1/(m!-1)) is
    # negligible against the binomial bound
    from coaug.augment import crr_augment
    from coaug.rng import RngStream

    texts = [
        "There is a moderate left apical pneumothorax.",
        "There is a small right pleural effusion.",
        "The heart is enlarged.",
        "There is mild interstitial edema.",
        "No evidence of pneumonia.",
        "No atelectasis is seen.",
    ]
    records = []
    for i in range(10000):
        report, _ = crr_augment(
            __import__("coaug.corpus", fromlist=["Report"]).Report.from_texts(texts),
            RngStream.for_record(2024, f"r{i}"),
        )
        records.append(
            make_record(f"r{i}", report.texts(), schema, features=False)
        )
    oa = order_asymmetry(Corpus(schema, tuple(records)), matcher, 8, 9)
    assert oa.co_occur_count == 10000
    assert oa.asym <= 0.05


def test_order_asymmetry_shared_sentence_is_no_cooccurrence(schema, matcher):
    records = [
        make_record(
            f"r{i}", ["No pneumothorax or pleural effusion."], schema, features=False
        )
        for i in range(5)
    ]
    with pytest.raises(NoCooccurrence):
        order_asymmetry(Corpus(schema, tuple(records)), matcher, 8, 9)
