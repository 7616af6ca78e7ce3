"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime and enforcing the stated budget.

The two Monte-Carlo margins were precomputed with
``tools/oracle_decoupling.py --final`` (600 corpus replicates at
n=20000): the 1% quantile of the lift drop is +0.00025 on the default
scenario and +0.06 on the strong-pair scenario.
"""

import dataclasses
import filecmp
import math
import random
import time

import pytest

from coaug.augment import (
    ORPHAN_MENTION,
    AugmentationConfig,
    Skip,
    augment_dataset,
    augment_record,
    crr_augment,
)
from coaug.confound import (
    ContingencyTable,
    StratifiedTables,
    add_tables,
    association_stats,
    build_contingency,
    co_mention_lift,
    conditional_probability,
    detect_simpson_reversal,
    odds_ratio,
    order_asymmetry,
)
from coaug.corpus import Corpus, DiseaseStatus, Provenance, Report, ReportLabelVector
from coaug.labeler import label_corpus, label_report
from coaug.metrics import ConfusionCounts, bleu4, bleu_stats, ce_confusion, ce_scores, rouge_l
from coaug.rng import RngStream
from coaug.synth import default_scenario_path, parse_scenario, synth_generate
from coaug.cli import run_pipeline

from conftest import make_record

# frozen oracle outputs (tools/oracle_decoupling.py --final, 600 reps)
LIFT_DROP_MARGIN_DEFAULT = 0.00025
LIFT_DROP_MARGIN_STRONG = 0.06

A_IDX, B_IDX = 8, 9  # Pneumothorax, Pleural Effusion


def _report(number: int, name: str, started: float, budget_s: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_contingency_reproduction(schema, matcher):
    started = time.monotonic()
    statuses = {
        (DiseaseStatus.POSITIVE, DiseaseStatus.POSITIVE): 3552,
        (DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE): 1345,
        (DiseaseStatus.NEGATIVE, DiseaseStatus.POSITIVE): 30988,
        (DiseaseStatus.NEGATIVE, DiseaseStatus.NEGATIVE): 153822,
        (DiseaseStatus.POSITIVE, DiseaseStatus.UNMENTIONED): 7667 - 4897,
        (DiseaseStatus.NEGATIVE, DiseaseStatus.UNMENTIONED): 195425 - 184810,
    }
    # build one labeled record per population cell and scale the counts
    # through the table arithmetic used by the stratified scanner
    total = ContingencyTable(0, 0, 0, 0, 0, 0, 0)
    for (st_a, st_b), count in statuses.items():
        vec = [DiseaseStatus.UNMENTIONED] * len(schema)
        vec[A_IDX], vec[B_IDX] = st_a, st_b
        record = make_record(
            "r", ["Placeholder sentence."], schema, features=False,
            labels=ReportLabelVector(tuple(vec)),
        )
        single = build_contingency(Corpus(schema, (record,)), A_IDX, B_IDX).aggregate
        total = add_tables(total, single.scaled(count))

    assert total.cells() == (3552, 1345, 30988, 153822)
    assert total.margin_a_pos == 7667
    assert total.margin_a_neg == 195425
    assert total.total_population == 203092

    p_pp, p_mp, p_pm, p_mm = conditional_probability(total)
    assert round(p_pp, 3) == 0.463
    assert round(p_mp, 3) == 0.159
    assert round(p_pm, 3) == 0.175
    assert round(p_mm, 3) == 0.787
    assert round(total.cell_total / total.total_population, 3) == 0.934
    _report(1, "contingency reproduction", started, 1.0)


def test_criterion_2_simpson_machinery(schema):
    started = time.monotonic()
    s1 = ContingencyTable(90, 10, 800, 200)
    s2 = ContingencyTable(200, 800, 10, 90)
    stacked = StratifiedTables({"s1": s1, "s2": s2}, add_tables(s1, s2))
    assert odds_ratio(s1) == 2.25 and odds_ratio(s2) == 2.25
    assert round(odds_ratio(stacked.aggregate), 3) == 0.128
    assert detect_simpson_reversal(stacked).reversal is True

    flat = ContingencyTable(25, 25, 25, 25)
    assert detect_simpson_reversal(
        StratifiedTables({"s1": flat, "s2": flat}, add_tables(flat, flat))
    ).reversal is False

    rng = random.Random(411)
    for _ in range(1000):
        strata = {}
        agg = ContingencyTable(0, 0, 0, 0)
        for i in range(rng.randint(2, 4)):
            table = ContingencyTable(*[rng.randint(0, 60) for _ in range(4)])
            strata[f"s{i}"] = table
            agg = add_tables(agg, table)
        factor = rng.randint(2, 1000)
        base = detect_simpson_reversal(StratifiedTables(strata, agg))
        scaled = detect_simpson_reversal(
            StratifiedTables(
                {k: t.scaled(factor) for k, t in strata.items()}, agg.scaled(factor)
            )
        )
        assert scaled == base
    _report(2, "reversal detection", started, 5.0)


def test_criterion_3_augmentation_conformance(schema, matcher):
    started = time.monotonic()
    base = parse_scenario(default_scenario_path(), schema)
    cfg = dataclasses.replace(
        base, n_records=10000, seed=23, mention_negative=1.0, noise_sigma=0.0
    )
    corpus = synth_generate(cfg, schema)  # every record: 14 sentences, eligible
    acfg = AugmentationConfig(rate=1.0, seed=31)

    checked = 0
    for record in corpus.records:
        out = augment_record(record, matcher, RngStream.for_record(acfg.seed, record.id), acfg)
        assert not isinstance(out, Skip)
        # mask pairing
        assert out.masked_indices == set(out.popped_labels)
        assert {
            i for i, v in enumerate(out.record.features.per_disease) if v.masked
        } == out.masked_indices
        # reorder conformance
        texts = record.report.texts()
        popped = out.popped_sentence_index
        remaining = texts[:popped] + texts[popped + 1:]
        assert sorted(out.record.report.texts()) == sorted(remaining)
        assert list(out.permutation) != list(range(len(remaining)))
        # label conservation for unpopped diseases (no orphans possible here)
        assert ORPHAN_MENTION not in out.flags
        before = label_report(record.report, matcher)
        after = label_report(out.record.report, matcher)
        for disease in range(len(schema)):
            if disease in out.masked_indices:
                assert after.statuses[disease] is DiseaseStatus.UNMENTIONED
            else:
                assert after.statuses[disease] is before.statuses[disease]
        checked += 1
    assert checked == 10000

    for rate in (0.0, 0.25, 0.5, 0.75, 1.0):
        augmented, summary = augment_dataset(
            corpus, matcher, dataclasses.replace(acfg, rate=rate)
        )
        expected = math.floor(rate * len(corpus))
        twins = sum(
            1 for r in augmented.records if r.provenance is Provenance.COUNTERFACTUAL
        )
        assert twins == expected == summary.augmented
        assert len(augmented) == len(corpus) + expected
    _report(3, "augmentation conformance over 10000 records", started, 30.0)


def test_criterion_4_decoupling_effect(schema, matcher):
    started = time.monotonic()
    cfg = parse_scenario(default_scenario_path(), schema)  # n=20000, seed=7
    assert cfg.n_records == 20000
    labeled = label_corpus(synth_generate(cfg, schema), matcher)

    lift_before = co_mention_lift(labeled, A_IDX, B_IDX)
    asym_before = order_asymmetry(labeled, matcher, A_IDX, B_IDX)
    assert asym_before.asym == 1.0  # schema order is fully directional

    augmented, _ = augment_dataset(
        labeled, matcher, AugmentationConfig(rate=1.0, seed=cfg.seed)
    )
    relabeled = label_corpus(augmented, matcher, keep_existing=True)
    lift_after = co_mention_lift(relabeled, A_IDX, B_IDX)
    drop = lift_before - lift_after
    assert drop > LIFT_DROP_MARGIN_DEFAULT, (
        f"lift drop {drop:.6f} did not clear the 99% margin {LIFT_DROP_MARGIN_DEFAULT}"
    )

    twins_only = Corpus(
        schema,
        tuple(r for r in relabeled.records if r.provenance is Provenance.COUNTERFACTUAL),
    )
    asym_after = order_asymmetry(twins_only, matcher, A_IDX, B_IDX)
    assert asym_after.asym <= 0.05
    assert asym_after.co_occur_count >= 10000
    _report(4, "co-occurrence decoupling at n=20000", started, 120.0)


def test_criterion_5_label_vs_text_score_divergence(schema, matcher):
    started = time.monotonic()
    base = parse_scenario(default_scenario_path(), schema)
    cfg = dataclasses.replace(base, n_records=1000, seed=17, noise_sigma=0.0)
    gold_reports = [r.report for r in synth_generate(cfg, schema).records]

    # a weak "generator": drops the last sentence of every long report
    generated = [
        Report(r.sentences[:-1]) if len(r) >= 2 else r for r in gold_reports
    ]
    permuted = [
        crr_augment(r, RngStream.for_record(41, f"perm:{i}"))[0]
        for i, r in enumerate(generated)
    ]

    gold_labels = [label_report(r, matcher) for r in gold_reports]
    gen_labels = [label_report(r, matcher) for r in generated]
    perm_labels = [label_report(r, matcher) for r in permuted]

    counts_gen = ce_confusion(gold_labels, gen_labels)
    counts_perm = ce_confusion(gold_labels, perm_labels)
    assert counts_gen == counts_perm
    assert ce_scores(counts_gen) == ce_scores(counts_perm)  # bit-identical floats
    assert counts_gen.fn > 0  # the comparison is not degenerate

    bleu_gen = bleu4(gold_reports, generated)
    bleu_perm = bleu4(gold_reports, permuted)
    assert bleu_perm < bleu_gen
    _report(5, "order-invariant labels vs order-sensitive text scores", started, 30.0)


def test_criterion_6_metric_fixtures():
    started = time.monotonic()
    scores = ce_scores(ConfusionCounts(1, 1, 0, 12))
    assert scores.precision == 0.5
    assert scores.recall == 1.0
    assert scores.f1 == pytest.approx(2 / 3, abs=1e-12)

    gold = [Report.from_texts(["a b c d"])]
    gen = [Report.from_texts(["a c d"])]
    assert rouge_l(gold, gen) == pytest.approx(0.8356164, abs=1e-4)

    gold = [Report.from_texts(["the cat is on the mat"])]
    gen = [Report.from_texts(["the cat the cat on mat"])]
    assert bleu_stats(gold, gen)[0][0] == pytest.approx(5 / 6, abs=1e-12)

    same = [Report.from_texts(["the lungs are clear today."])]
    assert bleu4(same, same) == 1.0
    assert rouge_l(same, same) == pytest.approx(1.0)
    disjoint = [Report.from_texts(["alpha beta gamma delta"])]
    assert bleu4(same, disjoint) == 0.0
    assert rouge_l(same, disjoint) == 0.0
    identical = ce_confusion(
        [ReportLabelVector((DiseaseStatus.POSITIVE,) * 14)],
        [ReportLabelVector((DiseaseStatus.POSITIVE,) * 14)],
    )
    assert identical.fp == identical.fn == 0
    _report(6, "metric fixtures", started, 1.0)


def test_criterion_7_pipeline_determinism(tmp_path):
    started = time.monotonic()
    outputs = []
    for name in ("run1", "run2", "run3"):
        outdir = tmp_path / name
        run_pipeline(default_scenario_path(), seed=7, outdir=str(outdir),
                     n=1500)
        outputs.append(outdir)

    deterministic = [
        "original.jsonl", "original.jsonl.schema",
        "labeled.jsonl", "labeled.jsonl.schema",
        "augmented.jsonl", "augmented.jsonl.schema",
        "before.txt", "after.txt", "summary.json",
    ]
    for other in outputs[1:]:
        for name in deterministic:
            assert (outputs[0] / name).read_bytes() == (other / name).read_bytes(), (
                f"{name} differs between {outputs[0].name} and {other.name}"
            )
    _report(7, "pipeline byte determinism across runs", started, 180.0)
