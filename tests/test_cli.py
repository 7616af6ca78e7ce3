import json
import os

import pytest

from coaug.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run
from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    ReportLabelVector,
    make_schema,
    read_corpus,
    write_corpus,
    write_schema,
)

from conftest import make_record


def test_synth_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "c1.jsonl"
    out2 = tmp_path / "c2.jsonl"
    args = ["--quiet", "synth", "--scenario", "default", "--n", "200", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "c1.jsonl.schema").exists()
    assert (tmp_path / "c1.jsonl.run.json").exists()


def test_rate_out_of_range_is_usage_error(tmp_path):
    rc = run(
        ["--quiet", "augment", "--corpus", "x.jsonl", "--rate", "1.5", "--out", "y.jsonl"]
    )
    assert rc == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    assert run(["synth", "--scenario", "default", "--frobnicate"]) == EXIT_USAGE


def test_missing_corpus_is_data_error(tmp_path):
    rc = run(
        ["--quiet", "label", "--corpus", str(tmp_path / "missing.jsonl"),
         "--out", str(tmp_path / "o.jsonl")]
    )
    assert rc == EXIT_DATA


def test_evaluate_length_mismatch_is_data_error(tmp_path, schema):
    gold = Corpus(schema, (make_record("a", ["No pneumothorax."], schema, features=False),
                           make_record("b", ["No pneumothorax."], schema, features=False)))
    gen = Corpus(schema, (make_record("a", ["No pneumothorax."], schema, features=False),))
    gold_path, gen_path = tmp_path / "g.jsonl", tmp_path / "h.jsonl"
    write_corpus(gold, str(gold_path))
    write_corpus(gen, str(gen_path))
    rc = run(["--quiet", "evaluate", "--gold", str(gold_path), "--generated", str(gen_path),
              "--out", str(tmp_path / "scores.json")])
    assert rc == EXIT_DATA


def test_label_then_analyze(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    labeled_path = tmp_path / "l.jsonl"
    report_path = tmp_path / "report.txt"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "150", "--seed", "3",
                "--out", str(corpus_path)]) == EXIT_OK
    assert run(["--quiet", "label", "--corpus", str(corpus_path),
                "--out", str(labeled_path)]) == EXIT_OK
    labeled = read_corpus(str(labeled_path))
    assert all(r.labels is not None for r in labeled)
    assert run(["--quiet", "analyze", "--corpus", str(labeled_path),
                "--pairs", "Pneumothorax,Pleural Effusion",
                "--out", str(report_path)]) == EXIT_OK
    text = report_path.read_text()
    assert "pair: Pneumothorax ~ Pleural Effusion" in text
    assert "p(b+|a+)=" in text
    assert "co_mention_lift=" in text


def test_analyze_stratified_reports_reversal_verdict(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    report_path = tmp_path / "report.txt"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "100", "--seed", "5",
                "--out", str(corpus_path)]) == EXIT_OK
    assert run(["--quiet", "analyze", "--corpus", str(corpus_path),
                "--pairs", "Pneumothorax,Pleural Effusion",
                "--stratify", "disease:Edema",
                "--out", str(report_path)]) == EXIT_OK
    assert "simpson_reversal: " in report_path.read_text()


def test_augment_cli_counts_and_summary(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    out_path = tmp_path / "d.jsonl"
    summary_path = tmp_path / "s.json"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "100", "--seed", "9",
                "--out", str(corpus_path)]) == EXIT_OK
    assert run(["--quiet", "augment", "--corpus", str(corpus_path), "--rate", "0.25",
                "--seed", "4", "--out", str(out_path), "--summary", str(summary_path)]) == EXIT_OK
    summary = json.loads(summary_path.read_text())
    assert summary["target"] == 25
    assert summary["augmented"] + summary["skipped"] <= 25
    out = read_corpus(str(out_path))
    assert len(out) == 100 + summary["augmented"]


def test_augment_no_css_keeps_full_reports(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    out_path = tmp_path / "d.jsonl"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "40", "--seed", "2",
                "--out", str(corpus_path)]) == EXIT_OK
    assert run(["--quiet", "augment", "--corpus", str(corpus_path), "--rate", "1.0",
                "--seed", "4", "--no-css", "--out", str(out_path)]) == EXIT_OK
    out = read_corpus(str(out_path))
    originals = {r.id: r for r in out.records[:40]}
    twins = out.records[40:]
    assert len(twins) == 40
    for twin in twins:
        assert len(twin.report) == len(originals[twin.source_id].report)
        assert not any(v.masked for v in twin.features.per_disease)


def test_evaluate_writes_scores(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    scores_path = tmp_path / "scores.json"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "50", "--seed", "6",
                "--out", str(corpus_path)]) == EXIT_OK
    assert run(["--quiet", "evaluate", "--gold", str(corpus_path),
                "--generated", str(corpus_path), "--macro",
                "--out", str(scores_path)]) == EXIT_OK
    scores = json.loads(scores_path.read_text())
    assert scores["ce"]["f1"] == 1.0
    assert scores["bleu4"] == 1.0
    assert scores["rouge_l"] == pytest.approx(1.0)
    assert scores["counts"]["fp"] == 0
    assert "ce_macro" in scores


def test_env_var_supplies_schema(tmp_path, monkeypatch, schema):
    from coaug.corpus import write_schema

    schema_path = tmp_path / "alt.schema"
    write_schema(schema, str(schema_path))
    monkeypatch.setenv("COA_SCHEMA", str(schema_path))
    out = tmp_path / "c.jsonl"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "20", "--seed", "1",
                "--out", str(out)]) == EXIT_OK


def test_pipeline_writes_all_artifacts(tmp_path):
    outdir = tmp_path / "pipe"
    rc = run(["--quiet", "pipeline", "--scenario", "strong_pair", "--n", "800",
              "--seed", "11", "--outdir", str(outdir)])
    assert rc == EXIT_OK
    for name in ("original.jsonl", "labeled.jsonl", "augmented.jsonl",
                 "before.txt", "after.txt", "summary.json"):
        assert (outdir / name).exists()
    summary = json.loads((outdir / "summary.json").read_text())
    pair = summary["pairs"][0]
    assert pair["before"]["order_asymmetry"] == 1.0
    # the reordering pushes the planted pair's lift back toward 1
    assert pair["after"]["co_mention_lift"] < pair["before"]["co_mention_lift"]


def test_pipeline_moves_planted_lift_toward_one(tmp_path):
    outdir = tmp_path / "strong"
    rc = run(["--quiet", "pipeline", "--scenario", "strong_pair", "--n", "4000",
              "--seed", "11", "--outdir", str(outdir)])
    assert rc == EXIT_OK
    summary = json.loads((outdir / "summary.json").read_text())
    pair = summary["pairs"][0]
    before, after = pair["before"]["co_mention_lift"], pair["after"]["co_mention_lift"]
    assert abs(after - 1.0) < abs(before - 1.0)


def test_pipeline_without_planted_pair_stays_near_independence(tmp_path, schema):
    from coaug.synth import default_scenario_path

    scenario = tmp_path / "noplant.cfg"
    base = open(default_scenario_path()).read()
    head, _, tail = base.partition("[planted]")
    templates = tail[tail.index("[templates]"):]
    scenario.write_text(
        head.replace("n_records = 20000", "n_records = 4000")
        + "[marginals]\nPleural Effusion = 0.17\n"  # appended section merges
        + templates
    )
    outdir = tmp_path / "pipe"
    rc = run(["--quiet", "pipeline", "--scenario", str(scenario), "--seed", "5",
              "--outdir", str(outdir)])
    assert rc == EXIT_OK
    summary = json.loads((outdir / "summary.json").read_text())
    assert len(summary["pairs"]) == 91  # no planted pair: all pairs reported
    # independent sampling: every gap inside a 5-sigma binomial envelope
    # (sd of the plug-in covariance estimate is at most 0.25/sqrt(n))
    bound = 5 * 0.25 / (4000 ** 0.5)
    for pair in summary["pairs"]:
        for side in ("before", "after"):
            gap = pair[side]["independence_gap"]
            if gap is not None:
                assert abs(gap) <= bound


def test_analyze_stratify_by_provenance(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    aug_path = tmp_path / "d.jsonl"
    report_path = tmp_path / "r.txt"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "80", "--seed", "8",
                "--out", str(corpus_path)]) == EXIT_OK
    assert run(["--quiet", "augment", "--corpus", str(corpus_path), "--rate", "1.0",
                "--seed", "8", "--out", str(aug_path)]) == EXIT_OK
    assert run(["--quiet", "analyze", "--corpus", str(aug_path),
                "--pairs", "Pneumothorax,Pleural Effusion",
                "--stratify", "provenance", "--out", str(report_path)]) == EXIT_OK
    assert "simpson_reversal: " in report_path.read_text()


def test_internal_error_maps_to_exit_3(tmp_path, monkeypatch):
    import coaug.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli.synth, "synth_generate", boom)
    rc = run(["--quiet", "synth", "--scenario", "default", "--n", "5",
              "--out", str(tmp_path / "x.jsonl")])
    assert rc == 3


def test_console_script_subprocess(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "c.jsonl"
    result = subprocess.run(
        [sys.executable, "-m", "coaug", "--quiet", "synth", "--scenario", "default",
         "--n", "10", "--seed", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert out.exists()
    result = subprocess.run(
        [sys.executable, "-m", "coaug", "synth", "--scenario", "default"],
        capture_output=True, text=True,
    )
    assert result.returncode == 1  # missing required --out


def test_augmenting_an_augmented_corpus_is_data_error(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    first = tmp_path / "d.jsonl"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "30", "--seed", "5",
                "--out", str(corpus_path)]) == EXIT_OK
    assert run(["--quiet", "augment", "--corpus", str(corpus_path), "--rate", "1.0",
                "--seed", "5", "--out", str(first)]) == EXIT_OK
    rc = run(["--quiet", "augment", "--corpus", str(first), "--rate", "0.5",
              "--seed", "5", "--out", str(tmp_path / "e.jsonl")])
    assert rc == EXIT_DATA


def _small_corpus(tmp_path, n=30, seed=5):
    path = tmp_path / "c.jsonl"
    assert run(["--quiet", "synth", "--scenario", "default", "--n", str(n),
                "--seed", str(seed), "--out", str(path)]) == EXIT_OK
    return path


@pytest.mark.parametrize("flags", [
    ["--pairs", "Edema,Nope"],
    ["--pairs", "Edema,Pneumothorax", "--stratify", "disease:Nope"],
    ["--pairs", "Edema, Edema"],
])
def test_unknown_disease_on_the_command_line_is_usage_error(tmp_path, flags):
    corpus_path = _small_corpus(tmp_path)
    rc = run(["--quiet", "analyze", "--corpus", str(corpus_path), *flags,
              "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("case", ["synth-out-in-missing-dir", "synth-out-is-dir",
                                  "pipeline-outdir-is-file", "label-corpus-is-dir"])
def test_unusable_path_is_data_error(tmp_path, capsys, case):
    a_dir, a_file = tmp_path / "adir", tmp_path / "afile"
    a_dir.mkdir()
    a_file.write_text("x\n")
    synth = ["--quiet", "synth", "--scenario", "default", "--n", "5", "--out"]
    argv = {
        "synth-out-in-missing-dir": synth + [str(tmp_path / "missing" / "c.jsonl")],
        "synth-out-is-dir": synth + [str(a_dir)],
        "pipeline-outdir-is-file": ["--quiet", "pipeline", "--scenario", "default",
                                    "--n", "5", "--outdir", str(a_file)],
        "label-corpus-is-dir": ["--quiet", "label", "--corpus", str(a_dir),
                                "--out", str(tmp_path / "l.jsonl")],
    }[case]
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Errno" in err


def test_schema_file_with_duplicate_names_is_data_error(tmp_path):
    schema_path = tmp_path / "dup.schema"
    schema_path.write_text("d=16\nEdema\nPneumothorax\nEdema\n")
    rc = run(["--quiet", "--schema", str(schema_path), "synth", "--scenario", "default",
              "--n", "5", "--out", str(tmp_path / "c.jsonl")])
    assert rc == EXIT_DATA


def test_lexicon_pattern_longer_than_five_tokens_is_data_error(tmp_path):
    corpus_path = _small_corpus(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("Edema\tedema\nPneumothorax\tone two three four five six\n")
    rc = run(["--quiet", "label", "--corpus", str(corpus_path), "--lexicon", str(lexicon),
              "--out", str(tmp_path / "l.jsonl")])
    assert rc == EXIT_DATA


def test_schema_that_disagrees_with_the_sidecar_is_data_error(tmp_path, schema):
    corpus_path = _small_corpus(tmp_path)
    reversed_path = tmp_path / "reversed.schema"
    write_schema(make_schema(reversed(schema.names()), schema.d), str(reversed_path))
    rc = run(["--quiet", "--schema", str(reversed_path), "augment", "--corpus",
              str(corpus_path), "--rate", "1.0", "--out", str(tmp_path / "a.jsonl")])
    assert rc == EXIT_DATA
    assert not (tmp_path / "a.jsonl").exists()


def test_label_rewrites_carried_labels_and_analyze_keeps_them(tmp_path, schema):
    # every record claims both diseases Positive; the text negates one
    carried = [DiseaseStatus.UNMENTIONED] * len(schema)
    a, b = schema.index_of("Pneumothorax"), schema.index_of("Pleural Effusion")
    carried[a] = carried[b] = DiseaseStatus.POSITIVE
    records = [
        make_record(f"r{i}", ["No pneumothorax.", "Small right pleural effusion."], schema,
                    labels=ReportLabelVector(tuple(carried)))
        for i in range(3)
    ]
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(Corpus(schema, tuple(records)), str(corpus_path))

    report_path = tmp_path / "r.txt"
    assert run(["--quiet", "analyze", "--corpus", str(corpus_path),
                "--pairs", "Pneumothorax,Pleural Effusion", "--out", str(report_path)]) == EXIT_OK
    assert "cells: n_pp=3 n_pm=0 n_mp=0 n_mm=0" in report_path.read_text()

    labeled_path = tmp_path / "l.jsonl"
    assert run(["--quiet", "label", "--corpus", str(corpus_path),
                "--out", str(labeled_path)]) == EXIT_OK
    for record in read_corpus(str(labeled_path)):
        assert record.labels.statuses[a] is DiseaseStatus.NEGATIVE
        assert record.labels.statuses[b] is DiseaseStatus.POSITIVE


# ---------------------------------------------------------------------------
# evaluate: metric list, pinned output bytes, run summary


def _evaluate_pair(tmp_path, schema):
    """Five gold reports and generated ones that reorder, drop, negate and
    hedge sentences, so every score lies strictly between 0 and 1."""
    gold = [
        ["The heart is enlarged.", "No pneumothorax is seen.", "There is mild interstitial edema."],
        ["There is a small right pleural effusion.", "No focal lung opacity is seen."],
        ["A small pulmonary nodule is present in the right upper zone.",
         "The lungs show no consolidation.", "No evidence of pneumonia."],
        ["There is subsegmental atelectasis at the left base.", "No pleural effusion is present."],
        ["A 1.2 cm nodule!", "Possible pneumonia.", "No cardiomegaly is present."],
    ]
    generated = [
        ["No pneumothorax is seen.", "The heart is enlarged."],
        ["No focal lung opacity is seen.", "There is a small right pleural effusion.",
         "There is mild interstitial edema."],
        ["No evidence of pneumonia.", "The lungs show no consolidation."],
        ["There may be subsegmental atelectasis at the left base.", "No pleural effusion."],
        ["A 1.2 cm nodule!", "There is right lower lobe pneumonia.", "No cardiomegaly is present."],
    ]
    paths = []
    for name, reports in (("gold", gold), ("gen", generated)):
        records = [make_record(f"r{i}", texts, schema, features=False)
                   for i, texts in enumerate(reports)]
        path = tmp_path / f"{name}.jsonl"
        write_corpus(Corpus(schema, tuple(records)), str(path))
        paths.append(str(path))
    return paths


# scores.json of the pair set above, as written before the bit-parallel
# ROUGE-L and the Counter clip of BLEU: a text-metric rewrite keeps every byte
PINNED_SCORES = """{
  "bleu4": 0.6143477697456866,
  "bleu4_brevity_penalty": 0.8869204367171574,
  "bleu4_precisions": [
    0.8266666666666667,
    0.7428571428571429,
    0.6615384615384615,
    0.5666666666666667
  ],
  "ce": {
    "accuracy": 0.9285714285714286,
    "f1": 0.5454545454545454,
    "precision": 0.6,
    "recall": 0.5
  },
  "ce_macro": {
    "accuracy": 0.9285714285714286,
    "f1": 0.19047619047619047,
    "precision": 0.21428571428571427,
    "recall": 0.17857142857142858
  },
  "counts": {
    "fn": 3,
    "fp": 2,
    "tn": 62,
    "tp": 3
  },
  "records": 5,
  "rouge_l": 0.6281392691993611
}
"""


def test_evaluate_scores_bytes_are_pinned(tmp_path, schema):
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    out = tmp_path / "scores.json"
    assert run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
                "--metrics", "ce,bleu4,rougel", "--macro", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == PINNED_SCORES


def test_evaluate_run_summary_has_stage_times_and_token_counts(tmp_path, schema):
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    out = tmp_path / "scores.json"
    assert run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
                "--out", str(out)]) == EXIT_OK
    summary = json.loads((tmp_path / "scores.json.run.json").read_text())
    assert set(summary["stages"]) == {"ce", "bleu4", "rougel"}
    assert set(summary["counts"]) == {"records", "gold_tokens", "generated_tokens"}
    assert "stages" not in json.loads(out.read_text())


def test_evaluate_unknown_metric_is_usage_error_before_reading(tmp_path):
    rc = run(["--quiet", "evaluate", "--gold", str(tmp_path / "missing.jsonl"),
              "--generated", str(tmp_path / "missing.jsonl"), "--metrics", "ce,bogus",
              "--out", str(tmp_path / "scores.json")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("metrics", ["", " , "])
def test_evaluate_empty_metric_list_is_usage_error(tmp_path, schema, metrics):
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    out = tmp_path / "scores.json"
    rc = run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
              "--metrics", metrics, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()
