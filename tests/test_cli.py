import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run, run_pipeline
from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    ReportLabelVector,
    make_schema,
    read_corpus,
    write_corpus,
    write_schema,
)
from coaug.synth import default_scenario_path, strong_pair_scenario_path

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


@pytest.mark.parametrize("command,out_flag", [("synth", "--out"), ("pipeline", "--outdir")])
def test_negative_n_is_usage_error_before_reading_the_scenario(tmp_path, command, out_flag):
    # a missing scenario would exit 2: exit 1 shows --n is checked before any I/O
    out = tmp_path / "out"
    rc = run(["--quiet", command, "--scenario", str(tmp_path / "missing.cfg"),
              "--n", "-3", out_flag, str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


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
        assert not twin.features.masked


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
    base = Path(default_scenario_path()).read_text()
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


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_noise_sigma_is_data_error(tmp_path, capsys, sigma):
    text = Path(default_scenario_path()).read_text(encoding="utf-8")
    scenario = tmp_path / "sigma.cfg"
    scenario.write_text(text.replace("noise_sigma = 0.1", f"noise_sigma = {sigma}"))
    out = tmp_path / "c.jsonl"
    rc = run(["--quiet", "synth", "--scenario", str(scenario), "--n", "3", "--out", str(out)])
    assert rc == EXIT_DATA
    assert "noise_sigma" in capsys.readouterr().err
    assert not out.exists()


def test_lexicon_pattern_longer_than_five_tokens_is_data_error(tmp_path):
    corpus_path = _small_corpus(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("Edema\tedema\nPneumothorax\tone two three four five six\n")
    rc = run(["--quiet", "label", "--corpus", str(corpus_path), "--lexicon", str(lexicon),
              "--out", str(tmp_path / "l.jsonl")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("command", ["label", "synth"])
def test_unknown_disease_in_a_lexicon_or_scenario_names_where(tmp_path, capsys, command):
    if command == "label":
        path = tmp_path / "lexicon.tsv"
        path.write_text("Edema\tedema\nDragon Pox\tdragon pox\n")
        args = ["--corpus", str(_small_corpus(tmp_path)), "--lexicon", str(path)]
        where = "line 2: unknown disease 'Dragon Pox'"
    else:
        path = tmp_path / "nessie.cfg"
        text = Path(default_scenario_path()).read_text()
        path.write_text(text + "\n[marginals]\nNessie = 0.5\n")
        args = ["--scenario", str(path), "--n", "3"]
        where = "marginals.Nessie: unknown disease 'Nessie'"
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert run(["--quiet", command, *args, "--out", str(out)]) == EXIT_DATA
    assert where in capsys.readouterr().err
    assert not out.exists()


def test_schema_that_disagrees_with_the_sidecar_is_data_error(tmp_path, schema):
    corpus_path = _small_corpus(tmp_path)
    reversed_path = tmp_path / "reversed.schema"
    write_schema(make_schema(reversed(schema.names), schema.d), str(reversed_path))
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


# words with non-ASCII letters and "_" (a token of its own), and punctuation
_WORDS = st.sampled_from(["the", "heart", "is", "no", "effusion", ".", ",", "naïve",
                          "Café", "_", "x_y", "straße", "1.2"])
_SENTENCES = st.lists(_WORDS, min_size=1, max_size=6).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_one_pass_equals_the_report_metrics(data):
    # the cli tokenizes each pair once and feeds the per-pair cores; its
    # scores and counts must be those of the report-taking functions
    from coaug.corpus import Provenance, default_schema
    from coaug.metrics import bleu_stats, report_tokens, rouge_l

    schema = default_schema()
    gold_texts = data.draw(st.lists(st.lists(_SENTENCES, min_size=1, max_size=4), max_size=5))
    # a generated report may be empty; only a counterfactual record may be
    gen_texts = data.draw(st.lists(st.lists(_SENTENCES, max_size=4),
                                   min_size=len(gold_texts), max_size=len(gold_texts)))
    gold_records = [make_record(f"r{i}", texts, schema, features=False)
                    for i, texts in enumerate(gold_texts)]
    gen_records = [make_record(f"g{i}", texts, schema, features=False,
                               provenance=Provenance.COUNTERFACTUAL, source_id=f"r{i}")
                   for i, texts in enumerate(gen_texts)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, records in (("gold", gold_records), ("gen", gen_records)):
            paths.append(os.path.join(tmp, f"{name}.jsonl"))
            write_corpus(Corpus(schema, tuple(records)), paths[-1])
        out = os.path.join(tmp, "scores.json")
        assert run(["--quiet", "evaluate", "--gold", paths[0], "--generated", paths[1],
                    "--metrics", "bleu4,rougel", "--out", out]) == EXIT_OK
        scores = json.loads(Path(out).read_text())
        counts = json.loads(Path(out + ".run.json").read_text())["counts"]
        gold = [r.report for r in read_corpus(paths[0])]
        gen = [r.report for r in read_corpus(paths[1])]
    precisions, bp, score = bleu_stats(gold, gen)
    assert scores["bleu4_precisions"] == precisions
    assert scores["bleu4_brevity_penalty"] == bp
    assert scores["bleu4"] == score
    assert scores["rouge_l"] == rouge_l(gold, gen)
    assert counts == {"records": len(gold),
                      "gold_tokens": sum(len(report_tokens(r)) for r in gold),
                      "generated_tokens": sum(len(report_tokens(r)) for r in gen)}


def test_evaluate_metric_subsets_write_the_same_values(tmp_path, schema):
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    written = {}
    for metrics in ("bleu4", "rougel", "ce,bleu4,rougel"):
        out = tmp_path / f"{metrics}.json"
        assert run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
                    "--metrics", metrics, "--out", str(out)]) == EXIT_OK
        written[metrics] = json.loads(out.read_text())
    everything = written["ce,bleu4,rougel"]
    assert set(written["bleu4"]) == {"records", "bleu4", "bleu4_precisions",
                                     "bleu4_brevity_penalty"}
    assert set(written["rougel"]) == {"records", "rouge_l"}
    for metrics in ("bleu4", "rougel"):
        assert written[metrics] == {k: everything[k] for k in written[metrics]}


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


@pytest.mark.parametrize("bad", ["generated", "generated-labels", "lexicon", "lexicon-duplicate",
                                 "cues", "schema"])
def test_evaluate_line_errors_name_their_file(tmp_path, schema, capsys, bad):
    # evaluate reads up to five files; "line 2: ..." alone does not say which
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    flags = []
    if bad.startswith("generated"):
        path = Path(gen_path)
        lines = path.read_text().splitlines(keepends=True)
        if bad == "generated":
            lines[1] = "{not json\n"
            where = f"{path}: line 2: invalid JSON"
        else:
            record = json.loads(lines[1])
            record["labels"] = {"Nessie": "Positive"}
            lines[1] = json.dumps(record) + "\n"
            where = f"{path}: line 2: unknown disease name 'Nessie'"
        path.write_text("".join(lines))
    elif bad == "lexicon":
        path = tmp_path / "lexicon.tsv"
        path.write_text("Edema\tedema\nDragon Pox\tdragon pox\n")
        flags = ["--lexicon", str(path)]
        where = f"{path}: line 2: unknown disease 'Dragon Pox'"
    elif bad == "lexicon-duplicate":
        path = tmp_path / "lexicon.tsv"
        path.write_text("Edema\tedema\nEdema\tedema\n")
        flags = ["--lexicon", str(path)]
        where = f"{path}: line 2: duplicate rule"
    elif bad == "cues":
        path = tmp_path / "cues.tsv"
        path.write_text("neg\tno\nmaybe\tperhaps\n")
        flags = ["--cues", str(path)]
        where = f"{path}: line 2: expected 'neg<TAB>phrase'"
    else:
        path = tmp_path / "bad.schema"
        path.write_text("\ndim=16\nEdema\n")
        flags = ["--schema", str(path)]
        where = f"{path}: line 2: schema file must start with 'd=<int>'"
    out = tmp_path / "scores.json"
    capsys.readouterr()
    assert run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path, *flags,
                "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {where}" in err
    assert gold_path not in err
    assert not out.exists()


@pytest.mark.parametrize("metrics", ["", " , "])
def test_evaluate_empty_metric_list_is_usage_error(tmp_path, schema, metrics):
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    out = tmp_path / "scores.json"
    rc = run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
              "--metrics", metrics, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--pairs", "Edema,Edema"], ["--stratify", "bogus"]])
def test_analyze_checks_its_arguments_before_reading_the_corpus(tmp_path, flags):
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text("{not json\n")
    rc = run(["--quiet", "analyze", "--corpus", str(corpus_path), *flags,
              "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_USAGE


def test_pipeline_run_summary_has_stage_times(tmp_path):
    argv = ["--quiet", "pipeline", "--scenario", "default", "--n", "60", "--seed", "3"]
    assert run(argv + ["--outdir", str(tmp_path / "a")]) == EXIT_OK
    run_summary = json.loads((tmp_path / "a" / "summary.json.run.json").read_text())
    assert set(run_summary["stages"]) == {
        "synth", "write_original", "label", "write_labeled",
        "analyze_before", "augment", "write_augmented", "analyze_after"}
    assert all(t >= 0 for t in run_summary["stages"].values())
    summary = (tmp_path / "a" / "summary.json").read_bytes()
    assert b"stages" not in summary
    assert run_pipeline(default_scenario_path(), seed=3, outdir=str(tmp_path / "b"),
                        n=60)[0] == json.loads(summary)
    assert (tmp_path / "b" / "summary.json").read_bytes() == summary


def test_pipeline_bytes_match_the_reference_digests(tmp_path):
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json")
        .read_text())["pipeline-default"]
    run_pipeline(default_scenario_path(), seed=7, outdir=str(tmp_path), n=1600, rate=1.0)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in reference}
    assert digests == reference


# sha256 of the nine artifacts of run_pipeline(strong_pair, seed=11, n=400,
# rate=0.5), as written before the packed Gaussian draws and the kept
# .9g vector texts; rate 0.5 also takes augment's partial selection shuffle
def _load_tool(name):
    """A script under tools/, imported as a module."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_determinism = _load_tool("check_determinism")
STRONG_PAIR_SEED11_DIGESTS = check_determinism.STRONG_PAIR_SEED11_DIGESTS


def test_pipeline_bytes_are_pinned_for_strong_pair_at_half_rate(tmp_path):
    run_pipeline(strong_pair_scenario_path(), seed=11, outdir=str(tmp_path), n=400, rate=0.5)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == STRONG_PAIR_SEED11_DIGESTS


def test_determinism_script_passes_under_this_interpreter(capsys):
    assert check_determinism.main([sys.executable]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 2)[1:] for line in lines] == [
        ["pipeline-default:", "ok"], ["strong_pair:", "ok"], ["evaluate-reordered:", "ok"]]


def test_unknown_scenario_section_is_data_error(tmp_path):
    scenario = tmp_path / "typo.cfg"
    scenario.write_text(Path(default_scenario_path()).read_text() + "\n[prototype]\n")
    out = tmp_path / "c.jsonl"
    rc = run(["--quiet", "synth", "--scenario", str(scenario), "--n", "5", "--out", str(out)])
    assert rc == EXIT_DATA
    assert not out.exists()


def test_perfbench_tracer_finds_every_attribute_it_wraps():
    # perfbench/tracer.py wraps coaug module attributes by name; a renamed or
    # removed one fails here instead of at the first traced benchmark run
    import subprocess

    root = Path(__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from tracer import Tracer, instrument; instrument(Tracer('t'))")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", probe, str(root / "perfbench")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_label_rejects_a_feature_mask_that_is_not_a_boolean(tmp_path):
    # an all-zero vector with "masked":"false" was read as masked and
    # written back as "masked":true
    corpus_path = _small_corpus(tmp_path, n=3)
    text = corpus_path.read_text(encoding="utf-8")
    zeros = '{"vec":[' + ",".join(["0.0"] * 16) + '],"masked":"false"}'
    bad = re.sub(r'\{"vec":\[[^\]]*\],"masked":false\}', lambda _: zeros, text, count=1)
    assert bad.count('"masked":"false"') == 1
    corpus_path.write_text(bad, encoding="utf-8")
    out = tmp_path / "l.jsonl"
    assert run(["--quiet", "label", "--corpus", str(corpus_path), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


PIPELINE_CORPORA = ("original.jsonl", "labeled.jsonl", "augmented.jsonl")


# 0.37 takes the partial selection over a default corpus whose one-sentence
# reports are ineligible, so a twin must be matched to its eligible position
@pytest.mark.parametrize("rate", ["1.0", "0.37"])
def test_subcommand_chain_writes_the_pipeline_bytes(tmp_path, rate):
    # synth | label | analyze | augment | analyze is the pipeline, byte for byte
    chain, pipe = tmp_path / "chain", tmp_path / "pipe"
    chain.mkdir()
    q = ["--quiet"]
    pair = ["--pairs", "Pneumothorax,Pleural Effusion"]
    steps = [
        ["synth", "--scenario", "default", "--n", "400", "--seed", "7",
         "--out", chain / "original.jsonl"],
        ["label", "--corpus", chain / "original.jsonl", "--out", chain / "labeled.jsonl"],
        ["analyze", "--corpus", chain / "labeled.jsonl", *pair, "--out", chain / "before.txt"],
        ["augment", "--corpus", chain / "labeled.jsonl", "--rate", rate, "--seed", "7",
         "--out", chain / "augmented.jsonl"],
        ["analyze", "--corpus", chain / "augmented.jsonl", *pair, "--out", chain / "after.txt"],
    ]
    for step in steps:
        assert run(q + [str(arg) for arg in step]) == EXIT_OK
    assert run(q + ["pipeline", "--scenario", "default", "--n", "400", "--seed", "7",
                    "--rate", rate, "--outdir", str(pipe)]) == EXIT_OK
    names = [*PIPELINE_CORPORA, *(n + ".schema" for n in PIPELINE_CORPORA),
             "before.txt", "after.txt"]
    differ = [n for n in names if (chain / n).read_bytes() != (pipe / n).read_bytes()]
    assert differ == []


def test_pipeline_memory_grows_by_less_than_4_kb_per_record(tmp_path):
    # the pipeline streams its records and keeps none of their feature vectors
    import tracemalloc

    scenario = default_scenario_path()
    run_pipeline(scenario, seed=7, outdir=str(tmp_path / "warm"), n=20)
    peaks = {}
    for n in (100, 400):
        tracemalloc.start()
        try:
            run_pipeline(scenario, seed=7, outdir=str(tmp_path / str(n)), n=n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[400] - peaks[100]) / 300 < 4096


def test_pipeline_failing_mid_stream_leaves_no_debris(tmp_path, monkeypatch):
    import coaug.cli as cli

    label_report, calls = cli.labeler.label_report, []

    def fails_on_the_50th(report, matcher):
        calls.append(report)
        if len(calls) == 50:
            raise RuntimeError("labeler crash")
        return label_report(report, matcher)

    monkeypatch.setattr(cli.labeler, "label_report", fails_on_the_50th)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="labeler crash"):
        run_pipeline(default_scenario_path(), seed=7, outdir=str(out), n=200)
    # no temporary or spool file is left, and a corpus is whole or absent
    left = {p.name for p in out.iterdir()}
    assert left <= {*PIPELINE_CORPORA, *(n + ".schema" for n in PIPELINE_CORPORA)}
    for name in left & set(PIPELINE_CORPORA):
        assert (out / (name + ".schema")).exists()
        assert len(read_corpus(str(out / name))) >= 200


def test_stalled_pipeline_is_data_error_and_writes_no_corpus(tmp_path):
    text = Path(default_scenario_path()).read_text()
    assert "mention_positive = 1.0" in text and "mention_negative = 0.75" in text
    scenario = tmp_path / "silent.cfg"
    scenario.write_text(text.replace("mention_positive = 1.0", "mention_positive = 0")
                        .replace("mention_negative = 0.75", "mention_negative = 0"))
    out = tmp_path / "out"
    assert run(["--quiet", "pipeline", "--scenario", str(scenario), "--n", "5",
                "--outdir", str(out)]) == EXIT_DATA
    assert list(out.iterdir()) == []


# sha256 of `coaug augment` on the unlabeled `synth --scenario default --n 200
# --seed 7` corpus, as written when twins were labeled only by the pipeline
@pytest.mark.parametrize("flags, digest", [
    (["--rate", "1.0"], "58cc539ead8e8d92726f103f7b6526ec92d3c2da048a124321c5dfa9f6f88f4d"),
    (["--rate", "1.0", "--no-css"],
     "5995999565e265d5bbcb024210db75fdae4a417515508fea517a7aa5fdb17bf0"),
    (["--rate", "0.5", "--no-crr"],
     "83a23a3b7256895dbbb04b018110ee058f1a94e7c27f5549b059876b763398b2"),
], ids=["css-crr", "crr-only", "css-only"])
def test_augment_bytes_on_an_unlabeled_corpus_are_pinned(tmp_path, flags, digest):
    corpus_path = _small_corpus(tmp_path, n=200, seed=7)
    out = tmp_path / "a.jsonl"
    assert run(["--quiet", "augment", "--corpus", str(corpus_path), "--seed", "7", *flags,
                "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert all(r.labels is None for r in read_corpus(str(out)))
