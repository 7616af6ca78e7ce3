import hashlib
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug import cli
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

_BLOCK = cli._BLOCK  # evaluate's pairs per block


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


def test_augment_with_neither_css_nor_crr_is_usage_error_before_reading(tmp_path):
    # a missing corpus would exit 2: exit 1 shows the flags are checked first
    out = tmp_path / "a.jsonl"
    rc = run(["--quiet", "augment", "--corpus", str(tmp_path / "missing.jsonl"),
              "--rate", "0.5", "--no-css", "--no-crr", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


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


@pytest.mark.parametrize("n_gold, n_gen", [
    (3, 2), (2, 3), (_BLOCK + 2, _BLOCK + 1), (_BLOCK + 1, _BLOCK + 2),
    (_BLOCK + 1, _BLOCK), (_BLOCK, _BLOCK + 1), (2 * _BLOCK + 2, _BLOCK - 1),
    (_BLOCK - 1, 2 * _BLOCK + 2),
], ids=["gold-longer", "generated-longer", "gold-longer-inside-a-block",
        "generated-longer-inside-a-block", "gold-longer-at-a-block-boundary",
        "generated-longer-at-a-block-boundary", "gold-longer-by-blocks",
        "generated-longer-by-blocks"])
def test_evaluate_length_mismatch_is_data_error(tmp_path, schema, capsys, n_gold, n_gen):
    # the pairs are zipped as they are read, in blocks: the longer file's
    # extra records must still be seen and counted, wherever a block ends
    paths = []
    for name, n in (("gold", n_gold), ("gen", n_gen)):
        records = [make_record(f"r{i}", ["No pneumothorax.", f"Edema grade {i}."], schema,
                               features=False) for i in range(n)]
        paths.append(str(tmp_path / f"{name}.jsonl"))
        write_corpus(Corpus(schema, tuple(records)), paths[-1])
    out = tmp_path / "scores.json"
    capsys.readouterr()
    assert run(["--quiet", "evaluate", "--gold", paths[0], "--generated", paths[1],
                "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: gold has {n_gold} records, generated has {n_gen}\n"
    assert not out.exists()
    assert not (tmp_path / "scores.json.run.json").exists()


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


def test_artifacts_take_their_mode_from_the_umask(tmp_path):
    # a temporary file made by mkstemp is 0600, and its mode survived the rename
    old = os.umask(0o022)
    try:
        assert run(["--quiet", "pipeline", "--scenario", "strong_pair", "--n", "50",
                    "--seed", "11", "--outdir", str(tmp_path / "pipe")]) == EXIT_OK
        assert run(["--quiet", "augment", "--corpus", str(tmp_path / "pipe" / "labeled.jsonl"),
                    "--rate", "0.5", "--out", str(tmp_path / "a.jsonl"),
                    "--summary", str(tmp_path / "s.json")]) == EXIT_OK
    finally:
        os.umask(old)
    written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert len(written) == 10 + 4
    assert {p.name: oct(p.stat().st_mode & 0o777) for p in written} == {
        p.name: oct(0o644) for p in written}


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

    monkeypatch.setattr(cli.synth, "synth_records", boom)
    rc = run(["--quiet", "synth", "--scenario", "default", "--n", "5",
              "--out", str(tmp_path / "x.jsonl")])
    assert rc == 3


def test_synth_writes_the_pipeline_original_bytes(tmp_path):
    # the default scenario is covered by the subcommand chain test
    scenario, seed, n = "strong_pair", "11", "250"
    out, pipe = tmp_path / "c.jsonl", tmp_path / "pipe"
    assert run(["--quiet", "synth", "--scenario", scenario, "--seed", seed, "--n", n,
                "--out", str(out)]) == EXIT_OK
    assert run(["--quiet", "pipeline", "--scenario", scenario, "--seed", seed, "--n", n,
                "--outdir", str(pipe)]) == EXIT_OK
    assert out.read_bytes() == (pipe / "original.jsonl").read_bytes()
    assert (tmp_path / "c.jsonl.schema").read_bytes() == (pipe / "original.jsonl.schema").read_bytes()
    assert json.loads((tmp_path / "c.jsonl.run.json").read_text())["counts"]["records"] == int(n)


def test_synth_memory_grows_by_less_than_512_b_per_record(tmp_path):
    # synth streams its records to the file and keeps none
    def synth(n):
        assert run(["--quiet", "synth", "--scenario", "default", "--seed", "7", "--n", str(n),
                    "--out", str(tmp_path / f"{n}.jsonl")]) == EXIT_OK

    assert _peak_growth_per_record(synth) < 512


@pytest.mark.parametrize("edit, message", [
    (("mention_positive = 1.0", "mention_positive = 1.5"), "mention_positive"),
    (("mention_positive = 1.0", "mention_positive = 0"), "stalled"),  # fails mid-stream
], ids=["invalid", "stalled"])
def test_synth_config_error_is_data_error_and_leaves_no_file(tmp_path, capsys, edit, message):
    text = Path(default_scenario_path()).read_text(encoding="utf-8")
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(text.replace(*edit).replace("mention_negative = 0.75",
                                                    "mention_negative = 0"))
    out = tmp_path / "c.jsonl"
    rc = run(["--quiet", "synth", "--scenario", str(scenario), "--n", "5", "--out", str(out)])
    assert rc == EXIT_DATA
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


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
        where = f"{path}: line 2: unknown disease 'Dragon Pox'"
    else:
        path = tmp_path / "nessie.cfg"
        text = Path(default_scenario_path()).read_text()
        path.write_text(text + "\n[marginals]\nNessie = 0.5\n")
        args = ["--scenario", str(path), "--n", "3"]
        where = f"{path}: marginals.Nessie: unknown disease 'Nessie'"
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



_LONG_SENTENCES = st.lists(_WORDS, min_size=3, max_size=12).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_of_reordered_reports_equals_the_report_metrics(data):
    # each generated report is its gold report shuffled, less one sentence,
    # so the pairs share sentences of up to 12 words
    from coaug.corpus import Provenance, default_schema
    from coaug.metrics import bleu_stats, report_tokens, rouge_l

    schema = default_schema()
    gold_texts = data.draw(st.lists(st.lists(_LONG_SENTENCES, min_size=1, max_size=5),
                                    min_size=1, max_size=5))
    gen_texts = []
    for texts in gold_texts:
        shuffled = data.draw(st.permutations(texts))
        del shuffled[data.draw(st.integers(0, len(shuffled) - 1))]
        gen_texts.append(shuffled)
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
    assert [r.texts() for r in gen] == gen_texts
    precisions, bp, score = bleu_stats(gold, gen)
    assert scores == {"records": len(gold), "bleu4": score, "bleu4_precisions": precisions,
                      "bleu4_brevity_penalty": bp, "rouge_l": rouge_l(gold, gen)}
    assert counts == {"records": len(gold),
                      "gold_tokens": sum(len(report_tokens(r)) for r in gold),
                      "generated_tokens": sum(len(report_tokens(r)) for r in gen)}


# sentences that mark a disease Positive, Negative or Uncertain, more than one
# disease, or none; numbered copies keep some texts of a pair its own
_CE_SENTENCES = st.sampled_from([
    "The heart is enlarged.", "There is mild interstitial edema.", "Possible pneumonia.",
    "No cardiomegaly is present.", "There is a small right pleural effusion.",
    "No pneumothorax or pleural effusion.", "Cannot exclude pneumonia; likely atelectasis.",
    "There is no pneumothorax but the pleural effusion may be larger.",
    "Suspicious for pulmonary edema without pleural effusion.",
    "Could represent atelectasis, not pneumonia.", "The lungs are clear.", "Nothing new.",
])
_CE_TEXTS = st.one_of(_CE_SENTENCES, st.builds("{} Bed {}.".format, _CE_SENTENCES,
                                               st.integers(0, 3)))
_CE_GENERATED_ONLY = st.builds("{} View {}.".format, _CE_SENTENCES, st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_ce_equals_the_confusion_of_labeled_reports(data):
    # pairs that share texts and pairs that share none, empty generated
    # reports and repeated sentences: the counts, micro and macro scores are
    # those of label_report'd reports, and the labeler counts every sentence
    # and scans each distinct text once
    from dataclasses import asdict

    from coaug.corpus import Provenance, default_schema
    from coaug.labeler import default_matcher, label_report, match_tokens
    from coaug.metrics import (ce_confusion, ce_confusion_per_disease, ce_scores,
                               macro_ce_scores)

    schema = default_schema()
    gold_texts = data.draw(st.lists(st.lists(_CE_TEXTS, min_size=1, max_size=5),
                                    min_size=1, max_size=2 * _BLOCK + 3))
    gen_texts = []
    for texts in gold_texts:
        pool = data.draw(st.sampled_from([texts, texts + ["Nothing new."], ["Nothing new."]]))
        shares = st.lists(st.one_of(st.sampled_from(pool), _CE_TEXTS), min_size=1, max_size=5)
        disjoint = st.lists(_CE_GENERATED_ONLY, min_size=1, max_size=5)
        gen_texts.append(data.draw(st.one_of(shares, disjoint, st.just([]))))
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
                    "--metrics", "ce", "--macro", "--out", out]) == EXIT_OK
        scores = json.loads(Path(out).read_text())
        counts = json.loads(Path(out + ".run.json").read_text())["counts"]
    matcher = default_matcher(schema)
    gold = [label_report(r.report, matcher) for r in gold_records]
    gen = [label_report(r.report, matcher) for r in gen_records]
    confusion = ce_confusion(gold, gen)
    assert scores == {"records": len(gold), "counts": asdict(confusion),
                      "ce": asdict(ce_scores(confusion)),
                      "ce_macro": asdict(macro_ce_scores(ce_confusion_per_disease(gold, gen)))}
    texts = {t for report in gold_texts + gen_texts for t in report}
    assert counts["labeler"] == {
        "sentences": sum(map(len, gold_texts + gen_texts)), "distinct_texts": len(texts),
        "unmatched_texts": sum(not matcher.label_tokens(match_tokens(t)) for t in texts)}


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
    assert set(summary["stages"]) == {"setup", "read", "ce", "tokenize", "bleu4", "rougel",
                                      "write"}
    assert set(summary["counts"]) == {"records", "gold_tokens", "generated_tokens", "labeler"}
    assert "stages" not in json.loads(out.read_text())


def test_evaluate_macro_without_ce_is_usage_error_before_reading(tmp_path):
    # a missing corpus would exit 2: exit 1 shows the flags are checked first
    rc = run(["--quiet", "evaluate", "--gold", str(tmp_path / "missing.jsonl"),
              "--generated", str(tmp_path / "missing.jsonl"), "--metrics", "bleu4,rougel",
              "--macro", "--out", str(tmp_path / "scores.json")])
    assert rc == EXIT_USAGE


def test_evaluate_unknown_metric_is_usage_error_before_reading(tmp_path):
    rc = run(["--quiet", "evaluate", "--gold", str(tmp_path / "missing.jsonl"),
              "--generated", str(tmp_path / "missing.jsonl"), "--metrics", "ce,bogus",
              "--out", str(tmp_path / "scores.json")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("bad", ["gold", "generated", "generated-labels", "lexicon",
                                 "lexicon-duplicate", "cues", "schema", "gold-byte",
                                 "generated-byte", "generated-surrogate", "lexicon-byte",
                                 "cues-byte", "schema-byte"])
def test_evaluate_line_errors_name_their_file(tmp_path, schema, capsys, bad):
    # evaluate reads up to five files; "line 2: ..." alone does not say which
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    clean = gen_path if bad.startswith("gold") else gold_path
    flags = []
    if bad.endswith("-byte"):  # "\udcff" is written as the byte 0xff, which UTF-8 never holds
        kind = bad[:-len("-byte")]
        path = Path({"gold": gold_path, "generated": gen_path}.get(kind, tmp_path / kind))
        text = path.read_text() if path.exists() else {
            "lexicon": "Edema\tedema\nAtelectasis\tatelectasis\n", "cues": "neg\tno\nunc\tmay\n",
            "schema": "d=16\nEdema\n"}[kind]
        lines = text.splitlines(keepends=True)
        lines[1] = lines[1][:3] + "\udcff" + lines[1][3:]
        path.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
        if kind not in ("gold", "generated"):
            flags = [f"--{kind}", str(path)]
        where = f"{path}: line 2: invalid UTF-8 byte 0xff"
    elif bad in ("gold", "generated", "generated-labels", "generated-surrogate"):
        path = Path(gold_path if bad == "gold" else gen_path)
        lines = path.read_text().splitlines(keepends=True)
        if bad == "generated-labels":
            record = json.loads(lines[1])
            record["labels"] = {"Nessie": "Positive"}
            lines[1] = json.dumps(record) + "\n"
            where = f"{path}: line 2: unknown disease name 'Nessie'"
        elif bad == "generated-surrogate":  # valid JSON, but no UTF-8 text holds it
            record = json.loads(lines[1])
            record["report"][0] = "Lone \ud800 surrogate."
            lines[1] = json.dumps(record) + "\n"
            where = f"{path}: line 2: lone surrogate '\\ud800' in a string"
        else:
            lines[1] = "{not json\n"
            where = f"{path}: line 2: invalid JSON"
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
    assert clean not in err
    assert not out.exists()


def test_evaluate_reports_the_first_line_error_in_read_order(tmp_path, schema, capsys):
    # the files are read pair by pair, so generated line 2 comes before gold line 3
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    for path, line in ((gold_path, 2), (gen_path, 1)):
        lines = Path(path).read_text().splitlines(keepends=True)
        lines[line] = "{not json\n"
        Path(path).write_text("".join(lines))
    capsys.readouterr()
    assert run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
                "--out", str(tmp_path / "scores.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {gen_path}: line 2: invalid JSON" in err
    assert gold_path not in err


def test_evaluate_reports_a_bad_byte_in_read_order(tmp_path, schema, capsys):
    # each line is checked as it is read: a bad byte on gold line 5 comes after
    # bad JSON on generated line 2, though each small file is decoded in one chunk
    gold_path, gen_path = _evaluate_pair(tmp_path, schema)
    for path, line, bad in ((gold_path, 4, None), (gen_path, 1, "{not json\n")):
        lines = Path(path).read_text().splitlines(keepends=True)
        lines[line] = bad or lines[line].replace("{", "{\udcff", 1)
        Path(path).write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
    capsys.readouterr()
    assert run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
                "--out", str(tmp_path / "scores.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {gen_path}: line 2: invalid JSON" in err
    assert gold_path not in err


def _copy_corpus(src, dst):
    """Copy the corpus at *src*, its schema sidecar too, to *dst*."""
    for suffix in ("", ".schema"):
        Path(f"{dst}{suffix}").write_bytes(Path(f"{src}{suffix}").read_bytes())
    return dst


def _corpus_command(command, corpus_path, gold_path, out_dir):
    """The arguments that run *command* over the corpus at *corpus_path*
    into *out_dir*; evaluate scores it against the corpus at *gold_path*."""
    args = ["--quiet", command, "--out", str(out_dir / "out")]
    if command == "evaluate":
        return args + ["--gold", str(gold_path), "--generated", str(corpus_path)]
    if command == "augment":
        args += ["--rate", "1.0", "--seed", "7"]
    return args + ["--corpus", str(corpus_path)]


@pytest.mark.parametrize("kind", ["byte", "surrogate"])
@pytest.mark.parametrize("command", ["label", "analyze", "augment"])
def test_a_bad_byte_or_a_lone_surrogate_is_a_data_error(tmp_path, capsys, command, kind):
    # a byte that is not UTF-8, or a JSON-escaped lone surrogate that UTF-8
    # cannot write: each is a bad line of its file, in every command alike
    # (test_evaluate_line_errors_name_their_file has evaluate's cases)
    corpus_path = _small_corpus(tmp_path, n=8)
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    if kind == "byte":
        lines[2] = lines[2].replace('"report":["', '"report":["\udcff', 1)
        where = "line 3: invalid UTF-8 byte 0xff"
    else:
        lines[2] = lines[2].replace('"report":["', '"report":["Lone \\ud800 surrogate.","', 1)
        where = "line 3: lone surrogate '\\ud800' in a string"
    corpus_path.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    assert run(_corpus_command(command, corpus_path, None, out_dir)) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {corpus_path}: {where}\n"
    assert list(out_dir.iterdir()) == []


_MUTATIONS = ("delete", "rename", "retype", "cut", "byte", "surrogate")


def _mutate(line, kind, rng):
    """A seeded *kind* of mutation of the valid corpus line *line*, as text
    to write with ``surrogateescape``: its "\\udcXX" is the byte 0xXX."""
    if kind == "cut":
        return line[:rng.randrange(1, len(line) - 1)] + "\n"
    if kind == "byte":
        at = rng.randrange(len(line) - 1)
        return line[:at] + chr(0xDC80 + rng.randrange(128)) + line[at:]
    obj = json.loads(line)
    if kind == "surrogate":  # json.dumps escapes it: valid JSON in ASCII
        texts = obj["report"]
        i = rng.randrange(len(texts))
        at = rng.randrange(len(texts[i]) + 1)
        texts[i] = texts[i][:at] + chr(rng.randrange(0xD800, 0xE000)) + texts[i][at:]
        return json.dumps(obj) + "\n"
    # a key of the record, of a feature entry or of the labels
    part = rng.choice([obj, rng.choice(obj["features"]), obj["labels"] or obj])
    key = rng.choice(sorted(part))
    if kind == "delete":
        del part[key]
    elif kind == "rename":
        part[key.upper() if key.islower() else key.lower()] = part.pop(key)
    else:
        part[key] = rng.choice([v for v in (None, True, 7, 1.5, "x", ["x"], {})
                                if type(v) is not type(part[key])])
    return json.dumps(obj) + "\n"


def test_mutated_lines_exit_0_or_2_naming_their_file(tmp_path, capsys):
    # seeded mutations of valid lines, through every command that reads a
    # corpus: a bad line is a data error that names its file, never exit 3,
    # and no command leaves its temporary file behind
    rng = random.Random(26)
    gold_path = tmp_path / "gold.jsonl"
    assert run(["--quiet", "label", "--corpus", str(_small_corpus(tmp_path, n=6)),
                "--out", str(gold_path)]) == EXIT_OK
    lines = gold_path.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus_path = _copy_corpus(gold_path, tmp_path / "m.jsonl")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for case in range(60):
        kind = _MUTATIONS[case % len(_MUTATIONS)]
        at = rng.randrange(len(lines))
        mutated = lines[:at] + [_mutate(lines[at], kind, rng)] + lines[at + 1:]
        corpus_path.write_text("".join(mutated), encoding="utf-8", errors="surrogateescape")
        for command in ("label", "analyze", "augment", "evaluate"):
            capsys.readouterr()
            rc = run(_corpus_command(command, corpus_path, gold_path, out_dir))
            err = capsys.readouterr().err
            assert rc in (EXIT_OK, EXIT_DATA), (command, mutated[at], err)
            assert rc == EXIT_OK or str(corpus_path) in err, (command, mutated[at], err)
            assert not list(tmp_path.rglob(".tmp-coaug-*")), (command, mutated[at])


def test_an_escaped_surrogate_pair_reads_and_writes_as_before(tmp_path, capsys):
    # a valid pair is one character, written raw like any other text
    corpus_path = _small_corpus(tmp_path, n=3)
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"report":["', '"report":["Smile \\ud83d\\ude00.","', 1)
    corpus_path.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "l.jsonl"
    assert run(["--quiet", "label", "--corpus", str(corpus_path), "--out", str(out)]) == EXIT_OK
    assert '"report":["Smile \U0001f600.",' in out.read_text(encoding="utf-8").splitlines()[1]


@pytest.mark.parametrize("line, reason", [
    ("n_records 5", "expected 'key = value', got 'n_records 5'"),
    ("n_records = 5\udcff", "invalid UTF-8 byte 0xff"),
], ids=["no-equals", "byte"])
def test_scenario_line_errors_name_their_file(tmp_path, capsys, line, reason):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[general]\n{line}\n", encoding="utf-8", errors="surrogateescape")
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert run(["--quiet", "synth", "--scenario", str(path), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: line 2: {reason}\n"
    assert not out.exists()


def _unique_texts(i):
    """Six sentence texts of report *i* that no other report repeats."""
    return [f"There is a {i} mm nodule in the right upper zone.",
            f"No pleural effusion is seen on the lateral view {i}.",
            f"Possible mild interstitial edema at level {i}.",
            f"The heart measures {i} cm and is enlarged.",
            f"The lungs are otherwise clear on film {i}.",
            f"No pneumothorax is seen after procedure {i}."]


def _unique_sentence_corpus(tmp_path, schema, n):
    """A corpus of *n* unlabeled records of ``_unique_texts``."""
    path = tmp_path / f"unique{n}.jsonl"
    write_corpus(Corpus(schema, tuple(make_record(f"r{i}", _unique_texts(i), schema)
                                      for i in range(n))), str(path))
    return str(path)


def _unique_sentence_pairs(tmp_path, schema, n):
    """*n* gold reports of ``_unique_texts`` and generated ones that reverse
    them and drop one."""
    gold, gen = [], []
    for i in range(n):
        texts = _unique_texts(i)
        gold.append(make_record(f"r{i}", texts, schema, features=False))
        gen.append(make_record(f"r{i}", texts[:0:-1], schema, features=False))
    paths = []
    for name, records in (("gold", gold), ("gen", gen)):
        paths.append(str(tmp_path / f"{name}{n}.jsonl"))
        write_corpus(Corpus(schema, tuple(records)), paths[-1])
    return paths


def _mixed_pairs(tmp_path, schema, n):
    """*n* gold reports of unique sentences and generated ones that, in
    turn, reverse them less one, share none of them or repeat them."""
    gold, gen = [], []
    for i in range(n):
        texts = [f"There is a {i} mm nodule in the right upper zone.",
                 f"No pleural effusion is seen on view {i}.", f"Possible edema at level {i}.",
                 "The heart is enlarged."]
        gold.append(make_record(f"r{i}", texts, schema, features=False))
        other = [texts[:0:-1], ["No pneumothorax.", f"Mild atelectasis {i}."], texts][i % 3]
        gen.append(make_record(f"r{i}", other, schema, features=False))
    paths = []
    for name, records in (("gold", gold), ("gen", gen)):
        paths.append(str(tmp_path / f"{name}.jsonl"))
        write_corpus(Corpus(schema, tuple(records)), paths[-1])
    return paths


def _evaluate_outcome(tmp_path, gold_path, gen_path, metrics):
    """evaluate's exit code, its scores.json bytes and its run record's counts."""
    out = tmp_path / "scores.json"
    macro = ["--macro"] if "ce" in metrics else []
    rc = run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
              "--metrics", metrics, *macro, "--out", str(out)])
    if rc != EXIT_OK:
        return rc, None, None
    counts = json.loads((tmp_path / "scores.json.run.json").read_text())["counts"]
    return rc, out.read_bytes(), counts


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("metrics", ["ce,bleu4,rougel", "bleu4,rougel"])
def test_evaluate_in_blocks_writes_what_one_pair_per_block_writes(
        tmp_path, schema, monkeypatch, n, metrics):
    gold_path, gen_path = _mixed_pairs(tmp_path, schema, n)
    blocked = _evaluate_outcome(tmp_path, gold_path, gen_path, metrics)
    monkeypatch.setattr(cli, "_BLOCK", 1)
    assert blocked == _evaluate_outcome(tmp_path, gold_path, gen_path, metrics)
    assert blocked[0] == (EXIT_DATA if n == 0 and "ce" in metrics else EXIT_OK)


@pytest.mark.parametrize("gold_line, gen_line, first", [
    (_BLOCK + 1, _BLOCK, "gen"), (_BLOCK, _BLOCK + 1, "gold"),
], ids=["generated-ends-a-block", "gold-ends-a-block"])
def test_evaluate_reports_the_first_line_error_across_a_block_boundary(
        tmp_path, schema, capsys, gold_line, gen_line, first):
    # the pairs are read in blocks, but still gold then generated, pair by pair
    paths = dict(zip(("gold", "gen"), _mixed_pairs(tmp_path, schema, 2 * _BLOCK + 1)))
    for name, line_no in (("gold", gold_line), ("gen", gen_line)):
        lines = Path(paths[name]).read_text().splitlines(keepends=True)
        lines[line_no - 1] = "{not json\n"
        Path(paths[name]).write_text("".join(lines))
    capsys.readouterr()
    assert run(["--quiet", "evaluate", "--gold", paths["gold"], "--generated", paths["gen"],
                "--out", str(tmp_path / "scores.json")]) == EXIT_DATA
    where = f"{paths[first]}: line {gold_line if first == 'gold' else gen_line}: invalid JSON"
    assert capsys.readouterr().err.startswith(f"error: {where}")


def test_evaluate_labels_each_text_of_a_sharing_pair_once_whatever_the_memo(
        tmp_path, schema, monkeypatch):
    # a memo of one text is cleared before every scan: the pairs that share a
    # text still scan each of their 4 texts once, from the pair's own table,
    # and a pair that shares none scans its 4 + 2 sentences through the memo
    from coaug import labeler

    n = 3 * _BLOCK + 1
    gold_path, gen_path = _mixed_pairs(tmp_path, schema, n)
    (tmp_path / "full").mkdir()
    _, expected, _ = _evaluate_outcome(tmp_path / "full", gold_path, gen_path, "ce")
    monkeypatch.setattr(labeler, "_MEMO_TEXTS", 1)
    rc, scores, counts = _evaluate_outcome(tmp_path, gold_path, gen_path, "ce")
    assert (rc, scores) == (EXIT_OK, expected)
    sharing = sum(i % 3 != 1 for i in range(n))
    assert counts["labeler"]["distinct_texts"] == 4 * sharing + 6 * (n - sharing)


# far apart, since tracemalloc also counts CPython's tuple free lists, whose
# fill (up to a few hundred KB) moves with the tests run before
_MEMORY_SIZES = (300, 3000)


def _peak_growth_per_record(command):
    """Traced peak memory of ``command(n)`` per record from the smaller of
    ``_MEMORY_SIZES`` to the larger, after a warm-up at the larger: a first
    traced run after a smaller warm-up carries one-off allocations.  A full
    collection comes first, so that the collections in the runs, which
    empty the free lists, fall at the same points in every call."""
    import gc
    import tracemalloc

    small, large = _MEMORY_SIZES
    gc.collect()
    command(large)
    peaks = {}
    for n in (small, large):
        tracemalloc.start()
        try:
            command(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return (peaks[large] - peaks[small]) / (large - small)


def test_evaluate_memory_grows_by_less_than_384_b_per_pair(tmp_path, schema):
    # evaluate streams its pairs and keeps sums; what grows is the record ids
    # of the duplicate check, not the labeler's memo, which holds a fixed
    # number of texts
    from coaug import labeler

    # both sizes hold more texts than the memo, whose peak is then the same
    assert len(_unique_texts(0)) * _MEMORY_SIZES[0] > labeler._MEMO_TEXTS
    inputs = {n: _unique_sentence_pairs(tmp_path, schema, n) for n in _MEMORY_SIZES}

    def evaluate(n):
        gold_path, gen_path = inputs[n]
        assert run(["--quiet", "evaluate", "--gold", gold_path, "--generated", gen_path,
                    "--macro", "--out", str(tmp_path / f"scores{n}.json")]) == EXIT_OK

    assert _peak_growth_per_record(evaluate) < 384


def test_analyze_memory_grows_by_less_than_256_b_per_record(tmp_path, schema):
    # analyze keeps each record's label columns and id, not its sentences
    from coaug import labeler

    # both sizes hold more texts than the memo, whose peak is then the same
    assert len(_unique_texts(0)) * _MEMORY_SIZES[0] > labeler._MEMO_TEXTS
    corpora = {n: _unique_sentence_corpus(tmp_path, schema, n) for n in _MEMORY_SIZES}

    def analyze(n):
        assert run(["--quiet", "analyze", "--corpus", corpora[n],
                    "--out", str(tmp_path / f"r{n}.txt")]) == EXIT_OK

    assert _peak_growth_per_record(analyze) < 256


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
        "setup", "synth", "write_original", "label", "write_labeled",
        "analyze_before", "augment", "write_augmented", "analyze_after"}
    assert all(t >= 0 for t in run_summary["stages"].values())
    summary = (tmp_path / "a" / "summary.json").read_bytes()
    assert b"stages" not in summary
    assert run_pipeline(default_scenario_path(), seed=3, outdir=str(tmp_path / "b"),
                        n=60)[0] == json.loads(summary)
    assert (tmp_path / "b" / "summary.json").read_bytes() == summary


def test_pipeline_run_summary_counts_what_the_labeler_did(tmp_path):
    # negative templates no rule matches give texts the labeler leaves unmatched
    text = Path(default_scenario_path()).read_text()
    scenario = tmp_path / "unlabelable.cfg"
    scenario.write_text(re.sub(r"(\| negative = ).*", r"\1Nothing further to note.", text))
    out = tmp_path / "out"
    assert run(["--quiet", "pipeline", "--scenario", str(scenario), "--n", "200", "--seed", "3",
                "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    counts = json.loads((out / "summary.json.run.json").read_text())["counts"]["labeler"]
    originals = read_corpus(str(out / "labeled.jsonl"))
    assert set(counts["statuses"]) == set(originals.schema.names)
    for index, name in enumerate(originals.schema.names):
        by_status = counts["statuses"][name]
        assert list(by_status) == sorted(status.value for status in DiseaseStatus)
        assert sum(by_status.values()) == summary["records_original"] == len(originals)
        for status in DiseaseStatus:
            assert by_status[status.value] == sum(
                record.labels.statuses[index] is status for record in originals)
    # at rate 1.0 every twin built is written: the originals' and the twins' sentences
    augmented = read_corpus(str(out / "augmented.jsonl"))
    assert counts["sentences"] == sum(len(record.report) for record in augmented)
    texts = {s.text for record in augmented for s in record.report.sentences}
    assert counts["distinct_texts"] == len(texts)
    assert counts["unmatched_texts"] == 1  # "Nothing further to note."
    assert b"labeler" not in (out / "summary.json").read_bytes()


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
        ["pipeline-default:", "ok"], ["strong_pair:", "ok"], ["evaluate-reordered:", "ok"],
        ["evaluate-partial-block:", "ok"], ["evaluate-disjoint:", "ok"],
        ["evaluate-templated:", "ok"], ["augment:", "ok"], ["analyze-freetext:", "ok"]]


def test_pipeline_bytes_do_not_depend_on_the_string_hash_seed(tmp_path):
    # statuses hash by identity and strings by PYTHONHASHSEED: neither may
    # reach an artifact through the iteration order of a set or a dict
    import subprocess

    root = Path(__file__).resolve().parents[1]
    reference = json.loads((root / "perfbench" / "reference_digests.json")
                           .read_text())["pipeline-default"]
    for hash_seed in ("0", "4242"):
        outdir = tmp_path / hash_seed
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "coaug", "--quiet", "pipeline",
                        "--scenario", "default", "--seed", "7", "--n", "1600",
                        "--outdir", str(outdir)], env=env, check=True)
        digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                   for name in reference}
        assert digests == reference, hash_seed


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


def test_pipeline_memory_grows_by_less_than_512_b_per_record(tmp_path):
    # the pipeline streams its records and keeps only their label columns
    def pipeline(n):
        run_pipeline(default_scenario_path(), seed=7, outdir=str(tmp_path / str(n)), n=n)

    assert _peak_growth_per_record(pipeline) < 512


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


def test_augment_twin_id_that_is_already_a_record_id_is_data_error(tmp_path, schema, capsys):
    # r000000's twin is r000000#cf: augment wrote a second one, which label refused
    texts = ["There is a moderate left apical pneumothorax.",
             "There is a small right pleural effusion."]
    records = [make_record(rid, texts, schema) for rid in ("r000000", "r000000#cf")]
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(Corpus(schema, tuple(records)), str(corpus_path))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run(["--quiet", "augment", "--corpus", str(corpus_path), "--rate", "1.0",
                "--out", str(out_dir / "a.jsonl")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'r000000'" in err and "'r000000#cf'" in err
    assert list(out_dir.iterdir()) == []


def test_label_stops_at_a_bad_line_mid_file_and_writes_nothing(tmp_path, capsys):
    # label streams its corpus; a bad line 17 leaves neither output nor temporary file
    corpus_path = _small_corpus(tmp_path, n=30)
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[16] = "{not json\n"
    corpus_path.write_text("".join(lines), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run(["--quiet", "label", "--corpus", str(corpus_path),
                "--out", str(out_dir / "l.jsonl")]) == EXIT_DATA
    assert f"{corpus_path}: line 17: invalid JSON" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_analyze_labels_only_the_records_without_labels(tmp_path, schema):
    # carried labels are kept, the rest are labeled from their text, in one pass
    carried = [DiseaseStatus.UNMENTIONED] * len(schema)
    a, b = schema.index_of("Pneumothorax"), schema.index_of("Pleural Effusion")
    carried[a] = carried[b] = DiseaseStatus.POSITIVE
    texts = ["No pneumothorax.", "Small right pleural effusion."]
    records = [make_record(f"r{i}", texts, schema,
                           labels=ReportLabelVector(tuple(carried)) if i % 2 else None)
               for i in range(5)]
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(Corpus(schema, tuple(records)), str(corpus_path))
    report_path = tmp_path / "r.txt"
    assert run(["--quiet", "analyze", "--corpus", str(corpus_path),
                "--pairs", "Pneumothorax,Pleural Effusion", "--out", str(report_path)]) == EXIT_OK
    report = report_path.read_text()
    assert "records: 5" in report
    assert "cells: n_pp=2 n_pm=0 n_mp=3 n_mm=0" in report
    assert "co_occurrences=5" in report


def _count_label_text(monkeypatch):
    """Count every ``Matcher.label_text`` call, and apart those of CSS's draw."""
    from coaug import augment
    from coaug.labeler import Matcher

    calls = {"all": 0, "css": 0}
    label_text, label_sentence = Matcher.label_text, augment.label_sentence

    def counted(self, text):
        calls["all"] += 1
        return label_text(self, text)

    def css_draw(sentence, matcher):
        calls["css"] += 1
        return label_sentence(sentence, matcher)

    monkeypatch.setattr(Matcher, "label_text", counted)
    monkeypatch.setattr(augment, "label_sentence", css_draw)
    return calls


def test_pipeline_looks_up_each_labeled_sentence_once(tmp_path, monkeypatch):
    # the first mentions come from the labeler's walk, so the columns look
    # nothing up: the lookups are the labeled sentences plus CSS's draws,
    # not about twice the sentences
    calls = _count_label_text(monkeypatch)
    _, _, counts = run_pipeline(default_scenario_path(), seed=7, outdir=str(tmp_path), n=200)
    assert calls["css"] > 0
    assert calls["all"] == counts["labeler"]["sentences"] + calls["css"]


def test_analyze_walks_each_report_once(tmp_path, monkeypatch):
    corpus_path = _small_corpus(tmp_path, n=40)
    sentences = sum(len(record.report) for record in read_corpus(str(corpus_path)))
    calls = _count_label_text(monkeypatch)
    assert run(["--quiet", "analyze", "--corpus", str(corpus_path),
                "--out", str(tmp_path / "r.txt")]) == EXIT_OK
    assert calls["all"] == sentences


def test_pipeline_run_summary_counts_skips_by_reason(tmp_path):
    # negative templates no rule matches: a report of only those has no
    # sentence that CSS can pop, so its twin is skipped
    text = Path(default_scenario_path()).read_text()
    scenario = tmp_path / "unlabelable.cfg"
    scenario.write_text(re.sub(r"(\| negative = ).*", r"\1Nothing further to note.", text))
    out = tmp_path / "out"
    assert run(["--quiet", "pipeline", "--scenario", str(scenario), "--n", "200", "--seed", "3",
                "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    skips = json.loads((out / "summary.json.run.json").read_text())["counts"]["skips"]
    assert set(skips) == {"below-min-sentences", "no-labelable-sentence"}
    assert skips["no-labelable-sentence"] > 0
    assert sum(skips.values()) == summary["augmentation"]["skipped"]
    assert "skips" not in json.dumps(summary)


@pytest.mark.parametrize("value", ["positive", 1, ["x"], {}],
                         ids=["lowercase", "int", "list", "object"])
def test_a_label_value_that_is_no_status_is_data_error(tmp_path, capsys, value):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "a", "report": ["Fine."], "labels": {"Edema": value},
                                "provenance": "Original"}) + "\n")
    out = tmp_path / "l.jsonl"
    assert run(["--quiet", "label", "--corpus", str(path), "--out", str(out)]) == EXIT_DATA
    assert f"{path}: line 1: unknown status {value!r}" in capsys.readouterr().err
    assert not out.exists()


def _augment_into(out_dir, corpus_path, *flags):
    """Run augment into *out_dir* over an existing output and summary, and
    return the exit code and the directory's files with their bytes."""
    out_dir.mkdir(exist_ok=True)
    (out_dir / "a.jsonl").write_text("old output\n")
    (out_dir / "s.json").write_text("old summary\n")
    rc = run(["--quiet", "augment", "--corpus", str(corpus_path), "--seed", "7", *flags,
              "--out", str(out_dir / "a.jsonl"), "--summary", str(out_dir / "s.json")])
    return rc, {p.name: p.read_bytes() for p in out_dir.iterdir()}


UNTOUCHED = {"a.jsonl": b"old output\n", "s.json": b"old summary\n"}


def test_augment_reports_a_counterfactual_record_before_a_later_bad_line(tmp_path, capsys):
    # augment streams: line 3 is reported, not line 10 as when the whole
    # corpus was read before the records were checked
    corpus_path = _small_corpus(tmp_path, n=12)
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(lines[2])
    obj.update(provenance="Counterfactual", source_id=json.loads(lines[0])["id"])
    lines[2], lines[9] = json.dumps(obj) + "\n", "{not json\n"
    corpus_path.write_text("".join(lines), encoding="utf-8")
    rc, left = _augment_into(tmp_path / "out", corpus_path, "--rate", "1.0")
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert f"record {obj['id']!r} is already counterfactual" in err and "line 10" not in err
    # the message names the corpus and no function of the library
    assert err.startswith(f"error: {corpus_path}: record {obj['id']!r} ")
    assert "augment_dataset" not in err and "all-Original corpus" in err
    assert left == UNTOUCHED


def test_augment_checks_twin_ids_only_after_the_whole_read(tmp_path, schema, capsys):
    # r000000's twin id is a later record's id, and the last line is bad:
    # the collision is found after the read, so the bad line is reported
    texts = ["There is a moderate left apical pneumothorax.",
             "There is a small right pleural effusion."]
    records = [make_record(rid, texts, schema) for rid in ("r000000", "r000001", "r000000#cf")]
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(Corpus(schema, tuple(records)), str(corpus_path))
    rc, left = _augment_into(tmp_path / "out", corpus_path, "--rate", "1.0")
    assert (rc, left) == (EXIT_DATA, UNTOUCHED)
    assert "'r000000#cf' is already a record id" in capsys.readouterr().err
    with open(corpus_path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    rc, left = _augment_into(tmp_path / "out", corpus_path, "--rate", "1.0")
    assert (rc, left) == (EXIT_DATA, UNTOUCHED)
    assert f"{corpus_path}: line 4: invalid JSON" in capsys.readouterr().err


def test_augment_memory_grows_by_less_than_512_b_per_record(tmp_path):
    # augment streams its records to the output and spools their twins on
    # disk; it keeps a byte per record, the read's record ids and the
    # labeler's memo of distinct sentences
    corpora = {}
    for n in _MEMORY_SIZES:
        (tmp_path / str(n)).mkdir()
        corpora[n] = _small_corpus(tmp_path / str(n), n=n, seed=7)

    def augment(n):
        assert run(["--quiet", "augment", "--corpus", str(corpora[n]), "--rate", "1.0",
                    "--seed", "7", "--out", str(tmp_path / f"{n}.jsonl")]) == EXIT_OK

    assert _peak_growth_per_record(augment) < 512


def _hand_edited(line: str, k: int) -> str:
    """A corpus line as a person might write it: spaced, keys in another
    order, integer feature values and, on every third line, null labels."""
    obj = json.loads(line)
    if k % 3 == 0:
        obj["labels"] = None
    for entry in obj["features"][k % 2::2]:
        if not entry["masked"]:
            entry["vec"][0] = k
    return json.dumps(dict(reversed(obj.items())), separators=(" , ", " : ")) + "\n"


@pytest.mark.parametrize("flags", [[], ["--no-css"], ["--no-crr"]], ids=["css-crr", "crr-only",
                                                                          "css-only"])
def test_augment_writes_the_bytes_of_the_in_memory_reference(tmp_path, schema, matcher, flags):
    from coaug.augment import AugmentationConfig, augment_dataset

    original = _small_corpus(tmp_path, n=60, seed=7)
    labeled = tmp_path / "l.jsonl"
    assert run(["--quiet", "label", "--corpus", str(original), "--out", str(labeled)]) == EXIT_OK
    lines = labeled.read_text(encoding="utf-8").splitlines(keepends=True)
    edited = [_hand_edited(line, k) for k, line in enumerate(lines)]
    edited.insert(5, "\n")
    labeled.write_text("".join(edited), encoding="utf-8")
    out, reference = tmp_path / "a.jsonl", tmp_path / "ref.jsonl"
    assert run(["--quiet", "augment", "--corpus", str(labeled), "--rate", "0.37",
                "--seed", "7", *flags, "--out", str(out)]) == EXIT_OK
    cfg = AugmentationConfig(rate=0.37, seed=7, enable_css="--no-css" not in flags,
                             enable_crr="--no-crr" not in flags)
    augmented, summary = augment_dataset(read_corpus(str(labeled), schema), matcher, cfg)
    write_corpus(augmented, str(reference))
    assert summary.augmented > 0
    # the records are written as read and encoded again, not copied
    assert not out.read_bytes().startswith(edited[0].encode("utf-8"))
    assert out.read_bytes() == reference.read_bytes()


_RUN_STAGES = {
    "synth": {"setup", "synth", "write"},
    "label": {"setup", "read", "label", "write"},
    "analyze": {"setup", "read", "label", "analyze", "write"},
    "augment": {"setup", "read", "augment", "write"},
    "evaluate": {"setup", "read", "ce", "tokenize", "bleu4", "rougel", "write"},
    "pipeline": {"setup", "synth", "write_original", "label", "write_labeled",
                 "analyze_before", "augment", "write_augmented", "analyze_after"},
}


def test_every_command_writes_one_shape_of_run_record(tmp_path):
    original = str(tmp_path / "c.jsonl")
    labeled = str(tmp_path / "l.jsonl")
    commands = {
        "synth": (["--scenario", "default", "--n", "40", "--seed", "5", "--out", original],
                  original),
        "label": (["--corpus", original, "--out", labeled], labeled),
        "analyze": (["--corpus", labeled, "--out", str(tmp_path / "r.txt")],
                    str(tmp_path / "r.txt")),
        "augment": (["--corpus", labeled, "--rate", "0.6", "--seed", "3",
                     "--out", str(tmp_path / "a.jsonl")], str(tmp_path / "a.jsonl")),
        "evaluate": (["--gold", original, "--generated", labeled, "--macro",
                      "--out", str(tmp_path / "s.json")], str(tmp_path / "s.json")),
        "pipeline": (["--scenario", "default", "--n", "40", "--seed", "5",
                      "--outdir", str(tmp_path / "p")], str(tmp_path / "p" / "summary.json")),
    }
    for command, (flags, out) in commands.items():
        assert run(["--quiet", command, *flags]) == EXIT_OK, command
        record = json.loads(Path(out + ".run.json").read_text())
        assert set(record) == {"command", "inputs", "seed", "counts", "stages",
                               "wall_time_s"}, command
        assert record["command"] == command
        stages = record["stages"]
        assert set(stages) == _RUN_STAGES[command], command
        assert all(seconds >= 0 for seconds in stages.values()), command
        # each stage and the wall time are rounded to 3 places
        assert sum(stages.values()) <= record["wall_time_s"] + 0.0005 * (len(stages) + 1)
        counts = record["counts"]
        if command == "augment":
            assert set(counts["skips"]) == {"below-min-sentences", "no-labelable-sentence"}
            assert sum(counts["skips"].values()) == counts["skipped"]
        if command in ("label", "analyze", "augment", "evaluate"):
            assert set(counts["labeler"]) == {"sentences", "distinct_texts", "unmatched_texts"}
    sentences = sum(len(record.report) for record in read_corpus(original))
    labeled_counts = json.loads(Path(labeled + ".run.json").read_text())["counts"]
    assert labeled_counts["labeler"]["sentences"] == sentences
    assert labeled_counts["records"] == 40


def test_a_run_record_lists_every_stage_of_an_empty_run(tmp_path):
    empty = str(tmp_path / "e.jsonl")
    assert run(["--quiet", "synth", "--scenario", "default", "--n", "0", "--out", empty]) == EXIT_OK
    # ce of no pairs is a data error
    assert run(["--quiet", "evaluate", "--gold", empty, "--generated", empty,
                "--metrics", "bleu4,rougel", "--out", str(tmp_path / "s.json")]) == EXIT_OK
    assert run(["--quiet", "pipeline", "--scenario", "default", "--n", "0",
                "--outdir", str(tmp_path / "p")]) == EXIT_OK
    for command, out in (("synth", empty), ("evaluate", str(tmp_path / "s.json")),
                         ("pipeline", str(tmp_path / "p" / "summary.json"))):
        stages = json.loads(Path(out + ".run.json").read_text())["stages"]
        assert set(stages) == _RUN_STAGES[command] - {"ce"}, command


# ---------------------------------------------------------------------------
# analyze: the text of every branch, on a hand-labeled corpus


def _branch_corpus(tmp_path, schema):
    """Thirteen records whose carried labels give every analysis branch:
    Cardiomegaly ~ Pleural Effusion reverses within the Edema strata,
    Pneumothorax is always positive (no negative margin) but never in the
    text, and Fracture is never mentioned (four empty cells, no lift)."""
    names = ("Cardiomegaly", "Pleural Effusion", "Edema", "Pneumothorax")
    heart, effusion = "The heart is enlarged.", "There is a small right pleural effusion."
    P, N, U = DiseaseStatus.POSITIVE, DiseaseStatus.NEGATIVE, DiseaseStatus.UNMENTIONED
    # (Cardiomegaly, Pleural Effusion, Edema) and how many records carry them
    rows = [((P, P, P), 4), ((P, N, P), 1), ((N, P, P), 1),
            ((P, N, N), 1), ((N, P, N), 1), ((N, N, N), 4), ((U, P, U), 1)]
    records = []
    for statuses, count in rows:
        for _ in range(count):
            labels = [U] * len(schema)
            for name, status in zip(names, (*statuses, P)):
                labels[schema.index_of(name)] = status
            k = len(records)
            texts = [effusion] if statuses[0] is U else (
                [effusion, heart] if k % 4 == 3 else [heart, effusion])
            records.append(make_record(f"r{k}", texts, schema,
                                       labels=ReportLabelVector(tuple(labels))))
    path = tmp_path / "branches.jsonl"
    write_corpus(Corpus(schema, tuple(records)), str(path))
    return str(path)


_BRANCH_PAIRS = "Cardiomegaly,Pleural Effusion;Cardiomegaly,Fracture;Pneumothorax,Cardiomegaly"
_BRANCH_TEXT = """records: 13

pair: Cardiomegaly ~ Pleural Effusion
  cells: n_pp=4 n_pm=2 n_mp=2 n_mm=4
  margins: a_pos=6 a_neg=6 classified=12 total=13
  p(b+|a+)=0.667  p(b+|a-)=0.333  p(b-|a+)=0.333  p(b-|a-)=0.667
  odds_ratio=4  independence_gap=0.0833333
  co_mention_lift=1  order_asymmetry=0.5 (co_occurrences=12)
  simpson_reversal: {}

pair: Cardiomegaly ~ Fracture
  cells: n_pp=0 n_pm=0 n_mp=0 n_mm=0
  margins: a_pos=6 a_neg=6 classified=0 total=13
  p(b+|a+)=0.000  p(b+|a-)=0.000  p(b-|a+)=0.000  p(b-|a-)=0.000
  odds_ratio=n/a  independence_gap=n/a
  co_mention_lift=n/a  order_asymmetry=n/a (co_occurrences=0)
  simpson_reversal: {}

pair: Pneumothorax ~ Cardiomegaly
  cells: n_pp=6 n_pm=6 n_mp=0 n_mm=0
  margins: a_pos=13 a_neg=0 classified=12 total=13
  conditionals: n/a
  odds_ratio=1  independence_gap=0
  co_mention_lift=1  order_asymmetry=n/a (co_occurrences=0)
  simpson_reversal: {}
"""


@pytest.mark.parametrize("stratify, verdicts", [
    ([], ("n/a", "n/a", "n/a")),
    (["--stratify", "disease:Edema"], ("yes", "no", "no")),
], ids=["unstratified", "by-edema"])
def test_analyze_text_is_pinned_on_every_branch(tmp_path, schema, stratify, verdicts):
    out = tmp_path / "analysis.txt"
    assert run(["--quiet", "analyze", "--corpus", _branch_corpus(tmp_path, schema),
                "--pairs", _BRANCH_PAIRS, *stratify, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == _BRANCH_TEXT.format(*verdicts)


def test_evaluate_ce_of_empty_corpora_names_both_files_and_writes_nothing(tmp_path, capsys):
    gold, generated = str(tmp_path / "gold.jsonl"), str(tmp_path / "generated.jsonl")
    for path in (gold, generated):
        assert run(["--quiet", "synth", "--scenario", "default", "--n", "0",
                    "--out", path]) == EXIT_OK
    out = tmp_path / "scores.json"
    capsys.readouterr()
    assert run(["--quiet", "evaluate", "--gold", gold, "--generated", generated,
                "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert gold in err and generated in err and "hold no records" in err
    assert not out.exists() and not (tmp_path / "scores.json.run.json").exists()
    assert run(["--quiet", "evaluate", "--gold", gold, "--generated", generated,
                "--metrics", "bleu4,rougel", "--out", str(out)]) == EXIT_OK


# ---------------------------------------------------------------------------
# the modules a command loads

_MODULES_PROBE = """
import sys
sys.path.insert(0, {root!r})
from coaug import cli
code = cli.run({argv!r})
print(code, *sorted(name for name in sys.modules if name.startswith("coaug.")))
"""


def _modules_loaded_by(argv):
    import subprocess

    import coaug

    root = os.path.dirname(os.path.dirname(os.path.abspath(coaug.__file__)))
    result = subprocess.run([sys.executable, "-c", _MODULES_PROBE.format(root=root, argv=argv)],
                            capture_output=True, text=True)
    code, *modules = result.stdout.split()
    assert code == str(EXIT_OK), result.stderr
    return set(modules)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    out = tmp_path / "out"
    loaded = _modules_loaded_by(["--quiet", "pipeline", "--scenario", "default", "--n", "20",
                                 "--outdir", str(out)])
    assert {"coaug.synth", "coaug.labeler", "coaug.augment", "coaug.confound"} <= loaded
    assert "coaug.metrics" not in loaded
    corpus = str(out / "original.jsonl")
    loaded = _modules_loaded_by(["--quiet", "evaluate", "--gold", corpus, "--generated", corpus,
                                 "--out", str(tmp_path / "scores.json")])
    assert {"coaug.labeler", "coaug.metrics"} <= loaded
    assert not loaded & {"coaug.synth", "coaug.augment", "coaug.confound", "coaug.rng"}


# every name the package exported when it imported all of its modules
_EXPORTED = """
AugmentationConfig AugmentationOutcome AugmentSummary Skip augment_dataset augment_record
crr_augment css_augment AssociationStats ContingencyTable OrderAsymmetry SimpsonReport
StratifiedTables association_stats build_contingency co_mention_lift conditional_probability
detect_simpson_reversal odds_ratio order_asymmetry Corpus DiseaseStatus FeatureBundle
LabelSchema Provenance Record Report ReportLabelVector Sentence default_schema make_schema
read_corpus read_schema validate_record write_corpus write_schema CueList LexiconRule Matcher
compile_lexicon default_matcher label_corpus label_report label_sentence CeScores
ConfusionCounts bleu4 bleu_stats ce_confusion ce_scores macro_ce_scores rouge_l RngStream
fnv1a64 mix64 OrderPolicy PlantedPair SynthConfig parse_scenario render_report
sample_features synth_generate __version__
""".split()


def test_the_package_still_exports_every_name():
    import importlib

    import coaug

    assert sorted(coaug.__all__) == sorted(_EXPORTED)
    for name in _EXPORTED:
        namespace: dict = {}
        exec(f"from coaug import {name}", namespace)
        value = namespace[name]
        if name != "__version__":
            assert value is getattr(importlib.import_module(value.__module__), name)
    with pytest.raises(ImportError):
        exec("from coaug import no_such_name", {})
