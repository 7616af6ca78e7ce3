"""Command line entry point.

Subcommands: synth, label, analyze, augment, evaluate, pipeline.  All
outputs are written atomically (temp file + rename); every command that
writes an --out file also writes a machine-readable run summary next to
it (``<out>.run.json``, carrying inputs, seed, counts and wall time).
Exit codes: 0 success, 1 usage error, 2 data/validation error (an
unreadable or unwritable path included), 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import shutil
import sys
import tempfile
import time
from typing import Optional

from . import augment as aug
from . import confound, corpus, labeler, metrics, synth
from .corpus import Corpus, LabelSchema, atomic_write_text
from .errors import CoaugError, NoCooccurrence, UnknownDisease, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(f"{self.prog}: {message}")


def default_schema_path() -> str:
    return os.environ.get("COA_SCHEMA") or corpus.default_schema_path()


def _resolve_scenario(arg: str) -> str:
    if arg == "default":
        return synth.default_scenario_path()
    if arg == "strong_pair":
        return synth.strong_pair_scenario_path()
    return arg


def _synth_config(scenario_path: str, schema: LabelSchema, n: Optional[int],
                  seed: Optional[int]) -> synth.SynthConfig:
    cfg = synth.parse_scenario(scenario_path, schema)
    if n is not None:
        cfg = dataclasses.replace(cfg, n_records=n)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _load_schema(args) -> LabelSchema:
    return corpus.read_schema(args.schema or default_schema_path())


def _load_matcher(args, schema: LabelSchema) -> labeler.Matcher:
    rules = args.lexicon or labeler.default_lexicon_path()
    cues = args.cues or labeler.default_cues_path()
    return labeler.compile_lexicon(rules, cues, schema)


def _write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _run_sidecar(out_path: str, command: str, inputs: dict, seed: Optional[int],
                 counts: dict, started: float, **extra) -> None:
    _write_json(out_path + ".run.json", {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "counts": counts,
        "wall_time_s": round(time.monotonic() - started, 3),
        **extra,
    })


def _info(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# pair statistics of a labeled corpus, shared by analyze and pipeline


def pair_statistics(c: Corpus, matcher: labeler.Matcher,
                    pairs: list[tuple[int, int]],
                    stratify=None) -> list[dict]:
    firsts = confound.first_mention_table(c, matcher)
    blocks = []
    for ia, ib in pairs:
        st = confound.build_contingency(c, ia, ib, stratify)
        table = st.aggregate
        block: dict = {
            "a": c.schema.names[ia],
            "b": c.schema.names[ib],
            "cells": {"n_pp": table.n_pp, "n_pm": table.n_pm,
                      "n_mp": table.n_mp, "n_mm": table.n_mm},
            "margin_a_pos": table.margin_a_pos,
            "margin_a_neg": table.margin_a_neg,
            "classified": table.cell_total,
            "total_population": table.total_population,
        }
        try:
            p_pp, p_mp, p_pm, p_mm = confound.conditional_probability(table)
            block["conditionals"] = {
                "p_bpos_given_apos": round(p_pp, 3),
                "p_bpos_given_aneg": round(p_mp, 3),
                "p_bneg_given_apos": round(p_pm, 3),
                "p_bneg_given_aneg": round(p_mm, 3),
            }
        except CoaugError:
            block["conditionals"] = None
        try:
            stats = confound.association_stats(table)
            block["odds_ratio"] = stats.odds_ratio
            block["independence_gap"] = stats.independence_gap
        except CoaugError:
            block["odds_ratio"] = None
            block["independence_gap"] = None
        try:
            block["co_mention_lift"] = confound.co_mention_lift(c, ia, ib)
        except CoaugError:
            block["co_mention_lift"] = None
        try:
            oa = confound.order_asymmetry_from_table(firsts, ia, ib)
            block["order_asymmetry"] = oa.asym
            block["co_occurrences"] = oa.co_occur_count
        except NoCooccurrence:
            block["order_asymmetry"] = None
            block["co_occurrences"] = 0
        if stratify is not None:
            block["simpson_reversal"] = confound.detect_simpson_reversal(st).reversal
        else:
            block["simpson_reversal"] = None
        blocks.append(block)
    return blocks


def _fmt_opt(value, spec="{:.6g}") -> str:
    return "n/a" if value is None else spec.format(value)


def render_analysis(blocks: list[dict], n_records: int) -> str:
    lines = [f"records: {n_records}", ""]
    for b in blocks:
        lines.append(f"pair: {b['a']} ~ {b['b']}")
        c = b["cells"]
        lines.append(
            f"  cells: n_pp={c['n_pp']} n_pm={c['n_pm']} n_mp={c['n_mp']} n_mm={c['n_mm']}"
        )
        lines.append(
            f"  margins: a_pos={b['margin_a_pos']} a_neg={b['margin_a_neg']}"
            f" classified={b['classified']} total={b['total_population']}"
        )
        cond = b["conditionals"]
        if cond is None:
            lines.append("  conditionals: n/a")
        else:
            lines.append(
                "  p(b+|a+)={:.3f}  p(b+|a-)={:.3f}  p(b-|a+)={:.3f}  p(b-|a-)={:.3f}".format(
                    cond["p_bpos_given_apos"], cond["p_bpos_given_aneg"],
                    cond["p_bneg_given_apos"], cond["p_bneg_given_aneg"],
                )
            )
        lines.append(
            f"  odds_ratio={_fmt_opt(b['odds_ratio'])}"
            f"  independence_gap={_fmt_opt(b['independence_gap'])}"
        )
        lines.append(
            f"  co_mention_lift={_fmt_opt(b['co_mention_lift'])}"
            f"  order_asymmetry={_fmt_opt(b['order_asymmetry'])}"
            f" (co_occurrences={b['co_occurrences']})"
        )
        if b["simpson_reversal"] is None:
            lines.append("  simpson_reversal: n/a")
        else:
            lines.append(f"  simpson_reversal: {'yes' if b['simpson_reversal'] else 'no'}")
        lines.append("")
    return "\n".join(lines)


def _parse_pairs(spec_arg: Optional[str], schema: LabelSchema) -> list[tuple[int, int]]:
    if not spec_arg:
        n = len(schema)
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = []
    for chunk in spec_arg.split(";"):
        names = chunk.split(",")
        if len(names) != 2:
            raise UsageError(f"bad pair {chunk!r}, expected 'A,B'")
        ia, ib = _disease_index(schema, names[0]), _disease_index(schema, names[1])
        if ia == ib:
            raise UsageError(f"bad pair {chunk!r}: a disease cannot pair with itself")
        pairs.append((ia, ib))
    return pairs


def _disease_index(schema: LabelSchema, name: str) -> int:
    try:
        return schema.index_of(name.strip())
    except UnknownDisease:
        raise UsageError(f"unknown disease {name.strip()!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    started = time.monotonic()
    schema = _load_schema(args)
    cfg = _synth_config(_resolve_scenario(args.scenario), schema, args.n, args.seed)
    c = synth.synth_generate(cfg, schema)
    corpus.write_corpus(c, args.out)
    _run_sidecar(args.out, "synth",
                 {"scenario": os.path.basename(args.scenario)},
                 cfg.seed, {"records": len(c)}, started)
    _info(args, f"synth: wrote {len(c)} records to {args.out}")
    return EXIT_OK


def _cmd_label(args) -> int:
    started = time.monotonic()
    schema = _load_schema(args)
    matcher = _load_matcher(args, schema)
    c = corpus.read_corpus(args.corpus, schema)
    labeled = labeler.label_corpus(c, matcher)
    corpus.write_corpus(labeled, args.out)
    _run_sidecar(args.out, "label",
                 {"corpus": os.path.basename(args.corpus)},
                 None, {"records": len(labeled)}, started)
    _info(args, f"label: wrote {len(labeled)} labeled records to {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    started = time.monotonic()
    schema = _load_schema(args)
    pairs = _parse_pairs(args.pairs, schema)
    stratify = None
    if args.stratify == "provenance":
        stratify = "provenance"
    elif args.stratify and args.stratify.startswith("disease:"):
        stratify = _disease_index(schema, args.stratify[len("disease:"):])
    elif args.stratify not in (None, "none"):
        raise UsageError(f"unknown stratifier {args.stratify!r}")
    matcher = _load_matcher(args, schema)
    c = labeler.label_corpus(corpus.read_corpus(args.corpus, schema), matcher,
                             keep_existing=True)
    blocks = pair_statistics(c, matcher, pairs, stratify)
    atomic_write_text(args.out, render_analysis(blocks, len(c)))
    _run_sidecar(args.out, "analyze",
                 {"corpus": os.path.basename(args.corpus)},
                 None, {"records": len(c), "pairs": len(pairs)}, started)
    _info(args, f"analyze: wrote {len(pairs)} pair blocks to {args.out}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    started = time.monotonic()
    schema = _load_schema(args)
    matcher = _load_matcher(args, schema)
    c = corpus.read_corpus(args.corpus, schema)
    cfg = aug.AugmentationConfig(
        rate=args.rate,
        seed=args.seed if args.seed is not None else 0,
        enable_css=not args.no_css,
        enable_crr=not args.no_crr,
    )
    augmented, summary = aug.augment_dataset(c, matcher, cfg)
    corpus.write_corpus(augmented, args.out)
    if args.summary:
        _write_json(args.summary, dataclasses.asdict(summary))
    _run_sidecar(args.out, "augment",
                 {"corpus": os.path.basename(args.corpus)},
                 cfg.seed, dataclasses.asdict(summary), started)
    _info(args, f"augment: {summary.augmented} twins, {summary.skipped} skipped, "
                f"wrote {len(augmented)} records to {args.out}")
    return EXIT_OK


_METRIC_CHOICES = ("ce", "bleu4", "rougel")


def _cmd_evaluate(args) -> int:
    started = time.monotonic()
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not wanted or any(m not in _METRIC_CHOICES for m in wanted):
        raise UsageError(f"--metrics {args.metrics!r}: name one or more of "
                         f"{', '.join(_METRIC_CHOICES)}")
    schema = _load_schema(args)
    matcher = _load_matcher(args, schema)
    gold = corpus.read_corpus(args.gold, schema)
    gen = corpus.read_corpus(args.generated, schema)
    if len(gold) != len(gen):
        raise CoaugError(
            f"gold has {len(gold)} records, generated has {len(gen)}"
        ) from None

    scores: dict = {"records": len(gold)}
    stages: dict = {}
    if "ce" in wanted:
        t = time.monotonic()
        gold_labels = [labeler.label_report(r.report, matcher) for r in gold]
        gen_labels = [labeler.label_report(r.report, matcher) for r in gen]
        cells = metrics.ce_confusion_per_disease(gold_labels, gen_labels)
        counts = sum(cells, metrics.ConfusionCounts())  # micro: the cells pooled
        scores["counts"] = dataclasses.asdict(counts)
        scores["ce"] = dataclasses.asdict(metrics.ce_scores(counts))
        if args.macro:
            scores["ce_macro"] = dataclasses.asdict(metrics.macro_ce_scores(cells))
        stages["ce"] = round(time.monotonic() - t, 3)
    # one pass over the pairs: each report is tokenized once, and its
    # tokens feed the requested text metrics' per-pair cores and the counts
    bleu, rouge = "bleu4" in wanted, "rougel" in wanted
    bleu_counts = [0] * 8
    rouge_total = bleu_s = rouge_s = 0.0
    gold_tokens = generated_tokens = 0
    clock = time.monotonic
    for g, h in zip(gold, gen):
        ref = metrics.report_tokens(g.report)
        cand = metrics.report_tokens(h.report)
        gold_tokens += len(ref)
        generated_tokens += len(cand)
        if bleu:
            t = clock()
            bleu_counts = list(map(operator.add, bleu_counts,
                                   metrics.bleu_pair_counts(ref, cand)))
            bleu_s += clock() - t
        if rouge:
            t = clock()
            rouge_total += metrics.rouge_l_pair(ref, cand)
            rouge_s += clock() - t
    if bleu:
        precisions, bp, score = metrics.bleu_from_counts(bleu_counts, gold_tokens)
        scores["bleu4"] = score
        scores["bleu4_precisions"] = precisions
        scores["bleu4_brevity_penalty"] = bp
        stages["bleu4"] = round(bleu_s, 3)
    if rouge:
        scores["rouge_l"] = rouge_total / len(gold) if gold else 0.0
        stages["rougel"] = round(rouge_s, 3)
    _write_json(args.out, scores)
    _run_sidecar(args.out, "evaluate",
                 {"gold": os.path.basename(args.gold),
                  "generated": os.path.basename(args.generated)},
                 None, {"records": len(gold), "gold_tokens": gold_tokens,
                        "generated_tokens": generated_tokens},
                 started, stages=stages)
    _info(args, f"evaluate: wrote scores to {args.out}")
    return EXIT_OK


PIPELINE_CORPORA = ("original.jsonl", "labeled.jsonl", "augmented.jsonl")


def run_pipeline(scenario_path: str, seed: Optional[int], outdir: str,
                 n: Optional[int] = None, rate: float = 1.0,
                 schema_path: Optional[str] = None) -> tuple[dict, dict]:
    """synth -> label -> analyze(before) -> augment -> analyze(after) in one
    pass over the records, writing every artifact under *outdir*; returns the
    summary and the seconds of each stage's per-record work.  Only featureless
    records are kept; each eligible twin's line is spooled, and below rate 1.0
    the twins not chosen are built in vain."""
    schema = corpus.read_schema(schema_path or default_schema_path())
    matcher = labeler.default_matcher(schema)
    cfg = _synth_config(scenario_path, schema, n, seed)
    acfg = aug.AugmentationConfig(rate=rate, seed=cfg.seed)
    pairs = [(p.a, p.b) for p in cfg.planted] or _parse_pairs(None, schema)
    original_path, labeled_path, augmented_path = (
        os.path.join(outdir, name) for name in PIPELINE_CORPORA)

    os.makedirs(outdir, exist_ok=True)
    stages = dict.fromkeys(("synth", "write_original", "label", "write_labeled", "analyze_before",
                            "augment", "write_augmented", "analyze_after"), 0.0)

    def lap(stage: str, since: float) -> float:
        now = time.monotonic()
        stages[stage] += now - since
        return now

    labeled: list[corpus.Record] = []
    outcomes: dict = {}  # eligible position -> its featureless twin's outcome, or a Skip
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=outdir) as spool:
        with corpus.atomic_writer(original_path) as original_out, \
                corpus.atomic_writer(labeled_path) as labeled_out:
            t = time.monotonic()
            for record in synth.synth_records(cfg, schema):
                t = lap("synth", t)
                original_out.write(corpus.record_to_line(record, schema) + "\n")
                t = lap("write_original", t)
                record = record.with_labels(labeler.label_report(record.report, matcher))
                t = lap("label", t)
                labeled_out.write(corpus.record_to_line(record, schema) + "\n")
                t = lap("write_labeled", t)
                if aug.is_eligible(record, acfg):
                    outcome = aug.record_twin(record, matcher, acfg)
                    t = lap("augment", t)
                    if not isinstance(outcome, aug.Skip):
                        spool.write(corpus.record_to_line(outcome.record, schema) + "\n")
                        outcome = dataclasses.replace(outcome, record=dataclasses.replace(
                            outcome.record, features=None))
                        t = lap("write_augmented", t)
                    outcomes[len(labeled)] = outcome
                labeled.append(dataclasses.replace(record, features=None))
        for path in (original_path, labeled_path):
            corpus.write_schema(schema, corpus.schema_path_for(path))
        t = lap("write_labeled", t)

        before = pair_statistics(Corpus(schema, tuple(labeled)), matcher, pairs)
        atomic_write_text(os.path.join(outdir, "before.txt"),
                          render_analysis(before, len(labeled)))
        t = lap("analyze_before", t)

        chosen, asummary = aug.augment(len(labeled), list(outcomes), outcomes.__getitem__, acfg)
        t = lap("augment", t)
        spool.seek(0)
        with corpus.atomic_writer(augmented_path) as out, \
                open(labeled_path, encoding="utf-8", newline="") as labeled_in:
            shutil.copyfileobj(labeled_in, out)
            spooled = (i for i, outcome in outcomes.items() if not isinstance(outcome, aug.Skip))
            out.writelines(twin for i, twin in zip(spooled, spool) if i in chosen)
        corpus.write_schema(schema, corpus.schema_path_for(augmented_path))
        t = lap("write_augmented", t)

    augmented = Corpus(schema, (*labeled, *chosen.values()))
    after = pair_statistics(augmented, matcher, pairs)
    atomic_write_text(os.path.join(outdir, "after.txt"),
                      render_analysis(after, len(augmented)))
    lap("analyze_after", t)

    keys = ("co_mention_lift", "independence_gap", "order_asymmetry")
    summary = {
        "scenario": os.path.basename(scenario_path),
        "seed": cfg.seed,
        "records_original": len(labeled),
        "records_augmented": len(augmented),
        "augmentation": dataclasses.asdict(asummary),
        "pairs": [{"a": b0["a"], "b": b0["b"], "before": {k: b0[k] for k in keys},
                   "after": {k: b1[k] for k in keys}} for b0, b1 in zip(before, after)],
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return summary, {stage: round(seconds, 3) for stage, seconds in stages.items()}


def _cmd_pipeline(args) -> int:
    started = time.monotonic()
    summary, stages = run_pipeline(_resolve_scenario(args.scenario), args.seed,
                                   args.outdir, args.n, args.rate, args.schema)
    sizes = {name: os.path.getsize(os.path.join(args.outdir, name)) for name in PIPELINE_CORPORA}
    _run_sidecar(os.path.join(args.outdir, "summary.json"), "pipeline",
                 {"scenario": os.path.basename(args.scenario)}, summary["seed"],
                 {"records_augmented": summary["records_augmented"], "bytes": sizes},
                 started, stages=stages)
    _info(args, f"pipeline: artifacts in {args.outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="coaug", description=__doc__)
    # Global flags are accepted before or after the subcommand.  The root
    # parser carries the real defaults; the copy attached to every
    # subparser uses SUPPRESS so a flag given before the subcommand is
    # not clobbered by a default afterwards.
    common = _Parser(add_help=False)
    for target, defaults in ((parser, {}), (common, None)):
        def dflt(value):
            return argparse.SUPPRESS if defaults is None else value

        target.add_argument("--schema", default=dflt(None),
                            help="label schema file (default: COA_SCHEMA or packaged)")
        target.add_argument("--quiet", action="store_true", default=dflt(False),
                            help="suppress status messages")
        target.add_argument("--seed", type=int, default=dflt(None),
                            help="seed for seeded subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--scenario", required=True,
                   help="scenario file, or 'default' / 'strong_pair'")
    p.add_argument("--n", type=int, default=None, help="override scenario n_records")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("label", parents=[common], help="attach report-level labels to a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--cues", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("analyze", parents=[common], help="per-pair association report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--cues", default=None)
    p.add_argument("--pairs", default=None, help="'A,B;C,D' (default: all pairs)")
    p.add_argument("--stratify", default=None,
                   help="none | provenance | disease:<name>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("augment", parents=[common], help="add counterfactual twins to a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--cues", default=None)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--no-css", action="store_true",
                   help="disable sentence popping / feature masking")
    p.add_argument("--no-crr", action="store_true", help="disable sentence reordering")
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None, help="write augmentation counts here")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("evaluate", parents=[common], help="score generated reports against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--cues", default=None)
    p.add_argument("--metrics", default="ce,bleu4,rougel")
    p.add_argument("--macro", action="store_true", help="also report macro-averaged label scores")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", parents=[common], help="synth + label + analyze + augment + analyze")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def _validate(args) -> None:
    rate = getattr(args, "rate", None)
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise UsageError(f"--rate must be in [0, 1], got {rate}")
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CoaugError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 3
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
