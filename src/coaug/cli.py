"""Command line entry point.

Subcommands: synth, label, analyze, augment, evaluate, pipeline.  All
outputs are written atomically (temp file + rename); every command that
writes an --out file also writes a machine-readable run summary next to
it (``<out>.run.json``, carrying inputs, seed, counts, stages and wall time).
Exit codes: 0 success, 1 usage error, 2 data/validation error (an
unreadable or unwritable path included), 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import sys
import time
from importlib import import_module
from itertools import islice, zip_longest
from typing import Optional

from . import corpus
from .corpus import LabelSchema, atomic_write_text
from .errors import CoaugError, UnknownDisease, UsageError


def __getattr__(name: str):
    """``cli.<module>``; each command imports the modules it runs, no other."""
    if name not in ("augment", "confound", "labeler", "metrics", "synth"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(f"{__package__}.{name}")

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
    from . import synth
    if arg == "default":
        return synth.default_scenario_path()
    if arg == "strong_pair":
        return synth.strong_pair_scenario_path()
    return arg


def _synth_config(scenario_path: str, schema: LabelSchema, n: Optional[int],
                  seed: Optional[int]) -> synth.SynthConfig:
    from . import synth
    cfg = synth.parse_scenario(scenario_path, schema)
    if n is not None:
        cfg = dataclasses.replace(cfg, n_records=n)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _load_schema(args) -> LabelSchema:
    return corpus.read_schema(args.schema or default_schema_path())


def _load_matcher(args, schema: LabelSchema) -> labeler.Matcher:
    from . import labeler
    rules = args.lexicon or labeler.default_lexicon_path()
    cues = args.cues or labeler.default_cues_path()
    return labeler.compile_lexicon(rules, cues, schema)


def _write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class _Run:
    """One command's run record: the clock starts when it is built, each
    ``lap`` adds the seconds since the last lap to a stage, and ``write``
    puts the stages, the counts and the wall time in ``<out>.run.json``."""

    def __init__(self, *stages: str):
        self.started = self.last = time.monotonic()
        self.stages = dict.fromkeys(stages, 0.0)  # every stage shows, 0.0 if it did nothing
        self.counts: dict = {}

    def lap(self, stage: str) -> None:
        now = time.monotonic()
        self.stages[stage] += now - self.last
        self.last = now

    def write(self, out_path: str, command: str, inputs: dict, seed: Optional[int] = None) -> None:
        stages = {stage: round(seconds, 3) for stage, seconds in self.stages.items()}
        _write_json(out_path + ".run.json", {
            "command": command, "inputs": inputs, "seed": seed, "counts": self.counts,
            "stages": stages, "wall_time_s": round(time.monotonic() - self.started, 3),
        })


def _info(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# the analysis text of a labeled corpus's columns, shared by analyze and pipeline


def _defined(statistic, *args):
    """``statistic(*args)``, or None where the statistic is undefined."""
    try:
        return statistic(*args)
    except CoaugError:
        return None


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def pair_analysis(columns: confound.LabelColumns, schema: LabelSchema,
                  pairs: list[tuple[int, int]], stratify=None) -> tuple[str, list]:
    """The analysis text of *columns* for each of *pairs*, and each pair's
    names with the numbers ``summary.json`` keeps of it."""
    from . import confound
    lines, kept = [f"records: {len(columns)}", ""], []
    for ia, ib in pairs:
        st = columns.contingency(ia, ib, stratify)
        t = st.aggregate
        conditionals = _defined(confound.conditional_probability, t)
        stats = _defined(confound.association_stats, t) or confound.AssociationStats(None, None)
        lift = _defined(columns.lift, ia, ib)
        order = _defined(columns.order_asymmetry, ia, ib) or confound.OrderAsymmetry(0, None)
        reversal = "n/a" if stratify is None else (
            "yes" if confound.detect_simpson_reversal(st).reversal else "no")
        a, b = schema.names[ia], schema.names[ib]
        lines += [
            f"pair: {a} ~ {b}",
            f"  cells: n_pp={t.n_pp} n_pm={t.n_pm} n_mp={t.n_mp} n_mm={t.n_mm}",
            f"  margins: a_pos={t.margin_a_pos} a_neg={t.margin_a_neg}"
            f" classified={t.cell_total} total={t.total_population}",
            "  conditionals: n/a" if conditionals is None else
            "  p(b+|a+)={:.3f}  p(b+|a-)={:.3f}  p(b-|a+)={:.3f}  p(b-|a-)={:.3f}".format(
                *conditionals),
            f"  odds_ratio={_fmt(stats.odds_ratio)}"
            f"  independence_gap={_fmt(stats.independence_gap)}",
            f"  co_mention_lift={_fmt(lift)}  order_asymmetry={_fmt(order.asym)}"
            f" (co_occurrences={order.co_occur_count})",
            f"  simpson_reversal: {reversal}",
            "",
        ]
        kept.append((a, b, {"co_mention_lift": lift, "independence_gap": stats.independence_gap,
                            "order_asymmetry": order.asym}))
    return "\n".join(lines), kept


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
    from . import synth
    run = _Run("setup", "synth", "write")
    schema = _load_schema(args)
    cfg = _synth_config(_resolve_scenario(args.scenario), schema, args.n, args.seed)
    synth.validate_config(cfg, schema)  # a bad config fails before the writer opens
    run.lap("setup")
    n = 0
    with corpus.corpus_writer(args.out, schema) as out:
        for n, record in enumerate(synth.synth_records(cfg, schema), start=1):
            run.lap("synth")
            out.write(corpus.record_to_line(record, schema) + "\n")
            run.lap("write")
    run.lap("write")
    run.counts["records"] = n
    run.write(args.out, "synth", {"scenario": os.path.basename(args.scenario)}, cfg.seed)
    _info(args, f"synth: wrote {n} records to {args.out}")
    return EXIT_OK


def _cmd_label(args) -> int:
    from . import labeler
    run = _Run("setup", "read", "label", "write")
    schema = _load_schema(args)
    matcher = _load_matcher(args, schema)
    records = corpus.iter_corpus(args.corpus, schema)
    run.lap("setup")
    n = 0
    with corpus.corpus_writer(args.out, schema) as out:
        for n, record in enumerate(records, start=1):
            run.lap("read")
            record = record.with_labels(labeler.label_report(record.report, matcher))
            run.lap("label")
            out.write(corpus.record_to_line(record, schema) + "\n")
            run.lap("write")
    run.lap("write")
    run.counts.update(records=n, labeler=matcher.counts())
    run.write(args.out, "label", {"corpus": os.path.basename(args.corpus)})
    _info(args, f"label: wrote {n} labeled records to {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import confound, labeler
    run = _Run("setup", "read", "label", "analyze", "write")
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
    records = corpus.iter_corpus(args.corpus, schema)
    run.lap("setup")
    # one pass, one labeling walk per record; statuses it carries are kept
    columns = confound.LabelColumns(len(schema))
    for record in records:
        run.lap("read")
        labels = labeler.label_report(record.report, matcher)
        run.lap("label")
        if record.labels is None:
            record = record.with_labels(labels)
        columns.append(record, labels.firsts)
        run.lap("analyze")
    text, _ = pair_analysis(columns, schema, pairs, stratify)
    run.lap("analyze")
    atomic_write_text(args.out, text)
    run.lap("write")
    run.counts.update(records=len(columns), pairs=len(pairs), labeler=matcher.counts())
    run.write(args.out, "analyze", {"corpus": os.path.basename(args.corpus)})
    _info(args, f"analyze: wrote {len(pairs)} pair blocks to {args.out}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    from . import augment as aug
    run = _Run("setup", "read", "augment", "write")
    schema = _load_schema(args)
    matcher = _load_matcher(args, schema)
    records = corpus.iter_corpus(args.corpus, schema)
    cfg = aug.AugmentationConfig(rate=args.rate, seed=args.seed or 0,
                                 enable_css=not args.no_css, enable_crr=not args.no_crr)
    run.lap("setup")
    with corpus.corpus_writer(args.out, schema) as out, aug.TwinSpool(
            out, os.path.dirname(os.path.abspath(args.out)), schema, matcher, cfg) as twins:
        for record in records:
            run.lap("read")
            try:
                twins.add(record, corpus.record_to_line(record, schema) + "\n")
            except CoaugError as exc:  # an already counterfactual record
                raise CoaugError(f"{args.corpus}: {exc}") from None
            run.lap("augment")
        _, summary, skips = twins.finish()
        run.lap("augment")
    if args.summary:
        _write_json(args.summary, dataclasses.asdict(summary))
    run.lap("write")
    run.counts = {**dataclasses.asdict(summary), "skips": skips, "labeler": matcher.counts()}
    run.write(args.out, "augment", {"corpus": os.path.basename(args.corpus)}, cfg.seed)
    _info(args, f"augment: {summary.augmented} twins, {summary.skipped} skipped, "
                f"wrote {summary.originals + summary.augmented} records to {args.out}")
    return EXIT_OK


_METRIC_CHOICES = ("ce", "bleu4", "rougel")
_BLOCK = 8  # pairs per evaluate block: peak RSS grows with it (+0.25 MB from 8 to 16)


def _cmd_evaluate(args) -> int:
    from . import labeler, metrics
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not wanted or any(m not in _METRIC_CHOICES for m in wanted):
        raise UsageError(f"--metrics {args.metrics!r}: name one or more of "
                         f"{', '.join(_METRIC_CHOICES)}")
    if args.macro and "ce" not in wanted:
        raise UsageError("--macro scores the ce metric: add ce to --metrics")
    run = _Run("setup", "read", "tokenize", *wanted, "write")
    schema = _load_schema(args)
    matcher = _load_matcher(args, schema)
    # both files and their sidecars are checked here, before any line is read
    pairs = zip_longest(corpus.iter_corpus(args.gold, schema),
                        corpus.iter_corpus(args.generated, schema))
    run.lap("setup")
    # one pass over the pairs, each phase over a block of _BLOCK (phases that
    # alternate pair by pair all run slower): each pair is tokenized and labeled
    # once and fed to the requested metrics' per-pair cores; only sums are kept
    ce, bleu, rouge = "ce" in wanted, "bleu4" in wanted, "rougel" in wanted
    tally = metrics.CeTally(len(schema))
    bleu_counts = [0] * 8
    rouge_total = 0.0
    n = gold_tokens = generated_tokens = 0
    lap, positives = run.lap, labeler.positive_diseases
    while block := list(islice(pairs, _BLOCK)):
        lap("read")
        if None in block[-1]:  # one file has ended: count each file's records
            counts = [n + len(side) - side.count(None) for side in zip(*block)]
            counts[counts[1] > counts[0]] += sum(1 for _ in pairs)  # the longer one's rest
            raise CoaugError("gold has {} records, generated has {}".format(*counts))
        n += len(block)
        tokens = [metrics.pair_tokens(g.report, h.report) for g, h in block]
        gold_tokens += sum(len(ref) for ref, _, _ in tokens)
        generated_tokens += sum(len(cand) for _, cand, _ in tokens)
        lap("tokenize")
        if ce:
            for (g, h), (_, _, shared) in zip(block, tokens):
                # each text of a sharing pair once, from its tokens; else sentence by sentence
                ref_texts, cand_texts, texts = shared or (g.report.texts(), h.report.texts(), None)
                label = matcher.label_text if texts is None else {
                    text: matcher.label_text(text, words) for text, words in texts.items()}.get
                matcher.sentences += len(ref_texts) + len(cand_texts)
                tally.add(positives(map(label, ref_texts)), positives(map(label, cand_texts)))
            lap("ce")
        if bleu:
            for ref, cand, shared in tokens:
                bleu_counts = list(map(operator.add, bleu_counts,
                                       metrics.bleu_shared_counts(ref, cand, shared)))
            lap("bleu4")
        if rouge:
            for ref, cand, _ in tokens:
                rouge_total += metrics.rouge_l_pair(ref, cand)
            lap("rougel")

    scores: dict = {"records": n}
    run.counts.update(records=n, gold_tokens=gold_tokens, generated_tokens=generated_tokens)
    if ce:
        if not n:
            raise CoaugError(f"{args.gold} and {args.generated} hold no records: "
                             "the ce scores need at least one pair")
        cells = tally.cells()
        counts = sum(cells, metrics.ConfusionCounts())  # micro: the cells pooled
        scores["counts"] = dataclasses.asdict(counts)
        scores["ce"] = dataclasses.asdict(metrics.ce_scores(counts))
        if args.macro:
            scores["ce_macro"] = dataclasses.asdict(metrics.macro_ce_scores(cells))
        run.counts["labeler"] = matcher.counts()
    if bleu:
        precisions, bp, score = metrics.bleu_from_counts(bleu_counts, gold_tokens)
        scores["bleu4"] = score
        scores["bleu4_precisions"] = precisions
        scores["bleu4_brevity_penalty"] = bp
    if rouge:
        scores["rouge_l"] = rouge_total / n if n else 0.0
    _write_json(args.out, scores)
    lap("write")
    run.write(args.out, "evaluate", {"gold": os.path.basename(args.gold),
                                     "generated": os.path.basename(args.generated)})
    _info(args, f"evaluate: wrote scores to {args.out}")
    return EXIT_OK


PIPELINE_CORPORA = ("original.jsonl", "labeled.jsonl", "augmented.jsonl")


def run_pipeline(scenario_path: str, seed: Optional[int], outdir: str,
                 n: Optional[int] = None, rate: float = 1.0,
                 schema_path: Optional[str] = None) -> tuple[dict, dict, dict]:
    """synth -> label -> analyze(before) -> augment -> analyze(after) in one
    pass over the records, writing every artifact under *outdir*; returns the
    summary, the seconds of each stage and the counts: the augmentation skips
    by reason and the labeler's.  No record is kept: each labeled record
    leaves its columns and its ``TwinSpool`` byte, and each spooled twin its
    columns; below rate 1.0 the twins not chosen are built in vain."""
    from . import augment as aug, confound, labeler, synth
    run = _Run("setup", "synth", "write_original", "label", "write_labeled",
               "analyze_before", "augment", "write_augmented", "analyze_after")
    schema = corpus.read_schema(schema_path or default_schema_path())
    matcher = labeler.default_matcher(schema)
    cfg = _synth_config(scenario_path, schema, n, seed)
    acfg = aug.AugmentationConfig(rate=rate, seed=cfg.seed)
    pairs = [(p.a, p.b) for p in cfg.planted] or _parse_pairs(None, schema)
    original_path, labeled_path, augmented_path = (
        os.path.join(outdir, name) for name in PIPELINE_CORPORA)
    os.makedirs(outdir, exist_ok=True)
    run.lap("setup")

    columns = confound.LabelColumns(len(schema))  # the labeled records'
    twin_columns = confound.LabelColumns(len(schema))  # the spooled twins'
    with corpus.corpus_writer(original_path, schema) as original_out, \
            corpus.corpus_writer(labeled_path, schema) as labeled_out, \
            corpus.corpus_writer(augmented_path, schema) as augmented_out, \
            aug.TwinSpool(augmented_out, outdir, schema, matcher, acfg) as twins:
        for record in synth.synth_records(cfg, schema):
            run.lap("synth")
            line = corpus.record_to_line(record, schema)
            original_out.write(line + "\n")
            run.lap("write_original")
            record = record.with_labels(labeler.label_report(record.report, matcher))
            run.lap("label")
            line = corpus.labeled_line(line, record, schema) + "\n"
            labeled_out.write(line)
            run.lap("write_labeled")
            columns.append(record, record.labels.firsts)
            run.lap("analyze_before")
            twin = twins.add(record, line)
            run.lap("augment")
            if twin is not None:
                twin_columns.append(twin, twin.labels.firsts)
                run.lap("analyze_after")
        rows, asummary, skip_counts = twins.finish()
        run.lap("augment")
    statuses = dict(zip(schema.names, columns.status_counts()))
    counts = {"skips": skip_counts, "labeler": {**matcher.counts(), "statuses": statuses}}
    run.lap("write_augmented")

    text, before = pair_analysis(columns, schema, pairs)
    atomic_write_text(os.path.join(outdir, "before.txt"), text)
    run.lap("analyze_before")
    columns.extend(twin_columns, rows)
    text, after = pair_analysis(columns, schema, pairs)
    atomic_write_text(os.path.join(outdir, "after.txt"), text)
    run.lap("analyze_after")

    summary = {
        "scenario": os.path.basename(scenario_path),
        "seed": cfg.seed,
        "records_original": asummary.originals,
        "records_augmented": len(columns),
        "augmentation": dataclasses.asdict(asummary),
        "pairs": [{"a": a, "b": b, "before": numbers, "after": after_numbers}
                  for (a, b, numbers), (_, _, after_numbers) in zip(before, after)],
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return summary, run.stages, counts


def _cmd_pipeline(args) -> int:
    run = _Run()  # its clock; the stages are the pipeline's
    summary, run.stages, counts = run_pipeline(_resolve_scenario(args.scenario), args.seed,
                                               args.outdir, args.n, args.rate, args.schema)
    sizes = {name: os.path.getsize(os.path.join(args.outdir, name)) for name in PIPELINE_CORPORA}
    run.counts = {"records_augmented": summary["records_augmented"], "bytes": sizes, **counts}
    run.write(os.path.join(args.outdir, "summary.json"), "pipeline",
              {"scenario": os.path.basename(args.scenario)}, summary["seed"])
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
    if getattr(args, "no_css", False) and args.no_crr:
        raise UsageError("--no-css and --no-crr leave no augmentation to make")


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
