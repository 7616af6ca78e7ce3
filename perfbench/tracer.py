"""Run one coaug command in this process; optionally trace it.

    python3 perfbench/tracer.py --peak-out PEAK [--trace-out SPANS --run-id ID] -- <coaug args>

Runs ``coaug.cli.run`` on the arguments and writes the process's peak
resident memory (VmHWM, in KiB) to PEAK.  The kernel's ``ru_maxrss`` of a
child also counts the parent's pages it was forked with, so the child
reads its own high-water mark instead.

With ``--trace-out`` the package, imported from ``PYTHONPATH`` and left
unmodified, is instrumented first: the tracer replaces the module
attributes that ``coaug.cli`` calls with wrappers that record a span
(name, start, end, parent, run id) and count the work that passed
through.  ``label_sentence`` is counted as bound in ``labeler``,
``confound`` and ``augment``; its calls are folded into one span per
parent span, so the tracer's memory does not grow with them.  The root
span ``cli.run`` covers the import of the package too.  Spans are kept
in memory and written out when the command returns; the exit code is
the command's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

LAYERS = ("synth", "corpus", "labeler", "confound", "augment", "metrics", "cli")


def peak_rss_kb() -> int:
    """High-water resident memory of this process image, in KiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span stack and counters of one traced run (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter_ns()
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.counters: dict[str, int] = {}
        self.rss_hwm_kb: dict[str, int] = {}
        # parent span id -> [first start, summed duration, calls] of the
        # label_sentence calls made inside that span
        self.folded: dict[int, list[int]] = {}
        self.texts: set[str] = set()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((span_id, parent, name, start, end))
            self.rss_hwm_kb[name.split(".", 1)[0]] = peak_rss_kb()

    def wrap(self, module, attr: str, name: str, after=None, calls=()) -> None:
        """Replace ``module.attr`` by a spanned call.  Each counter in
        *calls* counts the call; *after(args, result)* counts its work."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            for key in calls:
                self.count(key)
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)

    def wrap_label_sentence(self, module) -> None:
        # A leaf called ~60 times per record: no span of its own, its time
        # and count are added to the calling span's folded entry.
        fn = module.label_sentence
        folded, texts, stack = self.folded, self.texts, self.stack
        clock = time.perf_counter_ns

        def label_sentence(sentence, matcher):
            start = clock()
            result = fn(sentence, matcher)
            elapsed = clock() - start
            entry = folded.get(stack[-1])
            if entry is None:
                folded[stack[-1]] = [start, elapsed, 1]
            else:
                entry[1] += elapsed
                entry[2] += 1
            texts.add(sentence.text)
            return result

        module.label_sentence = label_sentence

    def dump(self, path: str) -> None:
        """Write counters, RSS marks and spans as one JSON object; spans
        are written one at a time, start and end in ns since the origin.
        A folded ``labeler.label_sentence`` span starts at its first call
        and lasts the summed duration of its ``calls``."""
        spans = [(i, p, n, s, e, None) for i, p, n, s, e in self.spans]
        for k, (parent, (start, elapsed, calls)) in enumerate(sorted(self.folded.items())):
            spans.append((self.next_id + k, parent, "labeler.label_sentence",
                          start, start + elapsed, calls))
        self.counters["labeler.sentence_calls"] = sum(e[2] for e in self.folded.values())
        self.counters["labeler.distinct_texts"] = len(self.texts)
        head = json.dumps({"run": self.run_id, "counters": self.counters,
                           "rss_hwm_kb": self.rss_hwm_kb})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-1] + ',"spans":[')
            for k, (i, p, n, s, e, calls) in enumerate(spans):
                span = {"run": self.run_id, "id": i, "parent": p, "name": n,
                        "start": s - self.origin, "end": e - self.origin}
                if calls is not None:
                    span["calls"] = calls
                fh.write(("," if k else "") + json.dumps(span))
            fh.write("]}\n")


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def instrument(tracer: Tracer):
    """Import coaug, wrap its layers, return ``cli``."""
    from coaug import augment, cli, confound, corpus, labeler, metrics, synth

    count = tracer.count

    def wrote_corpus(args, _):
        count("corpus.bytes_written", _file_size(args[1]) + _file_size(args[1] + ".schema"))

    def wrote_text(args, _):
        count("corpus.bytes_written", len(args[1].encode("utf-8")))

    def read_corpus(args, result):
        count("corpus.bytes_read", _file_size(args[0]))
        count("corpus.records_read", len(result))

    def read_schema(args, _):
        count("corpus.bytes_read", _file_size(args[0]))

    def augmented(_, result):
        summary = result[1]
        count("augment.twins", summary.augmented)
        count("augment.target", summary.target)
        count("augment.orphans", summary.orphan_flagged)

    def pairs(args, _):
        tracer.counters["metrics.pairs"] = max(tracer.counters.get("metrics.pairs", 0),
                                               len(args[0]))

    w = tracer.wrap
    w(synth, "parse_scenario", "synth.parse_scenario")
    w(synth, "synth_generate", "synth.synth_generate",
      lambda _, result: count("synth.records", len(result)))
    w(corpus, "write_corpus", "corpus.write_corpus", wrote_corpus)
    w(cli, "atomic_write_text", "corpus.atomic_write_text", wrote_text)
    w(corpus, "read_corpus", "corpus.read_corpus", read_corpus)
    w(corpus, "read_schema", "corpus.read_schema", read_schema)
    w(labeler, "compile_lexicon", "labeler.compile_lexicon")
    w(labeler, "label_report", "labeler.label_report", calls=("labeler.reports",))
    for module in (labeler, confound, augment):
        tracer.wrap_label_sentence(module)
    scan = ("confound.corpus_scans",)
    w(confound, "first_mention_table", "confound.first_mention_table", calls=scan)
    w(confound, "build_contingency", "confound.build_contingency",
      calls=scan + ("confound.pairs",))
    w(confound, "co_mention_lift", "confound.co_mention_lift", calls=scan)
    for attr in ("conditional_probability", "association_stats",
                 "order_asymmetry_from_table", "detect_simpson_reversal"):
        w(confound, attr, "confound." + attr)
    w(augment, "augment_dataset", "augment.augment_dataset", augmented)
    for attr in ("ce_confusion", "ce_confusion_per_disease", "ce_scores", "macro_ce_scores"):
        w(metrics, attr, "metrics.ce." + attr, pairs if attr.startswith("ce_conf") else None)
    w(metrics, "bleu_stats", "metrics.bleu_stats", pairs)
    w(metrics, "rouge_l", "metrics.rouge_l", pairs)
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peak-out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.trace_out:
        tracer = Tracer(args.run_id)
        code = tracer.call("cli.run", lambda: instrument(tracer).run(command), (), {})
    else:
        from coaug import cli
        code = cli.run(command)
    with open(args.peak_out, "w", encoding="ascii") as fh:
        fh.write(f"{peak_rss_kb()}\n")
    if args.trace_out:
        tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
