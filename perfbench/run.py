"""coaug benchmark: end-to-end runs of the CLI and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every metric, every workload

Run from the root of a source checkout; the package is imported from
``src``.  Each workload first builds its inputs from the seed (set-up,
repeated and timed), then runs the coaug command as a child process
(``tracer.py``, which calls ``coaug.cli.run``) again and again for
``--seconds`` seconds.  ``all`` also runs analyze-freetext, which
BENCHMARK.json does not list.

The run pins itself and its children to one CPU.  Between children it
times a fixed piece of pure-Python work (``calibrate``); each child's
wall time, and the set-up time, are also reported scaled to the host
speed at which that work takes CAL_REF_S.  On a shared host whose
speed swings with other tenants, the scaled time measures the program
rather than the neighbours.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from the
untraced children: median host-normalized wall time and input records
per second, the child's peak RSS, and the host-normalized set-up time.  ``--trace 1`` alternates untraced
and traced children and reports the per-layer metrics derived from the
traced children's span files.

Every child's artifacts are hashed.  A run fails when its child exits
non-zero, when its output check fails, or when its digests differ from
the first run of the seed.  After timing, the workload is run once more
at REFERENCE_SEED and its digests must equal reference_digests.json.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import freetext
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60
REFERENCE_SEED = 7
PIPELINE_N = 1600
ANALYZE_N = 5000
EVALUATE_N = 1500
STRATIFIER = "Edema"
TOKEN = re.compile(r"[a-z0-9]+")
# calibration: CAL_UNITS units of fixed work take about CAL_REF_S on an
# unloaded 2-vCPU Xeon (Sapphire Rapids) KVM guest with Python 3.11
CAL_UNITS = 200
CAL_REF_S = 0.25
CAL_TEXT = " ".join(f"no evidence of pleural effusion or pneumothorax, {i} mm"
                    for i in range(60))


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Inputs:
    """What set-up built: the directory, the record count that rates are
    per, and the expected labels the output check compares against."""

    dir: Path
    records: int
    expected: object = None


class Workload:
    """One benchmark workload: builds its inputs, names the coaug command,
    its artifacts and the inputs it reads, and checks its output."""

    name = ""

    def setup(self, seed: int, d: Path) -> Inputs:
        raise NotImplementedError

    def before_run(self, inputs: Inputs) -> None:
        """Undo what the previous child left behind (not timed)."""

    def argv(self, inputs: Inputs, seed: int) -> list[str]:
        raise NotImplementedError

    def artifacts(self, inputs: Inputs) -> list[Path]:
        raise NotImplementedError

    def check(self, inputs: Inputs) -> list[str]:
        """Problems found in the output; empty when it is correct."""
        raise NotImplementedError

    def input_files(self, inputs: Inputs) -> list[Path]:
        raise NotImplementedError


class PipelineDefault(Workload):
    name = "pipeline-default"

    def setup(self, seed: int, d: Path) -> Inputs:
        # the pipeline makes its own inputs from the seed: set-up only
        # prepares the empty output directory
        out = d / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        return Inputs(d, PIPELINE_N)

    def before_run(self, inputs: Inputs) -> None:
        shutil.rmtree(inputs.dir / "out", ignore_errors=True)

    def argv(self, inputs: Inputs, seed: int) -> list[str]:
        return ["pipeline", "--scenario", "default", "--seed", str(seed),
                "--n", str(PIPELINE_N), "--rate", "1.0", "--outdir", str(inputs.dir / "out")]

    def artifacts(self, inputs: Inputs) -> list[Path]:
        out = inputs.dir / "out"
        return sorted(p for p in out.iterdir() if not p.name.endswith(".run.json"))

    def check(self, inputs: Inputs) -> list[str]:
        summary = json.loads((inputs.dir / "out" / "summary.json").read_text())
        augmentation = summary["augmentation"]
        errors = []
        if summary["records_original"] != PIPELINE_N or augmentation["target"] != PIPELINE_N:
            errors.append(f"summary counts {summary['records_original']}/{augmentation['target']}")
        if augmentation["augmented"] < 1:
            errors.append("no twins")
        if summary["records_augmented"] != PIPELINE_N + augmentation["augmented"]:
            errors.append("records_augmented != originals + twins")
        pairs = [(p["a"], p["b"]) for p in summary["pairs"]]
        if pairs != [("Pneumothorax", "Pleural Effusion")]:
            errors.append(f"analyzed pairs {pairs}")
        return errors

    def input_files(self, inputs: Inputs) -> list[Path]:
        return [inputs.dir / "out" / "original.jsonl"]


class AnalyzeFreetext(Workload):
    name = "analyze-freetext"

    def setup(self, seed: int, d: Path) -> Inputs:
        records = freetext.generate_reports(seed, ANALYZE_N)
        freetext.write_feature_corpus(str(d / "corpus.jsonl"), records, seed)
        return Inputs(d, ANALYZE_N, [freetext.report_labels(r.mentions) for r in records])

    def argv(self, inputs: Inputs, seed: int) -> list[str]:
        return ["analyze", "--corpus", str(inputs.dir / "corpus.jsonl"),
                "--stratify", f"disease:{STRATIFIER}", "--out", str(inputs.dir / "report.txt")]

    def artifacts(self, inputs: Inputs) -> list[Path]:
        return [inputs.dir / "report.txt"]

    def check(self, inputs: Inputs) -> list[str]:
        """Every pair's cells and margins equal those counted from the
        generator's intended labels."""
        lines = (inputs.dir / "report.txt").read_text().splitlines()
        starts = [i for i, line in enumerate(lines) if line.startswith("pair: ")]
        names = freetext.DISEASES
        pairs = [(a, b) for a in range(len(names)) for b in range(a + 1, len(names))]
        if len(starts) != len(pairs):
            return [f"{len(starts)} pair blocks, expected {len(pairs)}"]
        errors = []
        for (a, b), i in zip(pairs, starts):
            want = [f"pair: {names[a]} ~ {names[b]}", *self._expected(inputs.expected, a, b)]
            if lines[i:i + 3] != want:
                errors.append(f"{lines[i:i + 3]} != {want}")
        return errors[:3]

    @staticmethod
    def _expected(labels, a: int, b: int) -> list[str]:
        binary = (freetext.POSITIVE, freetext.NEGATIVE)
        cells = {(x, y): 0 for x in binary for y in binary}
        a_pos = a_neg = 0
        for row in labels:
            a_pos += row[a] == freetext.POSITIVE
            a_neg += row[a] == freetext.NEGATIVE
            if row[a] in binary and row[b] in binary:
                cells[row[a], row[b]] += 1
        p, n = binary
        return [f"  cells: n_pp={cells[p, p]} n_pm={cells[p, n]} "
                f"n_mp={cells[n, p]} n_mm={cells[n, n]}",
                f"  margins: a_pos={a_pos} a_neg={a_neg} "
                f"classified={sum(cells.values())} total={len(labels)}"]

    def input_files(self, inputs: Inputs) -> list[Path]:
        return [inputs.dir / "corpus.jsonl"]


class EvaluateReordered(Workload):
    name = "evaluate-reordered"

    def setup(self, seed: int, d: Path) -> Inputs:
        gold = freetext.generate_reports(seed, EVALUATE_N)
        generated = freetext.drop_and_shuffle(gold, seed)
        freetext.write_text_corpus(str(d / "gold.jsonl"), gold)
        freetext.write_text_corpus(str(d / "generated.jsonl"), generated)
        return Inputs(d, EVALUATE_N, self._confusion(gold, generated))

    def argv(self, inputs: Inputs, seed: int) -> list[str]:
        return ["evaluate", "--gold", str(inputs.dir / "gold.jsonl"),
                "--generated", str(inputs.dir / "generated.jsonl"),
                "--metrics", "ce,bleu4,rougel", "--macro", "--out", str(inputs.dir / "scores.json")]

    def artifacts(self, inputs: Inputs) -> list[Path]:
        return [inputs.dir / "scores.json"]

    def check(self, inputs: Inputs) -> list[str]:
        """Label confusion counts equal those of the intended labels;
        text scores lie strictly between 0 and 1 (a sentence is missing)."""
        scores = json.loads((inputs.dir / "scores.json").read_text())
        errors = []
        if scores["records"] != EVALUATE_N:
            errors.append(f"records {scores['records']}")
        if scores["counts"] != inputs.expected:
            errors.append(f"counts {scores['counts']} != {inputs.expected}")
        for key in ("bleu4", "rouge_l"):
            if not 0.0 < scores[key] < 1.0:
                errors.append(f"{key} = {scores[key]}")
        return errors

    @staticmethod
    def _confusion(gold, generated) -> dict:
        counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for g, h in zip(gold, generated):
            for sg, sh in zip(freetext.report_labels(g.mentions),
                              freetext.report_labels(h.mentions)):
                pg, ph = sg == freetext.POSITIVE, sh == freetext.POSITIVE
                counts["tp" if pg and ph else "fp" if ph else "fn" if pg else "tn"] += 1
        return counts

    def input_files(self, inputs: Inputs) -> list[Path]:
        return [inputs.dir / "gold.jsonl", inputs.dir / "generated.jsonl"]


WORKLOADS = {w.name: w for w in (PipelineDefault(), AnalyzeFreetext(), EvaluateReordered())}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    # host slowness around the child: calibration time / CAL_REF_S
    host_factor: float = 1.0

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s / self.host_factor


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path, peak: Path) -> Child:
    """Run *argv* to completion: wall time from spawn to exit, CPU time
    from wait4, and the peak RSS the child wrote to *peak*."""
    peak.unlink(missing_ok=True)
    with open(log, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = int(peak.read_text()) if peak.exists() else 0
    return Child(wall, peak_kb / 1024, usage.ru_utime + usage.ru_stime, proc.returncode)


def calibrate() -> float:
    """Seconds that a fixed piece of pure-Python work (tokenizing,
    counting, a JSON round trip, sorting, string joins, as coaug does)
    takes now."""
    started = time.perf_counter()
    for _ in range(CAL_UNITS):
        counts: dict[str, int] = {}
        for word in TOKEN.findall(CAL_TEXT):
            counts[word] = counts.get(word, 0) + 1
        json.loads(json.dumps([{"id": i, "x": [i * 0.5, str(i)]} for i in range(300)]))
        sorted((i * 7919) % 10007 for i in range(3000))
        "|".join(CAL_TEXT.split()).replace("no", "yes")
    return time.perf_counter() - started


def digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@dataclass
class Tally:
    """Runs attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def run_and_check(wl, inputs: Inputs, seed: int, label: str, tally: Tally,
                  expected_digests: dict | None,
                  trace: tuple[str, ...] = ()) -> tuple[Child, dict | None]:
    """One child run, with *trace* arguments for tracer.py, plus its
    checks; returns the child and its digests (None when it produced no
    artifacts)."""
    wl.before_run(inputs)
    argv = [sys.executable, str(HERE / "tracer.py"), "--peak-out",
            str(inputs.dir / "peak_kb"), *trace, "--", "--quiet", *wl.argv(inputs, seed)]
    child = spawn(argv, inputs.dir / f"{label}.stderr", inputs.dir / "peak_kb")
    if child.exit_code != 0:
        tally.record(label, [f"exit code {child.exit_code}, see {label}.stderr"])
        return child, None
    try:
        found = digests(wl.artifacts(inputs))
        problems = wl.check(inputs)
    except (OSError, ValueError, KeyError) as exc:
        tally.record(label, [f"unreadable output: {exc!r}"])
        return child, None
    if expected_digests is not None and found != expected_digests:
        problems.append(f"artifact digests differ: {found} != {expected_digests}")
    tally.record(label, problems)
    return child, found


# ---------------------------------------------------------------------------
# set-up, profile, environment


def build_and_setup(wl, seed: int, d: Path) -> tuple[Inputs, list[float], float, list[str]]:
    """Build the inputs, at least SETUP_MIN_REPEATS times and for at
    least SETUP_MIN_SECONDS, so that a set-up of microseconds still has a
    steady median.  The repeats must write identical input files.  The
    package is byte-compiled once beforehand, untimed, so that no child
    pays for it.  Returns the inputs, the set-up times, the host factor
    around them (from calibrations just before and after) and the
    problems found."""
    if not compileall.compile_dir(str(SRC / "coaug"), quiet=1):
        raise SystemExit("error: byte-compiling src/coaug failed")
    cal_before = calibrate()
    times, seen, inputs = [], [], None
    began = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - began < SETUP_MIN_SECONDS:
        started = time.perf_counter()
        inputs = wl.setup(seed, d)
        times.append(time.perf_counter() - started)
        seen.append(digests([p for p in d.iterdir() if p.is_file() and p.suffix in
                             (".jsonl", ".schema")]))
    host_factor = (cal_before + calibrate()) / 2 / CAL_REF_S
    problems = [] if all(s == seen[0] for s in seen) else ["set-up is not deterministic"]
    return inputs, times, host_factor, problems


def profile(wl, inputs: Inputs) -> dict:
    files = wl.input_files(inputs)
    with open(files[0], encoding="utf-8") as fh:
        reports = [json.loads(line)["report"] for line in fh if line.strip()]
    sentences = [s for r in reports for s in r]
    return {
        "records": inputs.records,
        "sentences_per_report": len(sentences) / len(reports),
        "tokens_per_report": sum(len(TOKEN.findall(s.lower())) for s in sentences) / len(reports),
        "input_bytes": sum(p.stat().st_size for p in files),
        "distinct_sentence_share": len(set(sentences)) / len(sentences),
    }


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "coaug").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": source.hexdigest()}


# ---------------------------------------------------------------------------
# per-layer metrics from a span file


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.  A layer's self time is the
    duration of its spans minus the part covered by their child spans."""
    spans = doc["spans"]
    by_id = {s["id"]: s for s in spans}
    covered: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0) + s["end"] - s["start"]
    self_s = {layer: 0.0 for layer in tracer.LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        self_s[layer] += (s["end"] - s["start"] - covered.get(s["id"], 0)) / 1e9

    def inclusive_s(*prefixes: str) -> float:
        # outermost spans of the group only, so nested calls count once
        def member(s):
            return s["name"].startswith(prefixes)
        return sum(s["end"] - s["start"] for s in spans if member(s) and not (
            s["parent"] is not None and member(by_id[s["parent"]]))) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = doc["counters"]
    get = c.get
    write_s = inclusive_s("corpus.write_corpus", "corpus.atomic_write_text")
    read_s = inclusive_s("corpus.read_corpus", "corpus.read_schema")
    calls = get("labeler.sentence_calls", 0)
    # on a workload that never calls a layer, its times and rates are 0
    metrics = {
        "synth.self_s": self_s["synth"],
        "synth.records_per_s": ratio(get("synth.records", 0), self_s["synth"]),
        "corpus.write_s": write_s,
        "corpus.write_mb_per_s": ratio(get("corpus.bytes_written", 0) / 1e6, write_s),
        "corpus.bytes_written": get("corpus.bytes_written", 0),
        "corpus.read_s": read_s,
        "corpus.read_records_per_s": ratio(get("corpus.records_read", 0), read_s),
        "corpus.bytes_read": get("corpus.bytes_read", 0),
        "labeler.self_s": self_s["labeler"],
        "labeler.report_s": inclusive_s("labeler.label_report"),
        "labeler.sentences_per_s": ratio(calls, self_s["labeler"]),
        "labeler.sentence_calls": calls,
        "labeler.distinct_ratio": ratio(get("labeler.distinct_texts", 0), calls),
        "confound.self_s": self_s["confound"],
        "confound.first_mention_s": inclusive_s("confound.first_mention_table"),
        "confound.pairs_per_s": ratio(get("confound.pairs", 0), self_s["confound"]),
        "confound.corpus_scans": get("confound.corpus_scans", 0),
        "augment.self_s": self_s["augment"],
        "augment.twins_per_s": ratio(get("augment.twins", 0), self_s["augment"]),
        "augment.yield": ratio(get("augment.twins", 0), get("augment.target", 0)),
        "augment.orphan_rate": ratio(get("augment.orphans", 0), get("augment.twins", 0)),
        "metrics.self_s": self_s["metrics"],
        "metrics.rouge_s": inclusive_s("metrics.rouge_l"),
        "metrics.bleu_s": inclusive_s("metrics.bleu_stats"),
        "metrics.ce_s": inclusive_s("metrics.ce."),
        "metrics.pairs_per_s": ratio(get("metrics.pairs", 0), self_s["metrics"]),
        "cli.self_s": self_s["cli"],
    }
    for layer in tracer.LAYERS:
        metrics[f"{layer}.rss_hwm_mb"] = doc["rss_hwm_kb"].get(layer, 0) / 1024
    return metrics


# ---------------------------------------------------------------------------
# one benchmark run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pin_to_one_cpu() -> None:
    """Keep this process, its calibrations and its children on one CPU.
    On a shared VM each vCPU slows down with its own neighbours, so a
    calibration only tells the speed of the CPU it ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wl = WORKLOADS[name]
    d = WORK / name
    shutil.rmtree(d, ignore_errors=True)
    (d / "ref").mkdir(parents=True)
    tally = Tally()
    inputs, setup_times, setup_factor, problems = build_and_setup(wl, seed, d)
    tally.problems.extend(problems)

    reference = None
    untraced: list[Child] = []
    traced: list[tuple[Child, dict]] = []
    started = time.perf_counter()
    # each child's host factor is the mean of the calibrations just
    # before and just after it
    cal_before = calibrate()
    while True:
        i = len(untraced) + len(traced)
        if trace and len(traced) < len(untraced):
            out = d / "spans.json"
            child, found = run_and_check(wl, inputs, seed, f"traced-{i}", tally, reference,
                                         ("--trace-out", str(out), "--run-id", f"{name}-{seed}-{i}"))
            if found is not None:
                traced.append((child, layer_metrics(json.loads(out.read_text()))))
        else:
            child, found = run_and_check(wl, inputs, seed, f"run-{i}", tally, reference)
            if found is not None:
                untraced.append(child)
        cal_after = calibrate()
        child.host_factor = (cal_before + cal_after) / 2 / CAL_REF_S
        cal_before = cal_after
        reference = reference or found
        elapsed = time.perf_counter() - started
        typical = (statistics.median(c.wall_s for c in untraced) if untraced
                   else child.wall_s) + cal_after
        enough = (min(len(untraced), len(traced)) >= 2 if trace
                  else len(untraced) >= MIN_RUNS)
        if elapsed + typical > seconds and (enough or tally.failed):
            break

    # the recorded digests of REFERENCE_SEED pin the program's output bytes
    recorded = json.loads((HERE / "reference_digests.json").read_text()).get(name)
    if seed == REFERENCE_SEED:
        if reference != recorded:
            tally.problems.append(f"digests {reference} differ from reference_digests.json")
            tally.failed += 1
    else:
        ref_inputs = wl.setup(REFERENCE_SEED, d / "ref")
        run_and_check(wl, ref_inputs, REFERENCE_SEED, "reference", tally, recorded)

    result: dict = {"workload": name, "seed": seed, "trace": int(trace),
                    "environment": environment(), "profile": None, "digests": reference,
                    "problems": tally.problems}
    if untraced:
        result["profile"] = profile(wl, inputs)
    walls = [c.wall_s for c in untraced]
    summary: dict[str, dict] = {}

    def put(metric: str, values: list[float]) -> None:
        q1, med, q3 = quartiles(values)
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}

    if walls:
        norm_walls = [c.norm_wall_s for c in untraced]
        put("norm_wall_s", norm_walls)
        put("norm_records_per_s", [inputs.records / w for w in norm_walls])
        put("peak_rss_mb", [c.peak_rss_mb for c in untraced])
        put("run.wall_s", walls)
        put("run.records_per_s", [inputs.records / w for w in walls])
        put("run.host_factor", [c.host_factor for c in untraced])
        put("run.cpu_s", [c.cpu_s for c in untraced])
    put("setup_s", [t / setup_factor for t in setup_times])
    put("run.setup_s", setup_times)
    if traced and walls:
        for metric in traced[0][1]:
            put(metric, [m[metric] for _, m in traced])
        traced_wall = statistics.median(c.norm_wall_s for c, _ in traced)
        put("trace.overhead_frac", [traced_wall / statistics.median(norm_walls) - 1.0])
    result["summary"] = summary

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    ok = tally.failed == 0 and not tally.problems and all(m["name"] in summary for m in wanted)
    result["line"] = {
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
                    for m in wanted if m["name"] in summary},
    }
    return result


def describe(result: dict, spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"# {result['workload']} seed={result['seed']} trace={result['trace']}",
             "environment " + json.dumps(result["environment"], sort_keys=True),
             "profile " + json.dumps(result["profile"], sort_keys=True),
             "digests " + json.dumps(result["digests"], sort_keys=True)]
    for metric, s in result["summary"].items():
        lines.append(f"{metric:<30} {s['median']:<14.6g} {units.get(metric, ''):<12} "
                     f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    line = result["line"]
    lines.append(f"{'failed_frac':<30} {line['failed'] / max(line['attempted'], 1):<14.6g} "
                 f"{'ratio':<12} failed={line['failed']} attempted={line['attempted']}")
    lines.extend(f"problem: {p}" for p in result["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coaug" / "cli.py").is_file():
        print(f"error: no coaug sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    pin_to_one_cpu()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
        print("\n".join(describe(result, spec)))
        print(json.dumps(result["line"]))
        return 0

    table, correct = [], True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, seconds, trace, spec)
            print("\n".join(describe(result, spec)), flush=True)
            correct &= result["line"]["correct"]
            line = result["line"]
            table += [(name, metric, v["value"], v["unit"]) for metric, v in
                      line["metrics"].items()]
            if not trace:
                table.append((name, "failed_frac", line["failed"] / line["attempted"], "ratio"))
    print("\n# all workloads")
    for row in table:
        print(f"{row[0]:<20} {row[1]:<30} {row[2]:<14.6g} {row[3]}")
    print(json.dumps({"correct": correct}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
