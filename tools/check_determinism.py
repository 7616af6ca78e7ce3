#!/usr/bin/env python3
"""Check that coaug writes its pinned bytes under each given CPython.

    python tools/check_determinism.py [PYTHON ...]

For each interpreter (by default the one running this script) it runs
nine commands of this checkout's ``src`` in fresh temporary directories
and compares the sha256 of every artifact but the ``.run.json`` timing
sidecar:

* pipeline-default, ``pipeline --scenario default --seed 7 --n 1600
  --rate 1.0``, against ``perfbench/reference_digests.json`` (only read);
* strong_pair, ``pipeline --scenario strong_pair --seed 11 --n 400
  --rate 0.5``, against ``STRONG_PAIR_SEED11_DIGESTS`` below;
* evaluate-reordered, ``evaluate --metrics ce,bleu4,rougel --macro`` on
  the 1,500 seed-7 report pairs that ``perfbench/freetext.py`` (imported,
  only read) builds, as the benchmark workload of that name does,
  against ``perfbench/reference_digests.json``.  The pairs are built
  once, by the interpreter running this script;
* evaluate-partial-block, the same command on 1,499 such pairs built
  from seed 11, against ``EVALUATE_PARTIAL_BLOCK_DIGESTS`` below.
  ``coaug evaluate`` reads its pairs in blocks, and 1,499 is prime, so
  the last block is a partial one at every block size from 2 to 1,498;
* evaluate-disjoint, ``evaluate --metrics ce,bleu4,rougel --macro`` of
  the 1,500 seed-7 gold reports of evaluate-reordered against the same
  reports rotated by 7 (report ``i`` against report ``i + 7``), against
  ``EVALUATE_DISJOINT_DIGESTS`` below.  No pair shares a sentence text,
  so each report is tokenized whole and CE labels it sentence by sentence
  through the labeler's memo;
* evaluate-templated, ``evaluate --metrics ce,bleu4,rougel --macro`` of
  pipeline-default's ``original.jsonl`` against ``synth --scenario
  default --seed 8 --n 1600``, against ``EVALUATE_TEMPLATED_DIGESTS``
  below.  Every pair shares template sentences, so each distinct text is
  tokenized on its own; the shared templates hold too few tokens for
  BLEU to count only the n-grams across their edges, which it does in
  every evaluate-reordered pair.  The seed-8 corpus is written once, by
  the interpreter running this script;
* augment, ``augment --rate 1.0 --seed 7`` of pipeline-default's
  ``labeled.jsonl``, against pipeline-default's ``augmented.jsonl`` and
  ``.schema`` digests.  That ``labeled.jsonl`` is written once, by
  ``pipeline`` under the interpreter running this script;
* synth-paths, ``pipeline --seed 7 --n 400 --rate 0.5`` of a scenario
  and schema that ``write_synth_paths_inputs`` writes, against
  ``SYNTH_PATHS_DIGESTS`` below.  It takes the generator's paths that
  pipeline-default skips: a random sentence order, whose shuffle is drawn
  between the status and mention draws and the noise; a planted pair; a
  [prototypes] section full of -0.0, under a noise sigma so small that
  sigma·z often rounds to a signed zero, where ``-0.0 + (0.0 + sigma·z)``
  and ``-0.0 + sigma·z`` differ; and 15 diseases of d = 5, an odd 75
  values a record, which leaves a Box-Muller spare;
* analyze-freetext, ``analyze --stratify disease:Edema`` of the 5,000
  seed-7 records that ``perfbench/freetext.py`` writes with features, as
  the benchmark workload of that name does, against
  ``perfbench/reference_digests.json``.  Its 30,000-odd distinct sentence
  texts fill the labeler's memo many times over.  The corpus is written
  once, by the interpreter running this script.

It prints one line per interpreter and case and exits 0 when every
digest matches, 1 otherwise.  Standard library only, so an interpreter
under test needs nothing installed.

Scope: this checks interpreter versions on one libm.  Box-Muller's
``log``, ``cos`` and ``sin`` come from the platform's libm, which one
machine cannot vary; a match here says nothing about another libm.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]

STRONG_PAIR_SEED11_DIGESTS = {
    "after.txt": "e27fecfb140921a12a4e40c7212d64ca62c74af5cb9bb098027b70b4f8490ff9",
    "augmented.jsonl": "2372fe53639922e84b3df2ba2b3d9d79c6c057faca8a2fc940e2b6212fc6698e",
    "augmented.jsonl.schema":
        "9cc1dd8e1bb49e92e323dce5fec48ebd8b84483b1b3e457a8c8a1a845436e01c",
    "before.txt": "76ed2502d8ada95b37488e6fc53c5a5da8494225e697763ca7cde4bc4c36b413",
    "labeled.jsonl": "ce0761bcf3e8e5d2b4fbf16a8afbd274594afb7fd7a713c7efc3a1c5f0276c3c",
    "labeled.jsonl.schema": "9cc1dd8e1bb49e92e323dce5fec48ebd8b84483b1b3e457a8c8a1a845436e01c",
    "original.jsonl": "d2a20461e97661a418362da3c6c5c7521be8f78fdcb1b043db4370cad68c1f61",
    "original.jsonl.schema": "9cc1dd8e1bb49e92e323dce5fec48ebd8b84483b1b3e457a8c8a1a845436e01c",
    "summary.json": "f328b9dbb3ce28f06963f6b9613b68fb0ace643a3f3944f7c3c979d8dce2c2ec",
}

EVALUATE_TEMPLATED_DIGESTS = {
    "scores.json": "263ab85c4d9f6d2682d0caceec1279741d90feaca7fc5fbc1580cc6d7c197fec",
}

EVALUATE_PARTIAL_BLOCK_DIGESTS = {
    "scores.json": "3af53176b79c9ece735b74609cb7ea593744ade70fde9301572d4da852c8850e",
}

EVALUATE_DISJOINT_DIGESTS = {
    "scores.json": "51183516b1334c05bf8c7be8419585198f04f9c9d61358bcfa048067902ff9e6",
}

SYNTH_PATHS_DIGESTS = {
    "after.txt": "ac60e973f91819b2ca18a5e8862df24a450261b1a92766ef10c37488d33da7c0",
    "augmented.jsonl": "881946652bdf8f7724d9b697435e97a6b70193977639fc2d454ef2503ea5828a",
    "augmented.jsonl.schema":
        "5581f4f8ac58f55a6d3422d440eb8e46558f2352075e8d3bc06fdbdaecaff35f",
    "before.txt": "2a74c8f94eae7f170f03799d5a5e5cbe73175a69c7c34e861056bd0da732ec10",
    "labeled.jsonl": "87da67ce908b781051b7bd5b56d6004ddeae8b333b2a99d318b612dccd0b3392",
    "labeled.jsonl.schema": "5581f4f8ac58f55a6d3422d440eb8e46558f2352075e8d3bc06fdbdaecaff35f",
    "original.jsonl": "8ed84ee33c3c809e60b1861b42d3fd9a0cca1ec8c13ee50b584fba838c5b2c31",
    "original.jsonl.schema": "5581f4f8ac58f55a6d3422d440eb8e46558f2352075e8d3bc06fdbdaecaff35f",
    "summary.json": "e928a5c5b813349005dc0d5fd3e6dce606008cd87440e0b6e78f1420282b0a6a",
}

EVALUATE_SEED = 7
EVALUATE_N = 1500
ANALYZE_SEED = 7
ANALYZE_N = 5000
PARTIAL_BLOCK_SEED = 11
PARTIAL_BLOCK_N = 1499
DISJOINT_ROTATION = 7


def load_freetext():
    """``perfbench/freetext.py``, the benchmark's corpus generator, as a module."""
    spec = importlib.util.spec_from_file_location("freetext",
                                                  ROOT / "perfbench" / "freetext.py")
    freetext = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = freetext  # as ``import`` would: its dataclass looks it up
    spec.loader.exec_module(freetext)
    return freetext


def write_evaluate_pairs(d: Path, seed: int = EVALUATE_SEED, n: int = EVALUATE_N) -> list[str]:
    """Write the evaluate-reordered gold and generated corpora of *n* pairs
    from *seed* into *d*; return the ``coaug evaluate`` arguments that read
    them."""
    freetext = load_freetext()
    gold = freetext.generate_reports(seed, n)
    gold_path, generated_path = d / f"gold-{seed}-{n}.jsonl", d / f"generated-{seed}-{n}.jsonl"
    freetext.write_text_corpus(str(gold_path), gold)
    freetext.write_text_corpus(str(generated_path), freetext.drop_and_shuffle(gold, seed))
    return ["evaluate", "--gold", str(gold_path), "--generated", str(generated_path),
            "--metrics", "ce,bleu4,rougel", "--macro"]


def write_disjoint_pairs(d: Path) -> list[str]:
    """Write the evaluate-reordered gold reports and the same reports rotated
    by DISJOINT_ROTATION into *d*; return the ``coaug evaluate`` arguments
    that read them."""
    freetext = load_freetext()
    gold = freetext.generate_reports(EVALUATE_SEED, EVALUATE_N)
    gold_path, rotated_path = d / "disjoint-gold.jsonl", d / "disjoint-rotated.jsonl"
    freetext.write_text_corpus(str(gold_path), gold)
    freetext.write_text_corpus(str(rotated_path),
                               gold[DISJOINT_ROTATION:] + gold[:DISJOINT_ROTATION])
    return ["evaluate", "--gold", str(gold_path), "--generated", str(rotated_path),
            "--metrics", "ce,bleu4,rougel", "--macro"]


def write_synth_paths_inputs(d: Path) -> list[str]:
    """Write the synth-paths schema and scenario into *d*: the shipped
    default scenario with a random order, a noise sigma of 1e-322 and a
    15th disease, Hernia, which the lexicon does not know, on d = 5, with
    prototypes of -0.0, 0.0 and binary fractions.  Returns the ``coaug``
    arguments that select them."""
    data = ROOT / "src" / "coaug" / "data"
    names = [*(data / "default_schema.txt").read_text().split("\n")[1:15], "Hernia"]
    schema, scenario = d / "synth-paths-schema.txt", d / "synth-paths.cfg"
    schema.write_text("d=5\n" + "\n".join(names) + "\n")
    text = (data / "default_scenario.cfg").read_text().replace(
        "order_policy = schema", "order_policy = random").replace(
        "noise_sigma = 0.1", "noise_sigma = 1e-322").replace(
        "[planted]", "Hernia = 0.3\n\n[planted]")
    lines = [text.rstrip("\n"), "Hernia | positive = A small hiatal hernia is present.",
             "Hernia | negative = There is no hernia.", "", "[prototypes]"]
    for i, name in enumerate(names):
        lines.append(f"{name} | positive = -0.0, {0.25 * i!r}, 0.0, -0.0, -1.5")
        lines.append(f"{name} | negative = -0.0, -0.0, {-0.125 * i!r}, 0.0, 2.0")
    scenario.write_text("\n".join(lines) + "\n")
    return ["--scenario", str(scenario), "--schema", str(schema)]


def cases(inputs: Path) -> dict[str, tuple[Callable[[Path], list[str]], dict[str, str]]]:
    """Each case's coaug arguments, given its output directory, and its
    expected digests; *inputs* is a directory for the cases' input files."""
    reference = json.loads((ROOT / "perfbench" / "reference_digests.json").read_text())
    evaluate = write_evaluate_pairs(inputs)
    partial = write_evaluate_pairs(inputs, PARTIAL_BLOCK_SEED, PARTIAL_BLOCK_N)
    disjoint = write_disjoint_pairs(inputs)
    freetext, features = load_freetext(), inputs / "freetext.jsonl"
    records = freetext.generate_reports(ANALYZE_SEED, ANALYZE_N)
    freetext.write_feature_corpus(str(features), records, ANALYZE_SEED)

    def pipeline(*args: str) -> Callable[[Path], list[str]]:
        return lambda out: ["pipeline", *args, "--outdir", str(out)]

    default = pipeline("--scenario", "default", "--seed", "7", "--n", "1600", "--rate", "1.0")
    coaug(sys.executable, default(inputs / "pipeline-default"))
    labeled = inputs / "pipeline-default" / "labeled.jsonl"
    seed8 = inputs / "seed8.jsonl"
    coaug(sys.executable, ["synth", "--scenario", "default", "--seed", "8", "--n", "1600",
                           "--out", str(seed8)])
    templated = ["evaluate", "--gold", str(inputs / "pipeline-default" / "original.jsonl"),
                 "--generated", str(seed8), "--metrics", "ce,bleu4,rougel", "--macro"]
    augmented = {name: digest for name, digest in reference["pipeline-default"].items()
                 if name.startswith("augmented.jsonl")}
    return {
        "pipeline-default": (default, reference["pipeline-default"]),
        "strong_pair": (pipeline("--scenario", "strong_pair", "--seed", "11", "--n", "400",
                                 "--rate", "0.5"), STRONG_PAIR_SEED11_DIGESTS),
        "evaluate-reordered": (lambda out: [*evaluate, "--out", str(out / "scores.json")],
                               reference["evaluate-reordered"]),
        "evaluate-partial-block": (lambda out: [*partial, "--out", str(out / "scores.json")],
                                   EVALUATE_PARTIAL_BLOCK_DIGESTS),
        "evaluate-disjoint": (lambda out: [*disjoint, "--out", str(out / "scores.json")],
                              EVALUATE_DISJOINT_DIGESTS),
        "evaluate-templated": (lambda out: [*templated, "--out", str(out / "scores.json")],
                               EVALUATE_TEMPLATED_DIGESTS),
        "synth-paths": (pipeline(*write_synth_paths_inputs(inputs), "--seed", "7", "--n", "400",
                                 "--rate", "0.5"), SYNTH_PATHS_DIGESTS),
        "augment": (lambda out: ["augment", "--corpus", str(labeled), "--rate", "1.0",
                                 "--seed", "7", "--out", str(out / "augmented.jsonl")],
                    augmented),
        "analyze-freetext": (lambda out: ["analyze", "--corpus", str(features), "--stratify",
                                          "disease:Edema", "--out", str(out / "report.txt")],
                             reference["analyze-freetext"]),
    }


def coaug(python: str, argv: list[str]) -> None:
    """Run this checkout's coaug under *python*."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([python, "-m", "coaug", "--quiet", *argv], env=env, check=True)


def run_case(python: str, argv: Callable[[Path], list[str]]) -> dict[str, str]:
    """The artifact digests of one coaug command run under *python*."""
    with tempfile.TemporaryDirectory(prefix="coaug-determinism-") as out:
        coaug(python, argv(Path(out)))
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).iterdir()) if not p.name.endswith(".run.json")}


def main(argv: list[str]) -> int:
    pythons = argv or [sys.executable]
    failed = False
    with tempfile.TemporaryDirectory(prefix="coaug-determinism-inputs-") as inputs:
        all_cases = cases(Path(inputs))
        for python in pythons:
            version = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                                     capture_output=True, text=True, check=True).stdout.strip()
            for name, (args, expected) in all_cases.items():
                got = run_case(python, args)
                differ = sorted(n for n in expected.keys() | got.keys()
                                if got.get(n) != expected.get(n))
                failed |= bool(differ)
                print(f"{python} (CPython {version}) {name}: "
                      f"{'ok' if not differ else 'DIFFER ' + ', '.join(differ)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
