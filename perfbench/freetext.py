"""Seeded free-text corpus generator for the analyze and evaluate workloads.

Standard library only, and independent of the coaug package: the benchmark
generates inputs, the program under test only reads them.

Every report mixes one sentence per mentioned disease with filler
sentences.  A mention sentence holds exactly one lexicon phrase; a
Negative or Uncertain mention puts its cue directly before the phrase and
a Positive one has no cue in front of it, so each sentence's intended
status is known here and can be checked against what the program reports.
Numbers and free filler words make nearly every sentence text unique,
the opposite of the synthetic scenario corpora, where a few dozen texts
repeat across all records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Disease names of the default 14-disease schema, in index order.
DISEASES = (
    "Enlarged Cardiomediastinum",
    "Cardiomegaly",
    "Lung Opacity",
    "Lung Lesion",
    "Edema",
    "Consolidation",
    "Pneumonia",
    "Atelectasis",
    "Pneumothorax",
    "Pleural Effusion",
    "Pleural Other",
    "Fracture",
    "Support Devices",
    "No Finding",
)
FEATURE_DIM = 16

# Phrases per disease.  Each matches a pattern of the default lexicon and
# no pattern of another disease.
PHRASES = (
    ("widened mediastinum", "mediastinal widening", "enlarged cardiomediastinum"),
    ("cardiomegaly", "cardiac enlargement", "enlarged cardiac silhouette"),
    ("lung opacity", "airspace opacity", "pulmonary opacity"),
    ("pulmonary nodule", "lung mass", "nodular density"),
    ("pulmonary edema", "interstitial edema", "vascular congestion"),
    ("consolidation", "airspace consolidation"),
    ("pneumonia", "pneumonic infiltrate", "infectious process"),
    ("atelectasis", "subsegmental atelectasis", "volume loss"),
    ("pneumothorax", "apical pneumothorax"),
    ("pleural effusion", "effusion", "pleural fluid"),
    ("pleural thickening", "pleural scarring", "pleural plaque"),
    ("rib fracture", "fracture"),
    ("endotracheal tube", "central venous catheter", "chest tube", "pacemaker"),
    ("normal study", "unremarkable examination"),
)

NEGATION_CUES = ("no", "no evidence of", "without", "negative for", "free of",
                 "absence of")
UNCERTAINTY_CUES = ("possible", "probable", "questionable", "suspected",
                    "cannot exclude", "suspicious for", "concerning for",
                    "equivocal")

# Filler vocabulary: no cue word and no lexicon token.
LEADS = ("", "on the frontal view", "on the lateral view", "again seen",
         "at the time of this exam", "as before", "compared with the prior study",
         "today", "interval")
MODIFIERS = ("mild", "moderate", "small", "large", "new", "persistent",
             "increased", "decreased", "stable", "minimal", "subtle", "diffuse")
TAILS = ("at the left base", "at the right base", "in the right upper zone",
         "in the left midlung", "along the lateral wall", "near the hilum",
         "projecting over the spine", "in the retrocardiac region")
FILLERS = (
    "The patient is rotated {k} degrees to the left on image {n}.",
    "Comparison is made with the radiograph from {n} days prior at {h}:{m:02d}.",
    "Portable upright view number {n} obtained at {h}:{m:02d}.",
    "Osseous structures show degenerative change at level T{k} on image {n}.",
    "Surgical clips project over the upper abdomen in {k} places on image {n}.",
    "The trachea is midline at {n} mm from marker {k}.",
    "Heart size is stable relative to exam number {n} from {h}:{m:02d}.",
    "Skin folds overlie the chest wall in {k} regions on image {n}.",
)

POSITIVE, NEGATIVE, UNCERTAIN = "Positive", "Negative", "Uncertain"
STATUS_RANK = {NEGATIVE: 1, UNCERTAIN: 2, POSITIVE: 3}


@dataclass(frozen=True)
class GenRecord:
    """One generated report with the intended status of each sentence
    (None for filler, else ``(disease_index, status)``)."""

    id: str
    sentences: tuple[str, ...]
    mentions: tuple[tuple[int, str] | None, ...]


def _number(rng: random.Random) -> int:
    return rng.randint(2, 999)


def _mention_sentence(rng: random.Random, disease: int, status: str) -> str:
    phrase = rng.choice(PHRASES[disease])
    lead = rng.choice(LEADS)
    if status == POSITIVE:
        body = f"there is {rng.choice(MODIFIERS)} {phrase}"
    elif status == NEGATIVE:
        body = f"{rng.choice(NEGATION_CUES)} {phrase}"
    else:
        body = f"{rng.choice(UNCERTAINTY_CUES)} {phrase}"
    tail = rng.choice(TAILS)
    detail = rng.choice((f"measuring {_number(rng)} mm", f"series {rng.randint(1, 9)} "
                         f"image {_number(rng)}", f"unchanged over {_number(rng)} days"))
    text = " ".join(part for part in (lead, body, tail, detail) if part) + "."
    return text[0].upper() + text[1:]


def _filler_sentence(rng: random.Random) -> str:
    return rng.choice(FILLERS).format(n=_number(rng), h=rng.randint(0, 23),
                                      m=rng.randint(0, 59), k=rng.randint(1, 12))


def generate_reports(seed: int, n_records: int, mentions: int = 4,
                     fillers: int = 2) -> list[GenRecord]:
    """Generate *n_records* reports of *mentions* distinct diseases, each
    Positive, Negative or Uncertain in the ratio 2:2:1, and *fillers*
    sentences without a disease, in random order.  The fixed shape keeps
    the work per corpus nearly equal across seeds."""
    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        items: list[tuple[str, tuple[int, str] | None]] = []
        for disease in rng.sample(range(len(DISEASES)), mentions):
            status = rng.choice((POSITIVE, POSITIVE, NEGATIVE, NEGATIVE, UNCERTAIN))
            items.append((_mention_sentence(rng, disease, status), (disease, status)))
        items += [(_filler_sentence(rng), None) for _ in range(fillers)]
        rng.shuffle(items)
        records.append(GenRecord(f"ft-{seed}-{i:06d}",
                                 tuple(t for t, _ in items), tuple(m for _, m in items)))
    return records


def report_labels(mentions) -> list[str | None]:
    """Report-level status per disease (None = unmentioned), aggregated by
    Positive > Uncertain > Negative."""
    labels: list[str | None] = [None] * len(DISEASES)
    for mention in mentions:
        if mention is None:
            continue
        disease, status = mention
        if labels[disease] is None or STATUS_RANK[status] > STATUS_RANK[labels[disease]]:
            labels[disease] = status
    return labels


def _feature_bundles(rng: random.Random, n: int):
    """JSON text of *n* feature bundles.  Values come from a pool of 4096
    Gaussian draws at 9 significant digits, as coaug writes them, so the
    reader parses and re-quantizes every float while set-up stays cheap."""
    pool = [repr(float(format(rng.gauss(0.0, 1.0), ".9g"))) for _ in range(4096)]
    for _ in range(n):
        yield "[" + ",".join('{"vec":[' + ",".join(rng.choices(pool, k=FEATURE_DIM))
                             + '],"masked":false}' for _ in DISEASES) + "]"


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    with open(path + ".schema", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([f"d={FEATURE_DIM}", *DISEASES]) + "\n")


def _line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_feature_corpus(path: str, records: list[GenRecord], seed: int) -> None:
    """Unlabeled corpus of Original records with one feature vector per disease."""
    bundles = _feature_bundles(random.Random(seed ^ 0x5EED), len(records))
    _write_lines(path, (_line({"id": r.id, "report": list(r.sentences)})[:-1]
                        + ',"features":' + bundle + ',"provenance":"Original"}'
                        for r, bundle in zip(records, bundles)))


def drop_and_shuffle(records: list[GenRecord], seed: int) -> list[GenRecord]:
    """Each report with one sentence dropped and the rest shuffled."""
    rng = random.Random(seed ^ 0xD209)
    out = []
    for r in records:
        items = list(zip(r.sentences, r.mentions))
        del items[rng.randrange(len(items))]
        rng.shuffle(items)
        out.append(GenRecord(r.id, tuple(t for t, _ in items), tuple(m for _, m in items)))
    return out


def write_text_corpus(path: str, records: list[GenRecord]) -> None:
    """Corpus without features or labels, as generated reports come."""
    _write_lines(path, (_line({"id": r.id, "report": list(r.sentences),
                               "provenance": "Original"}) for r in records))
