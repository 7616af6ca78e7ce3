import dataclasses
import io
import json
import math
import os
from fractions import Fraction
from typing import Mapping, Optional, Union

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coaug.augment import (
    MAX_RESAMPLE,
    MIN_SENTENCES,
    ORPHAN_MENTION,
    SKIP_REASONS,
    TWIN_SUFFIX,
    AugmentationConfig,
    AugmentationOutcome,
    Skip,
    TwinSpool,
    augment_dataset,
    augment_record,
    crr_augment,
    css_augment,
)
from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    Provenance,
    Record,
    Report,
    Sentence,
)
from coaug.errors import ConfigInvalid, MissingFeatures
from coaug.labeler import Matcher, label_corpus, label_report, label_sentence
from coaug.rng import RngStream
from coaug.synth import OrderPolicy, SynthConfig, synth_generate

from conftest import make_record

CSS_TEXTS = [
    "No pneumothorax.",
    "Small right pleural effusion.",
    "Heart size is normal.",
]


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        AugmentationConfig(rate=1.5)
    with pytest.raises(ConfigInvalid):
        AugmentationConfig(enable_css=False, enable_crr=False)


def test_css_pops_effusion_sentence(schema, matcher):
    # stream (seed=1, id="r1") draws sentence index 1 on its first try
    record = make_record("r1", CSS_TEXTS, schema)
    out = css_augment(record, matcher, RngStream.for_record(1, "r1"))
    assert not isinstance(out, Skip)
    assert out.popped_sentence_index == 1
    assert out.masked_indices == {schema.index_of("Pleural Effusion")}
    assert out.record.report.texts() == ["No pneumothorax.", "Heart size is normal."]
    effusion = schema.index_of("Pleural Effusion")
    vec = out.record.features.vectors[effusion]
    assert effusion in out.record.features.masked and set(vec) == {0.0}
    untouched = out.record.features.vectors[0]
    assert 0 not in out.record.features.masked and untouched[0] == 0.25
    assert out.record.provenance is Provenance.COUNTERFACTUAL
    assert out.record.source_id == "r1"
    assert out.record.id == "r1#cf"
    assert out.flags == frozenset()


def test_css_single_sentence_skips(schema, matcher):
    record = make_record("r1", ["No pneumothorax."], schema)
    out = css_augment(record, matcher, RngStream.for_record(0, "r1"))
    assert isinstance(out, Skip)
    assert out.reason == "below-min-sentences"


def test_css_merged_normal_sentence_masks_both(schema, matcher):
    texts = [
        "The lungs are clear without effusion or pneumothorax.",
        "The heart is enlarged.",
    ]
    record = make_record("r1", texts, schema)
    # find a stream that pops sentence 0 (both diseases merged into it)
    for seed in range(50):
        out = css_augment(record, matcher, RngStream.for_record(seed, "r1"))
        assert not isinstance(out, Skip)
        if out.popped_sentence_index == 0:
            assert out.masked_indices == {
                schema.index_of("Pneumothorax"),
                schema.index_of("Pleural Effusion"),
            }
            assert out.popped_labels == {
                schema.index_of("Pneumothorax"): DiseaseStatus.NEGATIVE,
                schema.index_of("Pleural Effusion"): DiseaseStatus.NEGATIVE,
            }
            return
    pytest.fail("no stream popped sentence 0 in 50 seeds")


def test_css_requires_features(schema, matcher):
    record = make_record("r1", CSS_TEXTS, schema, features=False)
    with pytest.raises(MissingFeatures):
        css_augment(record, matcher, RngStream.for_record(0, "r1"))


def test_css_skips_when_nothing_labelable(schema, matcher):
    record = make_record("r1", ["Patient is comfortable.", "Patient is resting."], schema)
    out = css_augment(record, matcher, RngStream.for_record(0, "r1"))
    assert isinstance(out, Skip)
    assert out.reason == "no-labelable-sentence"


def test_css_orphan_mention_flag(schema, matcher):
    texts = [
        "There is a small right pleural effusion.",
        "The pleural effusion is unchanged.",
    ]
    record = make_record("r1", texts, schema)
    out = css_augment(record, matcher, RngStream.for_record(0, "r1"))
    assert not isinstance(out, Skip)
    assert ORPHAN_MENTION in out.flags  # either pop leaves the twin mention


def test_crr_single_sentence_unchanged():
    report = Report.from_texts(["Only sentence."])
    out, perm = crr_augment(report, RngStream.for_record(0, "x"))
    assert out == report
    assert perm == (0,)


def test_crr_golden_permutation():
    # pinned against the documented stream: seed 42, record id "r1"
    report = Report.from_texts(["s1.", "s2.", "s3."])
    out, perm = crr_augment(report, RngStream.for_record(42, "r1"))
    assert perm == (1, 0, 2)
    assert out.texts() == ["s2.", "s1.", "s3."]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_crr_multiset_preserved_and_non_identity(n, seed):
    report = Report.from_texts([f"Sentence number {i}." for i in range(n)])
    out, perm = crr_augment(report, RngStream.for_record(seed, "r"))
    assert sorted(out.texts()) == sorted(report.texts())
    assert sorted(perm) == list(range(n))
    assert list(perm) != list(range(n))
    assert out.texts() == [report.texts()[i] for i in perm]


def test_augment_record_css_and_crr(schema, matcher):
    record = make_record("r1", CSS_TEXTS, schema)
    out = augment_record(record, matcher, RngStream.for_record(1, "r1"), AugmentationConfig())
    assert not isinstance(out, Skip)
    assert len(out.record.report) == 2
    assert len(out.masked_indices) == 1
    assert sorted(out.permutation) == [0, 1]
    assert list(out.permutation) != [0, 1]  # two sentences must swap


def test_augment_record_crr_only(schema, matcher):
    record = make_record("r1", CSS_TEXTS, schema)
    cfg = AugmentationConfig(enable_css=False)
    out = augment_record(record, matcher, RngStream.for_record(5, "r1"), cfg)
    assert not isinstance(out, Skip)
    assert len(out.record.report) == 3
    assert out.masked_indices == frozenset()
    assert out.popped_sentence_index is None
    assert not out.record.features.masked
    assert sorted(out.record.report.texts()) == sorted(CSS_TEXTS)


def test_augment_record_css_only_two_sentences(schema, matcher):
    record = make_record("r1", ["No pneumothorax.", "Small right pleural effusion."], schema)
    cfg = AugmentationConfig(enable_crr=False)
    out = augment_record(record, matcher, RngStream.for_record(2, "r1"), cfg)
    assert not isinstance(out, Skip)
    assert len(out.record.report) == 1
    assert out.permutation == (0,)


MODES = {
    "css-crr": AugmentationConfig(),
    "css-only": AugmentationConfig(enable_crr=False),
    "crr-only": AugmentationConfig(enable_css=False),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("source_labeled", [True, False], ids=["labeled", "unlabeled"])
def test_twin_is_labeled_exactly_when_its_source_is(schema, matcher, mode, source_labeled):
    texts = CSS_TEXTS + ["The pleural effusion is unchanged."]  # an orphan-prone pop
    for seed in range(20):
        record = make_record("r1", texts, schema)
        if source_labeled:
            record = record.with_labels(label_report(record.report, matcher))
        out = augment_record(record, matcher, RngStream.for_record(seed, "r1"), MODES[mode])
        assert not isinstance(out, Skip)
        twin = out.record
        if source_labeled:
            assert twin.labels == label_report(twin.report, matcher)
        else:
            assert twin.labels is None


# ---------------------------------------------------------------------------
# dataset level


def _synth_corpus(schema, n, seed=3, mention_negative=1.0):
    from coaug.synth import default_scenario_path, parse_scenario

    base = parse_scenario(default_scenario_path(), schema)
    cfg = dataclasses.replace(
        base, n_records=n, seed=seed, mention_negative=mention_negative, noise_sigma=0.0
    )
    return synth_generate(cfg, schema)


@pytest.mark.parametrize("mode", MODES)
def test_dataset_twins_carry_the_labels_a_relabel_would_give(schema, matcher, mode):
    labeled = label_corpus(_synth_corpus(schema, 60, seed=5, mention_negative=0.8), matcher)
    cfg = dataclasses.replace(MODES[mode], seed=3)
    out, summary = augment_dataset(labeled, matcher, cfg)
    assert summary.augmented > 0
    assert label_corpus(out, matcher) == out
    unlabeled, _ = augment_dataset(_synth_corpus(schema, 60, seed=5, mention_negative=0.8),
                                   matcher, cfg)
    assert all(r.labels is None for r in unlabeled)
    assert [r.report for r in unlabeled] == [r.report for r in out]


def test_rate_zero_returns_input(schema, matcher):
    corpus = _synth_corpus(schema, 40)
    out, summary = augment_dataset(corpus, matcher, AugmentationConfig(rate=0.0, seed=1))
    assert out == corpus
    assert summary.augmented == 0


def test_rate_counts_match_floor(schema, matcher):
    corpus = _synth_corpus(schema, 100)  # mention_negative=1 -> all eligible
    for rate, expected in ((0.25, 25), (0.5, 50), (1.0, 100)):
        out, summary = augment_dataset(
            corpus, matcher, AugmentationConfig(rate=rate, seed=9)
        )
        twins = [r for r in out.records if r.provenance is Provenance.COUNTERFACTUAL]
        assert len(twins) == expected
        assert summary.augmented == expected
        assert len(out) == 100 + expected


@pytest.mark.parametrize("rate, n, target", [
    (0.29, 100, 29), (0.57, 100, 57), (0.58, 50, 29), (0.35, 180, 63), (0.5, 7, 3)])
def test_target_is_the_floor_of_the_decimal_rate_times_n(schema, matcher, rate, n, target):
    # 0.29 * 100 is 28.999999999999996 in floats; the rate as written is 29/100
    with TwinSpool(io.StringIO(), None, schema, matcher,
                   AugmentationConfig(rate=rate, seed=1)) as spool:
        spool.fates = bytearray([1]) * n  # every record's twin spooled
        spool.spool.writelines(json.dumps({"id": f"r{i}#cf"}) + "\n" for i in range(n))
        rows, summary, _ = spool.finish()
    assert summary.target == summary.augmented == len(rows) == target


def test_every_record_gains_one_twin_at_rate_one(schema, matcher):
    corpus = _synth_corpus(schema, 60)
    out, _ = augment_dataset(corpus, matcher, AugmentationConfig(rate=1.0, seed=2))
    twins = {r.source_id for r in out.records if r.provenance is Provenance.COUNTERFACTUAL}
    assert twins == {r.id for r in corpus.records}


def test_output_order_originals_then_twins_by_source(schema, matcher):
    corpus = _synth_corpus(schema, 30)
    out, _ = augment_dataset(corpus, matcher, AugmentationConfig(rate=0.5, seed=4))
    originals = out.records[:30]
    twins = out.records[30:]
    assert [r.id for r in originals] == [r.id for r in corpus.records]
    source_positions = [
        next(i for i, r in enumerate(corpus.records) if r.id == t.source_id)
        for t in twins
    ]
    assert source_positions == sorted(source_positions)


def test_ineligible_records_cause_shortfall_warning(schema, matcher):
    # single-sentence records are ineligible for the feature-masking step
    records = [make_record(f"s{i}", ["No pneumothorax."], schema) for i in range(10)]
    records += [make_record(f"m{i}", CSS_TEXTS, schema) for i in range(5)]
    corpus = Corpus(schema, tuple(records))
    out, summary = augment_dataset(corpus, matcher, AugmentationConfig(rate=1.0, seed=1))
    assert summary.eligible == 5
    assert summary.target == 15
    assert summary.shortfall == 10
    assert summary.augmented == 5


def test_augment_dataset_requires_all_original(schema, matcher):
    from coaug.errors import CoaugError

    record = make_record(
        "r#cf", CSS_TEXTS, schema, provenance=Provenance.COUNTERFACTUAL, source_id="r"
    )
    with pytest.raises(CoaugError):
        augment_dataset(Corpus(schema, (record,)), matcher, AugmentationConfig())


def test_label_conservation_and_mask_pairing(schema, matcher):
    corpus = _synth_corpus(schema, 300, seed=8, mention_negative=0.8)
    cfg = AugmentationConfig(rate=1.0, seed=21)
    for record in corpus.records:
        if len(record.report) < MIN_SENTENCES:
            continue
        out = augment_record(record, matcher, RngStream.for_record(cfg.seed, record.id), cfg)
        if isinstance(out, Skip):
            continue
        # mask pairing: masked features are exactly the popped labels
        assert out.masked_indices == set(out.popped_labels)
        assert out.record.features.masked == out.masked_indices
        if ORPHAN_MENTION in out.flags:
            continue
        before = label_report(record.report, matcher)
        after = label_report(out.record.report, matcher)
        for disease in range(len(schema)):
            if disease in out.masked_indices:
                assert after.statuses[disease] is DiseaseStatus.UNMENTIONED
            else:
                assert after.statuses[disease] is before.statuses[disease]


def test_decoupling_invariant_on_strong_pair_corpus(schema, matcher):
    # planted mention lift ~1.9; the rate-1.0 twin set must pull the pair's
    # lift down by more than the precomputed 99% Monte-Carlo margin
    # (tools/oracle_decoupling.py --final: 1% quantile +0.0635, frozen 0.06)
    from coaug.confound import co_mention_lift
    from coaug.synth import parse_scenario, strong_pair_scenario_path, synth_generate

    cfg = parse_scenario(strong_pair_scenario_path(), schema)
    assert cfg.n_records == 20000
    labeled = label_corpus(synth_generate(cfg, schema), matcher)
    lift_before = co_mention_lift(labeled, 8, 9)
    assert lift_before >= 1.5

    augmented, _ = augment_dataset(
        labeled, matcher, AugmentationConfig(rate=1.0, seed=cfg.seed)
    )
    assert all(r.labels is not None for r in augmented)  # twins of labeled records
    lift_after = co_mention_lift(augmented, 8, 9)
    assert lift_before - lift_after > 0.06


# ---------------------------------------------------------------------------
# TwinSpool's choice over its fate bytes, against the list-based choice it replaced

_FATES = st.binary().map(lambda b: bytearray(k % 5 for k in b))  # ineligible..skipped


def _reference_choice(fates, cfg):
    """The chosen positions, counts and skips as a list copy of the
    eligible positions, a partial Fisher-Yates and a sort gave them."""
    indices = [i for i, fate in enumerate(fates) if fate != 0]
    target = math.floor(Fraction(repr(cfg.rate)) * len(fates))
    if target >= len(indices):
        chosen = list(indices)
    else:
        pool = list(indices)
        stream = RngStream.for_label(cfg.seed, "augment:selection")
        for i in range(target):
            j = i + stream.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        chosen = sorted(pool[:target])
    summary = dict(originals=len(fates), eligible=len(indices), target=target, augmented=0,
                   skipped=0, orphan_flagged=0, shortfall=max(0, target - len(indices)))
    skips = dict.fromkeys(SKIP_REASONS, 0)
    for i in chosen:
        if fates[i] >= 3:
            summary["skipped"] += 1
            skips[SKIP_REASONS[fates[i] - 3]] += 1
        else:
            summary["augmented"] += 1
            summary["orphan_flagged"] += fates[i] == 2
    return chosen, summary, skips


@settings(max_examples=300, deadline=None)
@given(fates=_FATES, rate=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
@example(fates=bytearray(), rate=1.0, seed=3)  # no records
@example(fates=bytearray(b"\x03\x00\x04\x01\x02"), rate=1.0, seed=0)  # every fate, all chosen
def test_twin_spool_chooses_as_the_list_based_reference(schema, matcher, fates, rate, seed):
    cfg = AugmentationConfig(rate=rate, seed=seed)
    chosen, summary, skips = _reference_choice(fates, cfg)
    spooled = [i for i, fate in enumerate(fates) if fate in (1, 2)]
    out = io.StringIO()
    with TwinSpool(out, None, schema, matcher, cfg) as spool:
        spool.fates = bytearray(fates)
        spool.spool.writelines(json.dumps({"id": f"r{i}#cf"}) + "\n" for i in spooled)
        rows, got_summary, got_skips = spool.finish()
    assert dataclasses.asdict(got_summary) == summary
    assert got_skips == skips
    assert list(rows) == [row for row, i in enumerate(spooled) if i in frozenset(chosen)]
    assert out.getvalue() == "".join(json.dumps({"id": f"r{spooled[row]}#cf"}) + "\n"
                                     for row in rows)


@pytest.mark.parametrize("rate", [1.0, 0.5])
@pytest.mark.parametrize("texts, skipped", [
    (["Heart size is normal.", "The lungs are clear."], True),  # no labelable sentence
    (CSS_TEXTS[:2], False),  # every sentence labelable: each twin is spooled
], ids=["all-skipped", "all-spooled"])
def test_twin_spool_grows_by_less_than_32_b_per_record(schema, matcher, rate, texts, skipped):
    # a fate byte per record, 8 B per eligible record while choosing, and
    # the rows of the chosen twins
    import tracemalloc

    cfg = AugmentationConfig(rate=rate, seed=5)

    def spool(n):
        with open(os.devnull, "w", encoding="utf-8") as out, \
                TwinSpool(out, None, schema, matcher, cfg) as twins:
            for i in range(n):
                twins.add(make_record(f"r{i:06d}", texts, schema), "")
            rows, summary, _ = twins.finish()
        chosen = math.floor(Fraction(repr(rate)) * n)
        assert (summary.augmented, summary.skipped) == ((0, chosen) if skipped else (chosen, 0))
        assert len(rows) == summary.augmented

    spool(3000)
    peaks = {}
    for n in (1000, 4000):
        tracemalloc.start()
        try:
            spool(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[4000] - peaks[1000]) / 3000 < 32


# ---------------------------------------------------------------------------
# augment_record against the three-function recipe it folded: the CSS draw,
# the CRR reorder and the twin's build, copied as they were


def _reference_pop_sentence(record: Record, matcher: Matcher, stream: RngStream
                            ) -> Union[tuple[int, Mapping[int, DiseaseStatus], Report], Skip]:
    """CSS's draw: the popped index, its labels and the kept sentences."""
    if record.provenance is not Provenance.ORIGINAL:
        raise ValueError("css_augment requires an Original record")
    if record.features is None:
        raise MissingFeatures(f"record {record.id!r} has no feature bundle")
    sentences = record.report.sentences
    if len(sentences) < MIN_SENTENCES:
        return Skip("below-min-sentences")
    for _ in range(MAX_RESAMPLE):
        idx = stream.randrange(len(sentences))
        labels = label_sentence(sentences[idx], matcher)
        if labels:
            return idx, labels, Report(sentences[:idx] + sentences[idx + 1:])
    return Skip("no-labelable-sentence")


def _reference_counterfactual(record: Record, matcher: Matcher, report: Report,
                              permutation: tuple[int, ...], popped_index: Optional[int],
                              popped_labels: Mapping[int, DiseaseStatus]
                              ) -> AugmentationOutcome:
    """The twin of *record* with *report*, and its outcome.  The popped
    diseases' vectors are masked; the twin's labels, kept when its source
    has labels, also flag a masked disease a kept sentence still mentions."""
    masked = frozenset(popped_labels)
    features = record.features.mask(masked) if masked else record.features
    labels = label_report(report, matcher) if masked or record.labels is not None else None
    orphan = any(labels.mentioned(i) for i in masked)
    twin = Record(record.id + TWIN_SUFFIX, report, features,
                  labels if record.labels is not None else None,
                  Provenance.COUNTERFACTUAL, record.id)
    return AugmentationOutcome(twin, popped_index, popped_labels, masked, permutation,
                               frozenset({ORPHAN_MENTION}) if orphan else frozenset())


def _reference_augment_record(record: Record, matcher: Matcher, stream: RngStream,
                              cfg: AugmentationConfig) -> Union[AugmentationOutcome, Skip]:
    """Serial composition: pop-and-mask first (when enabled), then
    reorder what remains (when enabled)."""
    index, labels, report = None, {}, record.report
    if cfg.enable_css:
        popped = _reference_pop_sentence(record, matcher, stream)
        if isinstance(popped, Skip):
            return popped
        index, labels, report = popped
    permutation = tuple(range(len(report)))
    if cfg.enable_crr:
        report, permutation = crr_augment(report, stream)
    return _reference_counterfactual(record, matcher, report, permutation, index, labels)


# texts no rule of the default lexicon matches
UNMATCHED_TEXTS = ["Heart size is normal.", "The lungs are clear.",
                   "Comparison is made with the prior study."]


def _recipe_outcome(fn, record, matcher, seed, cfg):
    """What *fn* gives, field by field, or its skip, or its error's type and
    message; each with the state its stream is left in."""
    stream = RngStream.for_record(seed, record.id)
    try:
        out = fn(record, matcher, stream, cfg)
    except Exception as exc:  # the two recipes must raise alike
        return (type(exc), str(exc)), stream.state
    if isinstance(out, Skip):
        return out, stream.state
    twin = out.record
    fields = [getattr(out, f.name) for f in dataclasses.fields(out)]
    firsts = None if twin.labels is None else twin.labels.firsts
    texts = None if twin.features is None else twin.features.texts
    return (fields, type(out.popped_labels), firsts, texts), stream.state


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_augment_record_draws_and_builds_as_the_three_function_recipe(
        schema, matcher, default_templates, data):
    assert not any(label_sentence(Sentence(t), matcher) for t in UNMATCHED_TEXTS)
    pool = sorted(default_templates.values()) + UNMATCHED_TEXTS
    texts = data.draw(st.lists(st.sampled_from(pool), max_size=6), label="texts")
    counterfactual = data.draw(st.booleans(), label="counterfactual")
    record = make_record(
        "r1", texts, schema, features=data.draw(st.booleans(), label="features"),
        provenance=Provenance.COUNTERFACTUAL if counterfactual else Provenance.ORIGINAL,
        source_id="r0" if counterfactual else None)
    if data.draw(st.booleans(), label="labeled"):
        record = record.with_labels(label_report(record.report, matcher))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3), label="seeds")
    for cfg in MODES.values():
        for seed in seeds:
            assert (_recipe_outcome(augment_record, record, matcher, seed, cfg)
                    == _recipe_outcome(_reference_augment_record, record, matcher, seed, cfg))
