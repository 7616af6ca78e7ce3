import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.augment import (
    ORPHAN_MENTION,
    AugmentationConfig,
    Skip,
    augment_dataset,
    augment_record,
    crr_augment,
    css_augment,
)
from coaug.corpus import (
    Corpus,
    DiseaseStatus,
    Provenance,
    Report,
)
from coaug.errors import ConfigInvalid, MissingFeatures
from coaug.labeler import label_corpus, label_report, label_sentence
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
    with pytest.raises(ConfigInvalid):
        AugmentationConfig(max_resample=0)


def test_css_pops_effusion_sentence(schema, matcher):
    # stream (seed=1, id="r1") draws sentence index 1 on its first try
    record = make_record("r1", CSS_TEXTS, schema)
    out = css_augment(record, matcher, RngStream.for_record(1, "r1"), AugmentationConfig())
    assert not isinstance(out, Skip)
    assert out.popped_sentence_index == 1
    assert out.masked_indices == {schema.index_of("Pleural Effusion")}
    assert out.record.report.texts() == ["No pneumothorax.", "Heart size is normal."]
    vec = out.record.features.per_disease[schema.index_of("Pleural Effusion")]
    assert vec.masked and set(vec.values) == {0.0}
    untouched = out.record.features.per_disease[0]
    assert not untouched.masked and untouched.values[0] == 0.25
    assert out.record.provenance is Provenance.COUNTERFACTUAL
    assert out.record.source_id == "r1"
    assert out.record.id == "r1#cf"
    assert out.flags == frozenset()


def test_css_single_sentence_skips(schema, matcher):
    record = make_record("r1", ["No pneumothorax."], schema)
    out = css_augment(record, matcher, RngStream.for_record(0, "r1"), AugmentationConfig())
    assert isinstance(out, Skip)
    assert out.reason == "below-min-sentences"


def test_css_merged_normal_sentence_masks_both(schema, matcher):
    texts = [
        "The lungs are clear without effusion or pneumothorax.",
        "The heart is enlarged.",
    ]
    record = make_record("r1", texts, schema)
    cfg = AugmentationConfig()
    # find a stream that pops sentence 0 (both diseases merged into it)
    for seed in range(50):
        out = css_augment(record, matcher, RngStream.for_record(seed, "r1"), cfg)
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
        css_augment(record, matcher, RngStream.for_record(0, "r1"), AugmentationConfig())


def test_css_skips_when_nothing_labelable(schema, matcher):
    record = make_record("r1", ["Patient is comfortable.", "Patient is resting."], schema)
    out = css_augment(record, matcher, RngStream.for_record(0, "r1"), AugmentationConfig())
    assert isinstance(out, Skip)
    assert out.reason == "no-labelable-sentence"


def test_css_orphan_mention_flag(schema, matcher):
    texts = [
        "There is a small right pleural effusion.",
        "The pleural effusion is unchanged.",
    ]
    record = make_record("r1", texts, schema)
    out = css_augment(record, matcher, RngStream.for_record(0, "r1"), AugmentationConfig())
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
    assert not any(v.masked for v in out.record.features.per_disease)
    assert sorted(out.record.report.texts()) == sorted(CSS_TEXTS)


def test_augment_record_css_only_two_sentences(schema, matcher):
    record = make_record("r1", ["No pneumothorax.", "Small right pleural effusion."], schema)
    cfg = AugmentationConfig(enable_crr=False)
    out = augment_record(record, matcher, RngStream.for_record(2, "r1"), cfg)
    assert not isinstance(out, Skip)
    assert len(out.record.report) == 1
    assert out.permutation == (0,)


# ---------------------------------------------------------------------------
# dataset level


def _synth_corpus(schema, n, seed=3, mention_negative=1.0):
    from coaug.synth import default_scenario_path, parse_scenario

    base = parse_scenario(default_scenario_path(), schema)
    cfg = dataclasses.replace(
        base, n_records=n, seed=seed, mention_negative=mention_negative, noise_sigma=0.0
    )
    return synth_generate(cfg, schema)


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
        if len(record.report) < cfg.min_sentences:
            continue
        out = augment_record(record, matcher, RngStream.for_record(cfg.seed, record.id), cfg)
        if isinstance(out, Skip):
            continue
        # mask pairing: masked features are exactly the popped labels
        assert out.masked_indices == set(out.popped_labels)
        masked_in_bundle = {
            i for i, v in enumerate(out.record.features.per_disease) if v.masked
        }
        assert masked_in_bundle == out.masked_indices
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
    relabeled = label_corpus(augmented, matcher, keep_existing=True)
    lift_after = co_mention_lift(relabeled, 8, 9)
    assert lift_before - lift_after > 0.06
