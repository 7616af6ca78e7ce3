"""coaug: counterfactual corpus augmentation and co-occurrence
confounder analysis for paired per-disease feature / report datasets."""

from .augment import (
    AugmentationConfig,
    AugmentationOutcome,
    AugmentSummary,
    Skip,
    augment_dataset,
    augment_record,
    crr_augment,
    css_augment,
)
from .confound import (
    AssociationStats,
    ContingencyTable,
    OrderAsymmetry,
    SimpsonReport,
    StratifiedTables,
    association_stats,
    build_contingency,
    co_mention_lift,
    conditional_probability,
    detect_simpson_reversal,
    odds_ratio,
    order_asymmetry,
)
from .corpus import (
    Corpus,
    DiseaseStatus,
    FeatureBundle,
    FeatureVector,
    LabelSchema,
    Provenance,
    Record,
    Report,
    ReportLabelVector,
    Sentence,
    default_schema,
    make_schema,
    read_corpus,
    read_schema,
    validate_record,
    write_corpus,
    write_schema,
)
from .labeler import (
    CueList,
    LexiconRule,
    Matcher,
    compile_lexicon,
    default_matcher,
    label_corpus,
    label_report,
    label_sentence,
    segment,
)
from .metrics import (
    CeScores,
    ConfusionCounts,
    bleu4,
    bleu_stats,
    ce_confusion,
    ce_scores,
    macro_ce_scores,
    rouge_l,
)
from .rng import RngStream, fnv1a64, mix64
from .synth import (
    OrderPolicy,
    PlantedPair,
    SynthConfig,
    parse_scenario,
    render_report,
    sample_features,
    synth_generate,
)

__version__ = "0.1.0"
