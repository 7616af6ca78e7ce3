"""coaug: counterfactual corpus augmentation and co-occurrence
confounder analysis for paired per-disease feature / report datasets.

Its names are served from their modules on first use (PEP 562), so a
command loads only the modules it uses."""

from importlib import import_module

_NAMES = {
    "augment": "AugmentationConfig AugmentationOutcome AugmentSummary Skip augment_dataset"
               " augment_record crr_augment css_augment",
    "confound": "AssociationStats ContingencyTable OrderAsymmetry SimpsonReport"
                " StratifiedTables association_stats build_contingency co_mention_lift"
                " conditional_probability detect_simpson_reversal odds_ratio order_asymmetry",
    "corpus": "Corpus DiseaseStatus FeatureBundle LabelSchema Provenance Record Report"
              " ReportLabelVector Sentence default_schema make_schema read_corpus read_schema"
              " validate_record write_corpus write_schema",
    "labeler": "CueList LexiconRule Matcher compile_lexicon default_matcher label_corpus"
               " label_report label_sentence",
    "metrics": "CeScores ConfusionCounts bleu4 bleu_stats ce_confusion ce_scores"
               " macro_ce_scores rouge_l",
    "rng": "RngStream fnv1a64 mix64",
    "synth": "OrderPolicy PlantedPair SynthConfig parse_scenario render_report"
             " sample_features synth_generate",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
