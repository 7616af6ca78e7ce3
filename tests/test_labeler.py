import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.corpus import (
    DiseaseStatus,
    Report,
    Sentence,
    STATUS_RANK,
    make_schema,
    read_lines,
)
from coaug.errors import DuplicateRule, MalformedRecord, UnknownDisease
from coaug.labeler import (
    CueList,
    LexiconRule,
    Matcher,
    default_lexicon_path,
    default_matcher,
    label_report,
    label_sentence,
    match_tokens,
    parse_cues,
    parse_lexicon,
    segment,
)

POS, NEG, UNC, UNM = (
    DiseaseStatus.POSITIVE,
    DiseaseStatus.NEGATIVE,
    DiseaseStatus.UNCERTAIN,
    DiseaseStatus.UNMENTIONED,
)


def by_name(schema, labels):
    return {schema.names[i]: status for i, status in labels.items()}


# ---------------------------------------------------------------------------
# segmentation


def test_segment_empty():
    assert len(segment("")) == 0


def test_segment_two_sentences():
    report = segment("No pneumothorax. Heart size is normal.")
    assert report.texts() == ["No pneumothorax.", "Heart size is normal."]


def test_segment_decimal_is_not_a_boundary():
    report = segment("Effusion measures 1.2 cm.")
    assert report.texts() == ["Effusion measures 1.2 cm."]


def test_segment_abbreviation_guard():
    report = segment("Seen by Dr. Smith at 9 a.m. yesterday. Lungs stable.")
    assert report.texts() == ["Seen by Dr. Smith at 9 a.m. yesterday.", "Lungs stable."]


def test_segment_exclamation_and_question():
    report = segment("Stable! Improving? Yes.")
    assert report.texts() == ["Stable!", "Improving?", "Yes."]


def test_segment_trailing_fragment_without_terminal():
    report = segment("First sentence. trailing words")
    assert report.texts() == ["First sentence.", "trailing words"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcdefg ", min_size=1, max_size=12).map(
            lambda s: (s.strip() or "x") + "."
        ),
        min_size=0,
        max_size=6,
    )
)
def test_segment_fixed_point(texts):
    first = segment(" ".join(texts))
    again = segment(" ".join(first.texts()))
    assert again.texts() == first.texts()


# ---------------------------------------------------------------------------
# lexicon compilation


def test_two_patterns_per_disease_ok(schema):
    rules = parse_lexicon(
        ["Pneumothorax\tpneumothorax", "Pneumothorax\tapical pneumothorax"], schema
    )
    assert len(rules) == 2


def test_unknown_disease(schema):
    with pytest.raises(UnknownDisease):
        parse_lexicon(["Dragon Pox\tdragon pox"], schema)


def test_duplicate_rule(schema):
    with pytest.raises(DuplicateRule):
        parse_lexicon(
            ["Pneumothorax\tpneumothorax", "Pneumothorax\tpneumothorax"], schema
        )


def test_rules_with_the_same_tokens_are_duplicates_named_by_line(schema):
    # the matcher compares tokens, so "pulmonary-edema" repeats "pulmonary edema"
    with pytest.raises(DuplicateRule, match="line 3"):
        parse_lexicon(["Edema\tpulmonary edema", "# comment", "Edema\tpulmonary-edema"],
                      schema)


def test_pattern_longer_than_five_tokens_reports_its_line(schema):
    with pytest.raises(MalformedRecord) as err:
        parse_lexicon(["Edema\tedema", "# comment",
                       "Pneumothorax\tone two three four five six"], schema)
    assert err.value.line == 3


def test_cue_without_word_tokens_reports_its_line():
    with pytest.raises(MalformedRecord) as err:
        parse_cues(["window=6", "neg\tno", "unc\t??"])
    assert err.value.line == 3


def test_cue_lists_must_be_disjoint():
    with pytest.raises(Exception):
        parse_cues(["window=6", "neg\tno", "unc\tno"])


@pytest.mark.parametrize("lines, line", [
    (["neg\tno", "window=0"], 2),
    (["window=6", "neg\tno", "# comment", "unc\tno"], 4),
    (["unc\tmay", "neg\tmay"], 2),
], ids=["window-zero", "neg-then-unc", "unc-then-neg"])
def test_bad_window_and_shared_cue_report_their_line(lines, line):
    with pytest.raises(MalformedRecord) as err:
        parse_cues(lines)
    assert err.value.line == line


def test_compilation_order_independent(schema, matcher):
    lines = read_lines(default_lexicon_path())
    shuffled = list(lines)
    random.Random(0).shuffle(shuffled)
    rules = parse_lexicon(shuffled, schema)
    cues = parse_cues(["window=6", "neg\tno", "neg\twithout", "unc\tmay"])
    other = Matcher(schema, rules, cues)
    sentence = Sentence("No pneumothorax or pleural effusion.")
    assert label_sentence(sentence, other) == label_sentence(
        sentence, Matcher(schema, parse_lexicon(lines, schema), cues)
    )


# ---------------------------------------------------------------------------
# sentence labeling


def test_positive_mention(schema, matcher):
    labels = label_sentence(Sentence("There is a small right pleural effusion."), matcher)
    assert by_name(schema, labels) == {"Pleural Effusion": POS}


def test_negated_pair(schema, matcher):
    labels = label_sentence(Sentence("No pneumothorax or pleural effusion."), matcher)
    assert by_name(schema, labels) == {"Pneumothorax": NEG, "Pleural Effusion": NEG}


def test_no_match(matcher):
    assert label_sentence(Sentence("Patient is comfortable."), matcher) == {}


def test_uncertainty_cue(schema, matcher):
    labels = label_sentence(Sentence("Cannot exclude pneumonia."), matcher)
    assert by_name(schema, labels) == {"Pneumonia": UNC}


def test_negation_beats_uncertainty(schema, matcher):
    labels = label_sentence(Sentence("Likely no pneumothorax."), matcher)
    assert by_name(schema, labels) == {"Pneumothorax": NEG}


def test_cue_outside_window_is_ignored(schema):
    rules = parse_lexicon(["Pneumothorax\tpneumothorax"], schema)
    cues = CueList(("no",), (), window=2)
    matcher = Matcher(schema, rules, cues)
    labels = label_sentence(
        Sentence("No significant change in the small apical pneumothorax."), matcher
    )
    assert by_name(schema, labels) == {"Pneumothorax": POS}


def test_longest_match_wins(schema, matcher):
    # "pleural effusion" (2 tokens) must beat the bare "effusion" rule,
    # so the cue window is anchored at "pleural", not "effusion"
    labels = label_sentence(Sentence("Unchanged small left pleural effusion."), matcher)
    assert by_name(schema, labels) == {"Pleural Effusion": POS}


# ---------------------------------------------------------------------------
# report labeling


def test_precedence_positive_beats_negative(schema, matcher):
    report = Report.from_texts(
        ["No pleural effusion is present.", "There is a small right pleural effusion."]
    )
    labels = label_report(report, matcher)
    assert labels.statuses[schema.index_of("Pleural Effusion")] is POS


def test_empty_report_all_unmentioned(schema, matcher):
    labels = label_report(Report(), matcher)
    assert set(labels.statuses) == {UNM}


def test_label_report_order_invariant_exhaustive(schema, matcher):
    import itertools

    texts = [
        "No pneumothorax is seen.",
        "There is a small right pleural effusion.",
        "Cannot exclude pneumonia.",
        "The heart is enlarged.",
    ]
    expected = label_report(Report.from_texts(texts), matcher)
    for perm in itertools.permutations(texts):
        assert label_report(Report.from_texts(list(perm)), matcher) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_label_report_order_invariant_property(schema, matcher, default_templates, data):
    pool = list(default_templates.values())
    texts = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=8))
    perm = data.draw(st.permutations(texts))
    assert label_report(Report.from_texts(texts), matcher) == label_report(
        Report.from_texts(list(perm)), matcher
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adding_a_sentence_never_lowers_status(schema, matcher, default_templates, data):
    pool = list(default_templates.values())
    texts = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=6))
    extra = data.draw(st.sampled_from(pool))
    before = label_report(Report.from_texts(texts), matcher)
    after = label_report(Report.from_texts(texts + [extra]), matcher)
    for old, new in zip(before.statuses, after.statuses):
        assert STATUS_RANK[new] >= STATUS_RANK[old]


def test_determinism(schema, matcher):
    sentence = Sentence("No pneumothorax or pleural effusion.")
    assert label_sentence(sentence, matcher) == label_sentence(sentence, matcher)


# ---------------------------------------------------------------------------
# memoized labels and the cue scan


CUE_SENTENCES = [
    "No pneumothorax or pleural effusion.",
    "No evidence of focal consolidation or pneumothorax.",
    "Free of pleural effusion, possible small pneumothorax.",
    "Cannot exclude pneumonia; likely atelectasis.",
    "Possibly no change in the moderate cardiomegaly.",
    "There is no pneumothorax but the pleural effusion may be larger.",
    "Suspicious for pulmonary edema without pleural effusion.",
    "Could represent atelectasis, not pneumonia.",
    "Patient is comfortable.",
]


def test_memoized_labels_equal_a_fresh_scan(schema, default_templates):
    matcher = default_matcher(schema)
    texts = sorted(set(default_templates.values())) + CUE_SENTENCES
    for text in texts:
        fresh = matcher.label_tokens(match_tokens(text))
        first = label_sentence(Sentence(text), matcher)
        second = label_sentence(Sentence(text), matcher)
        assert dict(first) == fresh
        assert dict(second) == fresh
        assert second is first


def test_returned_labels_cannot_change_a_later_lookup(schema):
    matcher = default_matcher(schema)
    sentence = Sentence("No pneumothorax or pleural effusion.")
    expected = matcher.label_tokens(match_tokens(sentence.text))
    labels = label_sentence(sentence, matcher)
    with pytest.raises(TypeError):
        labels[schema.index_of("Edema")] = POS
    with pytest.raises(TypeError):
        del labels[schema.index_of("Pneumothorax")]
    assert dict(label_sentence(sentence, matcher)) == expected
    empty = label_sentence(Sentence("Patient is comfortable."), matcher)
    with pytest.raises(TypeError):
        empty[0] = POS
    assert dict(label_sentence(Sentence("Heart size is normal."), matcher)) == {}


def _cue_in_window(tokens, match_start, cue_seqs, window):
    """The labeler's original cue test: every window position x cue."""
    lo = max(0, match_start - window)
    for pos in range(lo, match_start):
        for cue in cue_seqs:
            end = pos + len(cue)
            if end <= match_start and tuple(tokens[pos:end]) == cue:
                return True
    return False


def _reference_label_tokens(matcher, tokens):
    best = {}
    for rule in matcher.rules:
        toks = tuple(match_tokens(rule.pattern))
        for start in range(len(tokens)):
            if tuple(tokens[start:start + len(toks)]) == toks:
                cand = (-len(toks), start)
                if rule.disease_index not in best or cand < best[rule.disease_index]:
                    best[rule.disease_index] = cand
    neg = tuple(tuple(match_tokens(c)) for c in matcher.cues.negation)
    unc = tuple(tuple(match_tokens(c)) for c in matcher.cues.uncertainty)
    labels = {}
    for disease, (_, start) in sorted(best.items()):
        if _cue_in_window(tokens, start, neg, matcher.cues.window):
            labels[disease] = NEG
        elif _cue_in_window(tokens, start, unc, matcher.cues.window):
            labels[disease] = UNC
        else:
            labels[disease] = POS
    return labels


_VOCAB = ["no", "not", "evidence", "of", "free", "may", "possible", "cannot", "exclude",
          "pleural", "effusion", "pneumothorax", "small", "right", "the", "is", "or", "edema"]
_PHRASES = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=3).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(_VOCAB), max_size=20),
    negation=st.lists(_PHRASES, max_size=4, unique=True),
    uncertainty=st.lists(_PHRASES, max_size=4, unique=True),
    window=st.integers(min_value=1, max_value=8),
)
def test_cue_positions_agree_with_the_window_scan(schema, matcher, tokens, negation,
                                                   uncertainty, window):
    uncertainty = [c for c in uncertainty if c not in negation]
    cues = CueList(tuple(negation), tuple(uncertainty), window)
    other = Matcher(schema, list(matcher.rules), cues)
    assert other.label_tokens(tokens) == _reference_label_tokens(other, tokens)


def test_default_cues_agree_with_the_window_scan(schema, default_templates, matcher):
    for text in sorted(set(default_templates.values())) + CUE_SENTENCES:
        tokens = match_tokens(text)
        assert matcher.label_tokens(tokens) == _reference_label_tokens(matcher, tokens)


def test_threads_sharing_a_matcher_get_the_fresh_labels(schema, default_templates):
    import sys
    import threading

    texts = sorted(set(default_templates.values())) + CUE_SENTENCES
    expected = {t: default_matcher(schema).label_tokens(match_tokens(t)) for t in texts}
    matcher = default_matcher(schema)
    wrong = []

    def work(offset):
        for k in range(400):
            text = texts[(offset + k) % len(texts)]
            if dict(label_sentence(Sentence(text), matcher)) != expected[text]:
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []
    # one shared mapping per distinct outcome
    outcomes = {tuple(labels.items()) for labels in expected.values()}
    assert len({id(label_sentence(Sentence(t), matcher)) for t in texts}) == len(outcomes)
