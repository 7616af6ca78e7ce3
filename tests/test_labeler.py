import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.corpus import (
    DiseaseStatus,
    Report,
    Sentence,
    STATUS_RANK,
    make_schema,
)
from coaug.errors import DuplicateRule, MalformedRecord
from coaug.labeler import (
    CueList,
    LexiconRule,
    Matcher,
    _occurrences,
    default_lexicon_path,
    default_matcher,
    label_report,
    label_sentence,
    match_tokens,
    parse_cues,
    parse_lexicon,
    positive_diseases,
)
from coaug.metrics import tokenize

POS, NEG, UNC, UNM = (
    DiseaseStatus.POSITIVE,
    DiseaseStatus.NEGATIVE,
    DiseaseStatus.UNCERTAIN,
    DiseaseStatus.UNMENTIONED,
)


def by_name(schema, labels):
    return {schema.names[i]: status for i, status in labels.items()}


# ---------------------------------------------------------------------------
# lexicon compilation


def test_two_patterns_per_disease_ok(schema):
    rules = parse_lexicon(
        ["Pneumothorax\tpneumothorax", "Pneumothorax\tapical pneumothorax"], schema
    )
    assert len(rules) == 2


def test_unknown_disease(schema):
    with pytest.raises(MalformedRecord, match=r"line 3: unknown disease 'Dragon Pox'") as err:
        parse_lexicon(["Edema\tedema", "# comment", "Dragon Pox\tdragon pox"], schema)
    assert err.value.line == 3


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


# the matcher keys a cue by its tokens, so "free-of" is the cue "free of"
@pytest.mark.parametrize("negation", ["free of", "free-of", "Free  of"])
def test_a_cue_shared_by_its_tokens_reports_its_line(tmp_path, schema, capsys, negation):
    from coaug.cli import EXIT_DATA, run
    from coaug.corpus import Corpus, write_corpus
    from conftest import make_record

    lines = ["window=6", f"neg\t{negation}", "unc\tfree of"]
    message = "line 3: negation and uncertainty cues must be disjoint"
    with pytest.raises(MalformedRecord, match=message) as err:
        parse_cues(lines)
    assert err.value.line == 3
    cues, corpus = tmp_path / "cues.tsv", tmp_path / "c.jsonl"
    cues.write_text("\n".join(lines) + "\n")
    write_corpus(Corpus(schema, (make_record("r0", ["Free of effusion."], schema),)), str(corpus))
    assert run(["--quiet", "label", "--corpus", str(corpus), "--cues", str(cues),
                "--out", str(tmp_path / "l.jsonl")]) == EXIT_DATA
    assert f"error: {cues}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "l.jsonl").exists()


@pytest.mark.parametrize("negation, uncertainty", [(("free-of",), ("free of",)),
                                                    (("no", "free of"), ("FREE OF",))])
def test_cue_lists_with_the_same_tokens_are_not_disjoint(negation, uncertainty):
    with pytest.raises(ValueError, match="negation and uncertainty cues must be disjoint"):
        CueList(negation, uncertainty)


def test_compilation_order_independent(schema, matcher):
    with open(default_lexicon_path(), encoding="utf-8") as fh:
        lines = fh.readlines()
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


def test_a_cleared_memo_changes_no_label(schema, default_templates, monkeypatch):
    # a memo of 4 texts is cleared many times over three passes in different orders
    import coaug.labeler as labeler

    monkeypatch.setattr(labeler, "_MEMO_TEXTS", 4)
    texts = sorted(set(default_templates.values())) + CUE_SENTENCES
    fresh = {text: dict(default_matcher(schema).label_text(text)) for text in texts}
    matcher = default_matcher(schema)
    shared: dict[tuple, set[int]] = {}  # outcome -> ids of the mappings returned for it
    for order in range(3):
        for text in random.Random(order).sample(texts, len(texts)):
            labels = label_sentence(Sentence(text), matcher)
            assert dict(labels) == fresh[text]
            assert len(matcher._memo) <= 4
            shared.setdefault(tuple(labels.items()), set()).add(id(labels))
    assert all(len(ids) == 1 for ids in shared.values())
    assert len(shared) == len({tuple(labels.items()) for labels in fresh.values()})
    assert matcher.counts()["distinct_texts"] > len(texts)  # cleared texts were scanned again


def test_counts_are_the_distinct_texts_of_a_corpus_that_fits_the_memo(schema, default_templates):
    texts = sorted(set(default_templates.values())) + CUE_SENTENCES
    matcher = default_matcher(schema)
    reports = [Report.from_texts(texts[k:k + 5]) for k in range(0, len(texts), 3)]
    for report in reports + reports:
        label_report(report, matcher)
    unmatched = sum(not default_matcher(schema).label_text(text) for text in texts)
    assert 0 < unmatched < len(texts)
    assert matcher.counts() == {"sentences": 2 * sum(map(len, reports)),
                                "distinct_texts": len(texts), "unmatched_texts": unmatched}


def test_the_positive_diseases_of_a_report_are_those_its_labels_mark_positive(
        schema, default_templates):
    texts = sorted(set(default_templates.values())) + CUE_SENTENCES
    matcher = default_matcher(schema)
    seen = set()
    for k in range(0, len(texts), 4):
        report = Report.from_texts(texts[k:k + 6] + texts[k:k + 2])
        statuses = label_report(report, matcher).statuses
        positive = {d for d, status in enumerate(statuses) if status is DiseaseStatus.POSITIVE}
        assert positive_diseases(map(matcher.label_text, report.texts())) == positive
        seen |= {status for status in statuses if status is not DiseaseStatus.POSITIVE}
    assert positive_diseases([]) == set()
    assert len(seen) == 3  # reports mark diseases Negative, Uncertain and not at all


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


# the labeler's loops before the cold-path early return and the scan that
# visits only the tokens that begin a phrase


def _loop_occurrences(tokens, by_first):
    for start, token in enumerate(tokens):
        for toks, value in by_first.get(token, ()):
            end = start + len(toks)
            if tokens[start:end] == toks:
                yield start, end, value


def _loop_label_tokens(matcher, tokens):
    tokens = tuple(tokens)
    best = {}
    for start, end, disease in _loop_occurrences(tokens, matcher._patterns):
        cand = (start - end, start)
        if disease not in best or cand < best[disease]:
            best[disease] = cand
    cues = list(_loop_occurrences(tokens, matcher._cues))
    labels = {}
    for disease, (_, start) in sorted(best.items()):
        lo = start - matcher.cues.window
        found = {status for s, e, status in cues if lo <= s and e <= start}
        labels[disease] = min(found, key=STATUS_RANK.get, default=POS)
    return labels


# lexicon words, cue words, and words that begin no phrase at all
_COLD_VOCAB = _VOCAB + ["heart", "size", "normal", "lungs", "clear", "apical", "pleural",
                        "lung", "opacity", "consolidation", "stable", "unchanged"]


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(_COLD_VOCAB), max_size=24))
def test_label_tokens_equals_the_loops_it_replaced(matcher, tokens):
    for by_first in (matcher._patterns, matcher._cues):
        assert (list(_occurrences(tuple(tokens), by_first))
                == list(_loop_occurrences(tuple(tokens), by_first)))
    assert matcher.label_tokens(tokens) == _loop_label_tokens(matcher, tokens)


def test_threads_sharing_a_matcher_get_the_fresh_labels(schema, default_templates, monkeypatch):
    import sys
    import threading

    import coaug.labeler as labeler

    texts = sorted(set(default_templates.values())) + CUE_SENTENCES
    expected = {t: default_matcher(schema).label_tokens(match_tokens(t)) for t in texts}
    outcomes = {tuple(labels.items()) for labels in expected.values()}
    # in a memo of 4 texts the threads also clear it under each other
    for memo_texts in (labeler._MEMO_TEXTS, 4):
        monkeypatch.setattr(labeler, "_MEMO_TEXTS", memo_texts)
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
        assert len({id(label_sentence(Sentence(t), matcher)) for t in texts}) == len(outcomes)


# ---------------------------------------------------------------------------
# words from the metric tokens of ``coaug evaluate``

_ASCII_CHARS = st.sampled_from(string.ascii_letters + string.digits + string.punctuation
                               + " _\t\n") | st.characters(max_codepoint=127)


@settings(max_examples=500, deadline=None)
@given(text=st.text(_ASCII_CHARS, max_size=60))
def test_ascii_words_are_the_alphanumeric_metric_tokens(text):
    assert list(filter(str.isalnum, tokenize(text))) == match_tokens(text)


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(_COLD_VOCAB + ["no_", "(no)", "effusion.", "\t", "\n"]),
                      max_size=20))
def test_labels_from_metric_tokens_equal_a_fresh_scan(schema, words):
    text = " ".join(words)
    assert default_matcher(schema).label_text(text, tokenize(text)) == \
        default_matcher(schema).label_text(text)


# each holds a non-ASCII letter or digit, or one that lowercases to ASCII
@pytest.mark.parametrize("text", ["Noé pleural effusion.", "Noß pneumothorax.", "No² effusion.",
                                  "İs there no effusion?", "\u212a: no pneumothorax."])
def test_a_non_ascii_text_is_labeled_by_the_word_regex(schema, text):
    words = match_tokens(text)
    fresh = default_matcher(schema).label_text(text)
    assert default_matcher(schema).label_text(text, tokenize(text)) == fresh
    if any(c in text for c in "éß²"):  # there the alphanumeric tokens are other words
        assert list(filter(str.isalnum, tokenize(text))) != words
        assert set(fresh.values()) == {NEG}
