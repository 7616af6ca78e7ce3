import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.corpus import DiseaseStatus, Report, ReportLabelVector
from coaug.errors import LengthMismatch, SchemaMismatch
from coaug.metrics import (
    ConfusionCounts,
    EmptyInput,
    bleu4,
    _lcs_length,
    bleu_pair_counts,
    bleu_shared_counts,
    bleu_stats,
    ce_confusion,
    ce_confusion_per_disease,
    ce_scores,
    macro_ce_scores,
    pair_tokens,
    report_tokens,
    rouge_l,
    tokenize,
)

POS, NEG, UNC, UNM = (
    DiseaseStatus.POSITIVE,
    DiseaseStatus.NEGATIVE,
    DiseaseStatus.UNCERTAIN,
    DiseaseStatus.UNMENTIONED,
)


def vec(*statuses):
    return ReportLabelVector(tuple(statuses) + (UNM,) * (14 - len(statuses)))


def test_tokenizer_splits_punctuation():
    assert tokenize("No pneumothorax.") == ["no", "pneumothorax", "."]
    assert tokenize("A 1.2 cm effusion!") == ["a", "1", ".", "2", "cm", "effusion", "!"]


def test_tokenizer_keeps_non_ascii_letters_and_underscores():
    assert tokenize("Café, naïve _x_") == ["café", ",", "naïve", "_", "x", "_"]


def _regex_tokenize(text):
    """The one-regex tokenizer that the whitespace-chunk fast path replaced."""
    return re.findall(r"[^\W_]+|\S", text.lower())


@settings(max_examples=500, deadline=None)
@given(st.text() | st.text(alphabet=st.sampled_from(list("ab1 _.,-\t\n\xa0\u2003é²ⅫİK\u0307"))))
def test_tokenize_equals_the_one_regex_tokenizer(text):
    assert tokenize(text) == _regex_tokenize(text)


# ---------------------------------------------------------------------------
# confusion counts and scores


def test_identity_has_no_errors():
    gold = [vec(POS, NEG), vec(UNC, POS)]
    counts = ce_confusion(gold, gold)
    assert counts.fp == 0 and counts.fn == 0
    assert counts.total == 28


def test_hand_counted_cells():
    gold = [vec(POS, NEG)]
    gen = [vec(POS, POS)]
    counts = ce_confusion(gold, gen)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 0, 12)


def test_all_unmentioned_generation():
    gold = [vec(POS, POS, NEG), vec(POS)]
    gen = [vec(), vec()]
    counts = ce_confusion(gold, gen)
    assert counts.tp == 0
    assert counts.fn == 3


def test_uncertain_binarizes_to_zero():
    counts = ce_confusion([vec(UNC)], [vec(UNC)])
    assert counts.tp == 0 and counts.tn == 14


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        ce_confusion([vec()], [vec(), vec()])


@pytest.mark.parametrize("sizes", [(14, 13), (13, 14)])
def test_schema_size_must_agree_across_all_pairs(sizes):
    # each pair agrees with itself; the two pairs disagree with each other
    vectors = [ReportLabelVector((POS,) + (UNM,) * (n - 1)) for n in sizes]
    for count in (ce_confusion, ce_confusion_per_disease):
        with pytest.raises(SchemaMismatch):
            count(vectors, vectors)


def _loop_ce_confusion_per_disease(gold, gen):
    """The per-pair, per-disease branch loop that ``CeTally`` replaced."""
    cells = [[0, 0, 0, 0] for _ in gold[0].statuses]
    for g, h in zip(gold, gen):
        for i, (sg, sh) in enumerate(zip(g.statuses, h.statuses)):
            pg, ph = sg is POS, sh is POS
            cells[i][0 if (pg and ph) else 1 if ph else 2 if pg else 3] += 1
    return [ConfusionCounts(*c) for c in cells]


_VECTORS = st.lists(st.sampled_from([POS, NEG, UNC, UNM]), min_size=14, max_size=14).map(
    lambda statuses: ReportLabelVector(tuple(statuses)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_per_disease_cells_equal_the_branch_loop(data):
    gold = data.draw(st.lists(_VECTORS, min_size=1, max_size=8))
    gen = data.draw(st.lists(_VECTORS, min_size=len(gold), max_size=len(gold)))
    assert ce_confusion_per_disease(gold, gen) == _loop_ce_confusion_per_disease(gold, gen)


def test_a_pair_of_vectors_of_different_sizes_is_a_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        ce_confusion_per_disease([vec(POS)], [ReportLabelVector((POS,) * 13)])


def test_scores_hand_case():
    scores = ce_scores(ConfusionCounts(1, 1, 0, 12))
    assert scores.precision == 0.5
    assert scores.recall == 1.0
    assert scores.f1 == pytest.approx(2 / 3)
    assert scores.accuracy == pytest.approx(13 / 14)


def test_scores_perfect():
    scores = ce_scores(ConfusionCounts(5, 0, 0, 9))
    assert (scores.accuracy, scores.precision, scores.recall, scores.f1) == (1, 1, 1, 1)


def test_scores_zero_denominator_rule():
    scores = ce_scores(ConfusionCounts(0, 0, 3, 11))
    assert scores.precision == 0.0
    assert scores.recall == 0.0
    assert scores.f1 == 0.0


def test_scores_empty_input():
    with pytest.raises(EmptyInput):
        ce_scores(ConfusionCounts())


def test_macro_scores_average_per_disease():
    gold = [vec(POS, NEG)]
    gen = [vec(POS, POS)]
    per = ce_confusion_per_disease(gold, gen)
    assert len(per) == 14
    macro = macro_ce_scores(per)
    # disease 0: perfect; disease 1: fp; rest: all tn
    assert macro.precision == pytest.approx((1.0 + 0.0 + 12 * 0.0) / 14)
    assert macro.accuracy == pytest.approx((1.0 + 0.0 + 12 * 1.0) / 14)


def test_macro_scores_add_left_to_right_on_every_python():
    # from CPython 3.12 on, sum() compensates float additions: these three
    # F1 values sum to ...392 there and to ...918 left to right, as on 3.11
    cells = [ConfusionCounts(2, 5, 8, 6), ConfusionCounts(9, 3, 4, 4),
             ConfusionCounts(8, 8, 6, 9)]
    f1 = [ce_scores(c).f1 for c in cells]
    assert macro_ce_scores(cells).f1 == ((0.0 + f1[0]) + f1[1] + f1[2]) / 3
    assert macro_ce_scores(cells).f1 == 1.4886274509803918 / 3


@settings(max_examples=300, deadline=None)
@given(
    counts=st.tuples(*([st.integers(min_value=0, max_value=50)] * 4)),
)
def test_f1_bounds_fuzz(counts):
    c = ConfusionCounts(*counts)
    if c.total == 0:
        return
    s = ce_scores(c)
    assert 0.0 <= s.accuracy <= 1.0
    assert 0.0 <= s.precision <= 1.0
    assert 0.0 <= s.recall <= 1.0
    low = min(s.precision, s.recall)
    assert s.f1 <= 2 * low / (1 + low) + 1e-12


# ---------------------------------------------------------------------------
# BLEU


def R(*texts):
    return Report.from_texts(list(texts))


def test_bleu_identity():
    gold = [R("the heart is enlarged today")]
    assert bleu4(gold, gold) == 1.0


def test_bleu_no_shared_fourgram_is_zero():
    gold = [R("alpha beta gamma delta epsilon")]
    gen = [R("alpha beta gamma zeta epsilon")]
    assert bleu4(gold, gen) == 0.0


def test_bleu_clipped_unigram_case():
    gold = [R("the cat is on the mat")]
    gen = [R("the cat the cat on mat")]
    precisions, _, _ = bleu_stats(gold, gen)
    assert precisions[0] == pytest.approx(5 / 6)


def test_bleu_brevity_penalty():
    gold = [R("a b c d e f g h")]
    gen = [R("a b c d")]
    _, bp, _ = bleu_stats(gold, gen)
    assert bp == pytest.approx(math.exp(1 - 8 / 4), rel=1e-9)


def test_bleu_length_mismatch():
    with pytest.raises(LengthMismatch):
        bleu4([R("a")], [R("a"), R("b")])


# ---------------------------------------------------------------------------
# ROUGE-L


def test_rouge_identity():
    gold = [R("the lungs are clear")]
    assert rouge_l(gold, gold) == pytest.approx(1.0)


def test_rouge_hand_case():
    gold = [R("a b c d")]
    gen = [R("a c d")]
    assert rouge_l(gold, gen) == pytest.approx(0.8356164, abs=1e-4)


def test_rouge_disjoint_is_zero():
    gold = [R("alpha beta gamma")]
    gen = [R("delta epsilon zeta")]
    assert rouge_l(gold, gen) == 0.0


def test_rouge_length_mismatch():
    with pytest.raises(LengthMismatch):
        rouge_l([R("a")], [])


# ---------------------------------------------------------------------------
# order sensitivity: the divergence between label scores and text scores


def test_label_scores_order_invariant_but_bleu_not(schema, matcher):
    from coaug.labeler import label_report

    original = R("No pneumothorax is seen.", "There is a small right pleural effusion.")
    permuted = R("There is a small right pleural effusion.", "No pneumothorax is seen.")
    gold = [original]

    labels_orig = [label_report(original, matcher)]
    labels_perm = [label_report(permuted, matcher)]
    assert ce_confusion(labels_orig, labels_orig) == ce_confusion(labels_orig, labels_perm)

    assert bleu4(gold, [original]) == 1.0
    assert bleu4(gold, [permuted]) < 1.0
    assert rouge_l(gold, [permuted]) < rouge_l(gold, [original])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_scores_stay_in_unit_interval(data):
    words = st.sampled_from("the lungs heart effusion clear normal is are no".split())
    texts = data.draw(
        st.lists(st.lists(words, min_size=1, max_size=8).map(" ".join), min_size=1, max_size=4)
    )
    other = data.draw(
        st.lists(st.lists(words, min_size=1, max_size=8).map(" ".join),
                 min_size=len(texts), max_size=len(texts))
    )
    gold = [R(t) for t in texts]
    gen = [R(t) for t in other]
    assert 0.0 <= bleu4(gold, gen) <= 1.0
    assert 0.0 <= rouge_l(gold, gen) <= 1.0


# ---------------------------------------------------------------------------
# the bit-parallel LCS and the Counter clip against the algorithms they replaced


def _dp_lcs_length(a, b):
    """The O(|a|*|b|) dynamic program that ``_lcs_length`` replaced."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _dict_bleu_stats(gold, gen):
    """``bleu_stats`` with the dict n-gram counts and the per-n-gram clip it
    used before the Counter clip."""
    def ngram_counts(tokens, n):
        counts = {}
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i:i + n])
            counts[gram] = counts.get(gram, 0) + 1
        return counts

    matches, totals = [0] * 4, [0] * 4
    ref_len = cand_len = 0
    for ref_report, cand_report in zip(gold, gen):
        ref, cand = report_tokens(ref_report), report_tokens(cand_report)
        ref_len += len(ref)
        cand_len += len(cand)
        for n in range(1, 5):
            cand_counts = ngram_counts(cand, n)
            if not cand_counts:
                continue
            ref_counts = ngram_counts(ref, n)
            totals[n - 1] += sum(cand_counts.values())
            matches[n - 1] += sum(min(count, ref_counts.get(gram, 0))
                                  for gram, count in cand_counts.items())
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if cand_len == 0:
        return precisions, 0.0, 0.0
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    if any(p == 0.0 for p in precisions):
        return precisions, bp, 0.0
    return precisions, bp, bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)


# lengths on both sides of CPython's 30-bit int digits and of 64- and 128-bit
# words, plus any other length up to 200
_LENGTHS = (st.sampled_from([0, 1, 29, 30, 31, 60, 61, 63, 64, 65, 127, 128, 129, 200])
            | st.integers(0, 200))


def _draw_tokens(data, alphabet):
    n = data.draw(_LENGTHS)
    return data.draw(st.lists(alphabet, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lcs_length_equals_the_dynamic_program(data):
    alphabet = st.sampled_from("abcdef"[:data.draw(st.integers(1, 6))])
    a, b = _draw_tokens(data, alphabet), _draw_tokens(data, alphabet)
    assert _lcs_length(a, b) == _dp_lcs_length(a, b)
    assert _lcs_length(b, a) == _dp_lcs_length(a, b)


def test_lcs_length_hand_cases():
    assert _lcs_length([], ["a"]) == _lcs_length(["a"], []) == 0
    assert _lcs_length(list("abcbdab"), list("bdcaba")) == 4
    assert _lcs_length(["x"] * 130, ["x"] * 70) == 70


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bleu_stats_equals_the_dict_clip(data):
    words = st.sampled_from("a b c d e .".split()[:data.draw(st.integers(1, 6))])
    reports = st.lists(words, max_size=40).map(lambda ws: R(" ".join(ws)) if ws else R())
    gold = data.draw(st.lists(reports, min_size=1, max_size=5))
    gen = data.draw(st.lists(reports, min_size=len(gold), max_size=len(gold)))
    assert bleu_stats(gold, gen) == _dict_bleu_stats(gold, gen)


# ---------------------------------------------------------------------------
# reports that share sentences, within a side and across the two sides

# words with punctuation, "_", a final sigma ("ΑΣ" lowers to "ας") and a
# capital that lowers to two characters ("İ")
_POOL_WORDS = st.sampled_from(["the", "heart", "no", "effusion.", "clear,", "x_y", "_",
                               "ΑΣ", "ΑΣ.", "İ", "İs", "(left)", "1.2", "'s"])
# 1-14 words: the tokens of a sentence fall on both sides of 7
_POOL_SENTENCES = st.lists(_POOL_WORDS, min_size=1, max_size=14).map(" ".join)


def _shared_sentence_reports(data):
    """Gold and generated reports drawn from one small pool of sentences,
    so texts repeat within a report and across the two sides."""
    pool = data.draw(st.lists(_POOL_SENTENCES, min_size=1, max_size=6))
    reports = st.lists(st.sampled_from(pool), max_size=7).map(lambda texts: R(*texts))
    gold = data.draw(st.lists(reports, min_size=1, max_size=4))
    gen = data.draw(st.lists(reports, min_size=len(gold), max_size=len(gold)))
    return gold, gen


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bleu_stats_of_reports_sharing_sentences_equals_the_dict_clip(data):
    gold, gen = _shared_sentence_reports(data)
    assert bleu_stats(gold, gen) == _dict_bleu_stats(gold, gen)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_tokens_equal_report_tokens_and_count_the_same_bleu(data):
    gold, gen = _shared_sentence_reports(data)
    for ref_report, cand_report in zip(gold, gen):
        ref, cand, shared = pair_tokens(ref_report, cand_report)
        assert ref == report_tokens(ref_report)
        assert cand == report_tokens(cand_report)
        assert bleu_shared_counts(ref, cand, shared) == bleu_pair_counts(ref, cand)


def test_bleu_counts_of_shared_sentences_hand_case():
    seven = "The left lung is clear today."            # 7 tokens
    eight = "No pleural effusion or pneumothorax is seen."  # 8 tokens
    # 16 tokens, twice in gold and once in generated: the copies both sides
    # hold drop 1 + 9 tokens, more than the pair's 8 texts, so they are cut
    twice = "Heart size is normal, the mediastinum is stable and the hila are unremarkable today."
    gold = R(eight, twice, seven, twice)
    gen = R(twice, seven, "Mild cardiomegaly.", eight)
    ref, cand = report_tokens(gold), report_tokens(gen)
    assert (len(ref), len(cand)) == (47, 34)
    # matches for n = 1..4, then the generated report's n-gram totals: all
    # but "mild", "cardiomegaly" match; of the n-grams across the generated
    # report's three sentence edges only those of twice -> seven match
    counts = (32, 29, 27, 25, 34, 33, 32, 31)
    assert bleu_pair_counts(ref, cand) == counts
    assert bleu_shared_counts(*pair_tokens(gold, gen)) == counts
    assert _dict_bleu_stats([gold], [gen])[0] == [32 / 34, 29 / 33, 27 / 32, 25 / 31]


# ---------------------------------------------------------------------------
# the n-grams across the edges of sentences that both reports hold

# one-token words that collide across texts, so clips are partial
_EDGE_WORDS = st.sampled_from(["a", "b", "c", ".", ","])


def _edge_text(min_size, max_size):
    return st.lists(_EDGE_WORDS, min_size=min_size, max_size=max_size).map(" ".join)


def _takes_the_cut(gold, gen):
    """Whether the pair counts by edges: the copies both sides hold of texts
    longer than 7 tokens drop more inner tokens than the pair has texts."""
    ref_texts, cand_texts = gold.texts(), gen.texts()
    dropped = sum(min(ref_texts.count(t), cand_texts.count(t)) * (len(tokenize(t)) - 7)
                  for t in set(ref_texts) & set(cand_texts) if len(tokenize(t)) > 7)
    return dropped > len(ref_texts) + len(cand_texts)


def _edge_pair(data):
    """A gold and a generated report from one pool of 1-14-token texts.
    Both sides hold a pool text on each side of a 1-2-token sentence, so
    a 4-gram can cross two edges, and the generated side may hold it once
    more than gold.  ``cut`` pairs also hold three copies of a 13-14-token
    text on each side, which puts them past the gate; the others' texts
    have at most 7 tokens, so they count whole lists."""
    cut = data.draw(st.booleans())
    pool = data.draw(st.lists(_edge_text(1, 14 if cut else 7), min_size=1, max_size=4))
    held, short = data.draw(st.sampled_from(pool)), data.draw(_edge_text(1, 2))
    long = data.draw(_edge_text(13, 14)) if cut else None
    sides = []
    for extra_held in (0, data.draw(st.integers(0, 1))):
        blocks = [[held, short, held], *[[held]] * extra_held]
        blocks += [[long]] * 3 if cut else []
        blocks += [[text] for text in data.draw(st.lists(st.sampled_from(pool), max_size=1))]
        sides.append(R(*[text for block in data.draw(st.permutations(blocks)) for text in block]))
    return sides[0], sides[1], cut


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_bleu_counts_across_held_copies_equal_the_whole_lists(data):
    gold, gen, cut = _edge_pair(data)
    assert _takes_the_cut(gold, gen) == cut
    ref, cand, shared = pair_tokens(gold, gen)
    assert bleu_shared_counts(ref, cand, shared) == bleu_pair_counts(ref, cand)
    assert bleu_stats([gold], [gen]) == _dict_bleu_stats([gold], [gen])


def test_bleu_counts_of_an_ngram_across_two_edges_hand_case():
    twelve = "Heart size is normal, lungs are clear and no effusion."  # 12 distinct tokens
    # a 1-token sentence between two held copies: "no effusion . unchanged"
    # and "effusion . unchanged heart" each cross two edges
    gold = R(twelve, "Unchanged", twelve, "Mild edema", twelve)
    gen = R(twelve, "Unchanged", twelve, "Cardiomegaly")
    assert _takes_the_cut(gold, gen)  # 2 copies x 5 dropped tokens > 9 texts
    ref, cand = report_tokens(gold), report_tokens(gen)
    assert (len(ref), len(cand)) == (39, 26)
    # only the n-grams that reach "cardiomegaly" miss: 1, 1, 1 and 1 of them
    counts = (25, 24, 23, 22, 26, 25, 24, 23)
    assert bleu_pair_counts(ref, cand) == counts
    assert bleu_shared_counts(*pair_tokens(gold, gen)) == counts
    assert _dict_bleu_stats([gold], [gen])[0] == [25 / 26, 24 / 25, 23 / 24, 22 / 23]


def test_bleu_counts_of_an_edge_ngram_inside_a_sentence_the_candidate_lacks_hand_case():
    twelve = "Heart size is normal, lungs are clear and no effusion."  # 12 tokens
    ten = "The mediastinum is stable and the hila are unremarkable."  # 10 tokens
    # the generated report holds twelve then ten; gold has a sentence between
    # them, inside which "no effusion . the", "effusion . the mediastinum" and
    # the other n-grams across the generated report's edge occur
    gold = R(twelve, "No effusion. The mediastinum was wide.", ten)
    gen = R(twelve, ten)
    assert _takes_the_cut(gold, gen)  # 5 + 3 dropped tokens > 5 texts
    ref, cand = report_tokens(gold), report_tokens(gen)
    assert (len(ref), len(cand)) == (30, 22)
    counts = (22, 21, 20, 19, 22, 21, 20, 19)
    assert bleu_pair_counts(ref, cand) == counts
    assert bleu_shared_counts(*pair_tokens(gold, gen)) == counts
