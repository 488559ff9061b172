"""Overlap metrics against hand-counted oracles.

Every pinned value below was worked out on paper from the n-gram counts
before the implementation existed; the comments keep the arithmetic.
"""

from __future__ import annotations

import math
import unicodedata

import pytest
from hypothesis import given, strategies as st

from agora.metrics import bleu, meteor_lite, rouge, tokenize
from metrics_oracle import reference_bleu


# -- tokenizer --


def test_tokenize_lowercase_and_strip():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("...wow...") == ["wow"]


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("it's don't--stop 3.14") == ["it's", "don't--stop", "3.14"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("!!! ??? --") == []
    assert tokenize("") == []


def test_tokenize_handles_unicode_punctuation():
    assert tokenize("«quoted» —dash—") == ["quoted", "dash"]


sentences = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8
).map(" ".join)


@given(st.text(max_size=40))
def test_tokenize_output_is_clean(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token
        # No token keeps punctuation at either end.
        assert not unicodedata.category(token[0]).startswith("P")
        assert not unicodedata.category(token[-1]).startswith("P")


# -- bleu --


def test_bleu_clipping():
    # cand {the:3}, ref caps it at 1: p1 = 1/3; c=3 >= r=2 so no brevity hit.
    assert bleu("the the the", ["the cat"], max_n=1) == pytest.approx(1 / 3, abs=1e-9)
    # cand {the:4}, ref {the:2}: p1 = 2/4.
    assert bleu("the the the the", ["the the cat"], max_n=1) == pytest.approx(0.5)


def test_bleu_identity_is_one():
    text = "the cat sat on the mat"
    assert bleu(text, [text]) == pytest.approx(1.0)


def test_bleu_brevity_penalty():
    # All precisions 1 (2-token prefix, 3/4-grams smoothed to 1);
    # c=2, r=6 gives exp(1 - 6/2) = exp(-2).
    value = bleu("the cat", ["the cat sat on the mat"])
    assert value == pytest.approx(math.exp(-2), abs=1e-12)


def test_bleu_closest_reference_tie_prefers_shorter():
    # Lengths 2 and 4 are both one off from c=3; the tie picks r=2,
    # which kills the brevity penalty entirely.
    assert bleu("a b c", ["x y", "a b c x"]) == pytest.approx(1.0)
    # Without the short reference the penalty is exp(1 - 4/3).
    assert bleu("a b c", ["a b c x"]) == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)


def test_bleu_smoothing_only_at_zero():
    # p1 = 4/5 and p2 = 2/4 are nonzero, so no add-one anywhere:
    # score = sqrt(0.8 * 0.5).
    value = bleu("a b c d e", ["a b x c d"], max_n=2)
    assert value == pytest.approx(math.sqrt(0.4), abs=1e-12)


def test_bleu_zero_unigram_overlap_is_zero():
    assert bleu("dog", ["cat"]) == 0.0


def test_bleu_empty_candidate_is_zero():
    assert bleu("", ["cat"]) == 0.0
    assert bleu("!!!", ["cat"]) == 0.0


def test_bleu_argument_validation():
    with pytest.raises(ValueError):
        bleu("x", [])
    with pytest.raises(ValueError):
        bleu("x", ["x"], max_n=0)


@given(sentences, sentences)
def test_bleu_stays_in_unit_interval(cand, ref):
    assert 0.0 <= bleu(cand, [ref]) <= 1.0 + 1e-12


@given(sentences)
def test_bleu_identity_property(text):
    assert bleu(text, [text]) == pytest.approx(1.0)


# Small vocabulary with edge punctuation and case, so n-grams repeat and
# overlap across the candidate and its references.
overlapping_texts = st.lists(
    st.sampled_from(["a", "b", "c", "A", "b,", "(c)", "the", "!!"]), max_size=30
).map(" ".join)


@given(
    overlapping_texts | st.text(max_size=60),
    st.lists(overlapping_texts | st.text(max_size=60), min_size=1, max_size=3),
    st.integers(1, 4),
)
def test_bleu_matches_reference_oracle_exactly(cand, refs, max_n):
    assert bleu(cand, refs, max_n) == reference_bleu(cand, refs, max_n)


# -- rouge --


def test_rouge1_hand_case():
    # overlap 3, cand total 3, ref total 6: P=1, R=1/2, F1=2/3.
    value = rouge("the cat sat", "the cat sat on the mat", 1)
    assert value == pytest.approx(2 / 3, abs=1e-9)


def test_rouge2_hand_case():
    # bigram overlap 2 of cand 2 / ref 5: P=1, R=2/5, F1=4/7.
    value = rouge("the cat sat", "the cat sat on the mat", 2)
    assert value == pytest.approx(4 / 7, abs=1e-12)


def test_rouge3_hand_case():
    # trigram overlap 1 of cand 1 / ref 4: P=1, R=1/4, F1=2/5.
    value = rouge("the cat sat", "the cat sat on the mat", 3)
    assert value == pytest.approx(0.4, abs=1e-12)


def test_rouge_l_hand_case():
    # LCS("the cat the dog", "the dog the cat") = 2; P=R=1/2, F1=1/2.
    assert rouge("the cat the dog", "the dog the cat", "L") == pytest.approx(0.5)


def test_rouge_identity_is_one():
    for variant in (1, 2, 3, "L"):
        assert rouge("a b c d", "a b c d", variant) == pytest.approx(1.0)


def test_rouge_disjoint_is_zero():
    for variant in (1, 2, 3, "L"):
        assert rouge("a b c", "x y z", variant) == 0.0


def test_rouge_accepts_lowercase_l():
    assert rouge("a b", "a b", "l") == pytest.approx(1.0)


def test_rouge_rejects_unknown_variant():
    with pytest.raises(ValueError):
        rouge("a", "a", 4)


@given(sentences, sentences)
def test_rouge_is_symmetric(a, b):
    # Clipped-overlap F1 treats both sides alike.
    for variant in (1, 2, "L"):
        assert rouge(a, b, variant) == pytest.approx(rouge(b, a, variant))


@given(sentences, sentences)
def test_rouge_stays_in_unit_interval(a, b):
    for variant in (1, 2, 3, "L"):
        assert 0.0 <= rouge(a, b, variant) <= 1.0 + 1e-12


# -- meteor --


def test_meteor_identity_three_tokens():
    # m=3, Fmean=1, one chunk: 1 - 0.5*(1/3)^3 = 53/54.
    value = meteor_lite("a b c", "a b c")
    assert value == pytest.approx(53 / 54, abs=1e-9)
    assert value == pytest.approx(0.981481, abs=1e-6)


def test_meteor_two_swapped_blocks():
    # Blocks (a b) and (c d) swap sides: m=4, Fmean=1, chunks=2,
    # penalty 0.5*(2/4)^3 = 0.0625.
    assert meteor_lite("a b c d", "c d a b") == pytest.approx(0.9375, abs=1e-12)


def test_meteor_partial_overlap():
    # m=1 of 2/2: P=R=1/2, Fmean=0.5; single chunk of one token is fully
    # fragmented: penalty 0.5. Score 0.25.
    assert meteor_lite("the cat", "the dog") == pytest.approx(0.25, abs=1e-12)


def test_meteor_no_overlap_or_empty():
    assert meteor_lite("a b", "x y") == 0.0
    assert meteor_lite("", "x") == 0.0
    assert meteor_lite("x", "") == 0.0


@given(sentences)
def test_meteor_identity_property(text):
    m = len(tokenize(text))
    assert meteor_lite(text, text) == pytest.approx(1 - 0.5 / m**3)


@given(sentences, sentences)
def test_meteor_stays_in_unit_interval(a, b):
    assert 0.0 <= meteor_lite(a, b) <= 1.0 + 1e-12
