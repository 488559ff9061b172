"""Overlap metrics against hand-worked values and straightforward oracles.

- `TOKENS`: a text's tokens are its whitespace-separated words, lowercased,
  with Unicode punctuation (category P*) stripped from both ends; inner
  punctuation stays and a word of punctuation alone goes. No alphanumeric
  character is punctuation, so a word with alphanumeric ends is kept whole.
- `SCORES`: each metric call and its value, worked out on paper from the
  n-gram counts (the comments keep the arithmetic), or its ValueError: `bleu`
  without a reference or with `max_n` below 1, and `rouge` of a variant but
  1, 2, 3 and L (either case). BLEU clips each n-gram count at the largest
  in one reference, adds one to a zero precision above n = 1, is 0 without a
  common unigram, and takes its brevity penalty from the reference length
  closest to the candidate's, the shorter on a tie. ROUGE is the F1 of the
  clipped n-gram overlap or of the LCS; METEOR-lite's chunks are its blocks.
- `METRICS`: every score lies in [0, 1]. A text scores 1 against itself, but
  0 in ROUGE-n with fewer than n tokens, and 1 - 0.5/m^3 in METEOR-lite with
  m tokens. ROUGE is symmetric.
- `ORACLES`: the tokenizer, the LCS, the alignment, BLEU, ROUGE-L and
  METEOR-lite equal, exactly, the straightforward versions in
  metrics_oracle.py, on texts of 1-4 token types that force ties and repeats.
- Long texts score within a time limit; a text of one word aligns in little memory.
"""

from __future__ import annotations

import math
import random
import re
import sys
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, strategies as st

from agora.metrics import _align_blocks, _lcs_length, bleu, meteor_lite, rouge, tokenize
from conftest import finishes_within
from metrics_oracle import reference_align_blocks, reference_bleu, reference_lcs_length
from metrics_oracle import reference_meteor_lite, reference_rouge_l, reference_tokenize


# -- tokenizer --

# Each text and its tokens.
TOKENS = {
    "lowercased, end punctuation stripped": ("Hello, World!", ["hello", "world"]),
    "punctuation stripped from both ends": ("...wow...", ["wow"]),
    "inner punctuation kept": ("it's don't--stop 3.14", ["it's", "don't--stop", "3.14"]),
    "punctuation alone dropped": ("!!! ??? --", []),
    "empty": ("", []),
    "unicode punctuation": ("«quoted» —dash—", ["quoted", "dash"]),
}


@pytest.mark.parametrize("text, expected", TOKENS.values(), ids=list(TOKENS))
def test_tokenize(text, expected):
    assert tokenize(text) == expected


def test_no_alphanumeric_character_is_punctuation():
    # tokenize leaves a token whose ends are alphanumeric as it is, unstripped.
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if c.isalnum() and unicodedata.category(c).startswith("P")] == []


@given(st.text(max_size=40))
def test_tokenize_output_is_clean(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token
        # No token keeps punctuation at either end.
        assert not unicodedata.category(token[0]).startswith("P")
        assert not unicodedata.category(token[-1]).startswith("P")


# -- hand-worked scores --

CAT = "the cat sat on the mat"

# Each metric call and its value, or the ValueError it raises.
SCORES = {
    # cand {the:3}, the ref caps it at 1: p1 = 1/3; c=3 >= r=2, so no brevity penalty.
    "bleu clips a count to 1": (bleu, ("the the the", ["the cat"], 1), 1 / 3),
    # cand {the:4}, ref {the:2}: p1 = 2/4.
    "bleu clips a count to 2": (bleu, ("the the the the", ["the the cat"], 1), 0.5),
    "bleu of a text against itself": (bleu, (CAT, [CAT]), 1.0),
    # All precisions 1 (2-token prefix, 3/4-grams smoothed to 1); c=2, r=6: exp(1 - 6/2).
    "bleu brevity penalty": (bleu, ("the cat", [CAT]), math.exp(-2)),
    # Lengths 2 and 4 are both one off from c=3; the tie picks r=2, so no penalty.
    "bleu length tie picks the shorter reference": (bleu, ("a b c", ["x y", "a b c x"]), 1.0),
    # Without the short reference the penalty is exp(1 - 4/3).
    "bleu penalty against the one reference": (bleu, ("a b c", ["a b c x"]), math.exp(1 - 4 / 3)),
    # p1 = 4/5 and p2 = 2/4 are nonzero, so no add-one anywhere: sqrt(0.8 * 0.5).
    "bleu adds one to no nonzero precision": (bleu, ("a b c d e", ["a b x c d"], 2), math.sqrt(0.4)),
    # p1 = 2/2; the one bigram (a b) is not in the reference: p2 = (0 + 1) / (1 + 1). sqrt(1 * 1/2).
    "bleu adds one to a zero bigram precision": (bleu, ("a b", ["b a"], 2), math.sqrt(0.5)),
    "bleu without a common unigram": (bleu, ("dog", ["cat"]), 0.0),
    "bleu of an empty candidate": (bleu, ("", ["cat"]), 0.0),
    "bleu of a punctuation candidate": (bleu, ("!!!", ["cat"]), 0.0),
    "bleu without a reference": (bleu, ("x", []), ValueError("bleu needs at least one reference")),
    "bleu max_n 0": (bleu, ("x", ["x"], 0), ValueError("max_n must be >= 1")),
    # overlap 3, cand total 3, ref total 6: P=1, R=1/2, F1=2/3.
    "rouge1": (rouge, ("the cat sat", CAT, 1), 2 / 3),
    # bigram overlap 2 of cand 2 / ref 5: P=1, R=2/5, F1=4/7.
    "rouge2": (rouge, ("the cat sat", CAT, 2), 4 / 7),
    # trigram overlap 1 of cand 1 / ref 4: P=1, R=1/4, F1=2/5.
    "rouge3": (rouge, ("the cat sat", CAT, 3), 0.4),
    # LCS("the cat the dog", "the dog the cat") = 2; P=R=1/2, F1=1/2.
    "rougeL": (rouge, ("the cat the dog", "the dog the cat", "L"), 0.5),
    "rougeL in lower case": (rouge, ("a b", "a b", "l"), 1.0),
    **{f"rouge{v} of a text against itself": (rouge, ("a b c d", "a b c d", v), 1.0) for v in (1, 2, 3, "L")},
    **{f"rouge{v} of disjoint texts": (rouge, ("a b c", "x y z", v), 0.0) for v in (1, 2, 3, "L")},
    "rouge variant 4": (rouge, ("a", "a", 4), ValueError("unsupported rouge variant 4")),
    # m=3, Fmean=1, one chunk: 1 - 0.5*(1/3)^3 = 53/54.
    "meteor of three tokens against themselves": (meteor_lite, ("a b c", "a b c"), 53 / 54),
    # Blocks (a b) and (c d) swap sides: m=4, Fmean=1, chunks=2, penalty 0.5*(2/4)^3 = 0.0625.
    "meteor of two swapped blocks": (meteor_lite, ("a b c d", "c d a b"), 0.9375),
    # m=1 of 2/2: P=R=1/2, Fmean=0.5; one chunk of one token is fully fragmented: penalty 0.5.
    "meteor partial overlap": (meteor_lite, ("the cat", "the dog"), 0.25),
    "meteor without overlap": (meteor_lite, ("a b", "x y"), 0.0),
    "meteor of an empty candidate": (meteor_lite, ("", "x"), 0.0),
    "meteor against an empty reference": (meteor_lite, ("x", ""), 0.0),
}


@pytest.mark.parametrize("metric, args, expected", SCORES.values(), ids=list(SCORES))
def test_each_score_is_its_hand_worked_value(metric, args, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$"):
            metric(*args)
    else:
        assert metric(*args) == pytest.approx(expected, abs=1e-12)


# -- properties --

sentences = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8).map(" ".join)

# Each metric of (candidate, reference), and the score of a text of m tokens against itself.
METRICS = {
    "bleu": (lambda a, b: bleu(a, [b]), lambda m: 1.0),
    "rouge1": (lambda a, b: rouge(a, b, 1), lambda m: 1.0),
    "rouge2": (lambda a, b: rouge(a, b, 2), lambda m: float(m >= 2)),
    "rouge3": (lambda a, b: rouge(a, b, 3), lambda m: float(m >= 3)),
    "rougeL": (lambda a, b: rouge(a, b, "L"), lambda m: 1.0),
    "meteor": (meteor_lite, lambda m: 1 - 0.5 / m**3),
}


@pytest.mark.parametrize("metric", METRICS)
@given(sentences, sentences)
def test_each_metric_stays_in_the_unit_interval(metric, a, b):
    assert 0.0 <= METRICS[metric][0](a, b) <= 1.0 + 1e-12


@pytest.mark.parametrize("metric", METRICS)
@given(sentences)
def test_each_metric_scores_a_text_against_itself_as_its_row_says(metric, text):
    score, identity = METRICS[metric]
    assert score(text, text) == pytest.approx(identity(len(tokenize(text))))


@pytest.mark.parametrize("metric", ["rouge1", "rouge2", "rouge3", "rougeL"])
@given(sentences, sentences)
def test_rouge_is_symmetric(metric, a, b):
    # Clipped-overlap F1 treats both sides alike.
    score = METRICS[metric][0]
    assert score(a, b) == pytest.approx(score(b, a))


# -- the metrics, the kernels and the tokenizer against the straightforward versions --

# Small vocabulary with edge punctuation and case, so n-grams repeat and
# overlap across the candidate and its references.
overlapping_texts = st.lists(st.sampled_from(["a", "b", "c", "A", "b,", "(c)", "the", "!!"]), max_size=30).map(" ".join)
any_text = overlapping_texts | st.text(max_size=60)


# Two lists of 0-16 tokens over one vocabulary of 1-4 tokens, so blocks repeat and interleave.
token_pairs = st.integers(1, 4).flatmap(lambda size: st.tuples(*[st.lists(st.sampled_from("abcd"[:size]), max_size=16)] * 2))
text_pairs = token_pairs.map(lambda pair: tuple(" ".join(tokens) for tokens in pair))

# Each function, its oracle, and the arguments they are drawn with.
ORACLES = {
    "bleu": (bleu, reference_bleu, st.tuples(any_text, st.lists(any_text, min_size=1, max_size=3), st.integers(1, 4))),
    "meteor_lite": (meteor_lite, reference_meteor_lite, text_pairs),
    "_lcs_length": (_lcs_length, reference_lcs_length, token_pairs),
    "_align_blocks": (_align_blocks, reference_align_blocks, token_pairs),
    "rouge L": (lambda a, b: rouge(a, b, "L"), reference_rouge_l, text_pairs),
    "tokenize": (tokenize, reference_tokenize, st.tuples(any_text)),
}


@pytest.mark.parametrize("function, oracle, arguments", ORACLES.values(), ids=list(ORACLES))
@given(st.data())
def test_each_matches_its_reference_oracle_exactly(function, oracle, arguments, data):
    args = data.draw(arguments)
    assert function(*args) == oracle(*args)


def test_long_texts_score_within_seconds():
    # 2000 tokens over 300 words, and 800 copies of one word, whose every
    # token pair matches: the worst case of the alignment.
    rng = random.Random(0)
    words = [f"w{i}" for i in range(300)]
    cand, ref = (" ".join(rng.choices(words, k=2000)) for _ in range(2))
    with finishes_within(1.0):
        meteor_lite(cand, ref)
    with finishes_within(1.0):
        rouge(cand, ref, "L")
    one_word = " ".join(["w"] * 800)
    with finishes_within(5.0):
        assert meteor_lite(one_word, one_word) == 1 - 0.5 / 800**3
        assert rouge(one_word, one_word, "L") == 1.0


def test_a_text_of_one_word_aligns_in_little_memory():
    # 300 copies of one word on both sides match in 90 000 token pairs but
    # form only 599 runs, and the alignment files the runs, not the pairs.
    one_word = ["w"] * 300
    tracemalloc.start()
    try:
        assert _align_blocks(one_word, one_word) == [(0, 0, 300)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
