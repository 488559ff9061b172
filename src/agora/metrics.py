"""Text overlap metrics implemented from first principles.

Tokenization is pinned: lowercase, split on Unicode whitespace, strip
leading/trailing punctuation (Unicode category P*). Every score below is
meaningless without exactly this tokenizer, so tests pin it too.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from typing import Iterable, Sequence


def _is_punct(char: str) -> bool:
    return unicodedata.category(char).startswith("P")


def _strip_punct(token: str) -> str:
    start = 0
    end = len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    # No alphanumeric character is punctuation, so such ends need no strip.
    tokens = (raw if raw[0].isalnum() and raw[-1].isalnum() else _strip_punct(raw) for raw in text.lower().split())
    return [t for t in tokens if t]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: str, references: Iterable[str], max_n: int = 4) -> float:
    """Corpus-of-one BLEU: clipped n-gram precision, brevity penalty included.

    Zero precisions at n>1 get add-one smoothing; a zero unigram precision
    zeroes the whole score. The brevity penalty uses the reference length
    closest to the candidate's, ties resolved toward the shorter reference.
    """
    refs = [tokenize(r) for r in references]
    if not refs:
        raise ValueError("bleu needs at least one reference")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    cand = tokenize(candidate)
    c = len(cand)

    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_grams = _ngram_counts(cand, n)
        total = sum(cand_grams.values())
        best = Counter()
        for ref in refs:
            best |= _ngram_counts(ref, n)
        clipped = sum(min(count, best[gram]) for gram, count in cand_grams.items())
        if total > 0 and clipped > 0:
            precision = clipped / total
        elif n > 1:
            precision = (clipped + 1) / (total + 1)
        else:
            return 0.0
        log_sum += math.log(precision)
    geo_mean = math.exp(log_sum / max_n)

    r = min((len(ref) for ref in refs), key=lambda rl: (abs(rl - c), rl))
    brevity = 1.0 if c >= r else math.exp(1 - r / c)
    return brevity * geo_mean


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986, Hyyrö 2004): bit j of `row`
    is clear where the LCS of `a`'s prefix with `b[: j + 1]` steps up."""
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | 1 << j
    full = row = (1 << len(b)) - 1
    for token in a:
        m = row & masks.get(token, 0)
        row = ((row + m) | (row - m)) & full
    return len(b) - row.bit_count()


def _f1(overlap: float, cand_total: int, ref_total: int) -> float:
    if not overlap:
        return 0.0
    precision = overlap / cand_total
    recall = overlap / ref_total
    return 2 * precision * recall / (precision + recall)


def rouge(candidate: str, reference: str, variant: int | str = 1) -> float:
    """ROUGE F1 for n-gram variants 1/2/3 or LCS variant "L"."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if str(variant).upper() == "L":
        return _f1(_lcs_length(cand, ref), len(cand), len(ref))
    n = int(variant)
    if n not in (1, 2, 3):
        raise ValueError(f"unsupported rouge variant {variant!r}")
    cand_grams = _ngram_counts(cand, n)
    ref_grams = _ngram_counts(ref, n)
    overlap = sum(min(count, ref_grams.get(gram, 0)) for gram, count in cand_grams.items())
    return _f1(overlap, sum(cand_grams.values()), sum(ref_grams.values()))


def _align_blocks(cand: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int, int]]:
    """Greedy common-block alignment: take the longest run of equal tokens free
    in both texts, ties to the smallest candidate then reference index; repeat.

    Each maximal run of equal tokens is filed under its length. Taking a block
    only splits runs, so the lengths are scanned from the longest down: a run
    still free throughout is taken, and the free parts of any other are filed
    lower. Time grows with the matching token pairs, memory with the runs.
    """
    where: dict[str, list[int]] = {}
    for ri, token in enumerate(ref):
        where.setdefault(token, []).append(ri)
    by_length: list[list[tuple[int, int]]] = [[] for _ in range(min(len(cand), len(ref)) + 1)]
    after: dict[int, int] = {}  # the run length at (ci + 1, ri), by ri
    for ci in range(len(cand) - 1, -1, -1):
        after = {ri: after.get(ri + 1, 0) + 1 for ri in where.get(cand[ci], ())}
        for ri, length in after.items():
            if not (ci and ri and cand[ci - 1] == ref[ri - 1]):  # else a longer run holds it
                by_length[length].append((ci, ri))
    free_c, free_r = [True] * len(cand), [True] * len(ref)
    blocks: list[tuple[int, int, int]] = []
    for length in range(len(by_length) - 1, 0, -1):
        for ci, ri in sorted(by_length[length]):
            run = 0
            for k in range(length + 1):
                if k < length and free_c[ci + k] and free_r[ri + k]:
                    run += 1
                elif run == length:
                    free_c[ci : ci + length] = free_r[ri : ri + length] = [False] * length
                    blocks.append((ci, ri, length))
                elif run:
                    by_length[run].append((ci + k - run, ri + k - run))
                    run = 0
    return blocks


def meteor_lite(candidate: str, reference: str) -> float:
    """Exact-match METEOR: no stemming or synonymy, alignment by common blocks."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    blocks = _align_blocks(cand, ref)
    m = sum(length for _, _, length in blocks)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    # Each block is one chunk. Had block B followed block A in both texts,
    # the first of them picked would have run on into the other's free
    # positions, since the alignment takes the longest free run first.
    chunks = len(blocks)
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1 - penalty)
