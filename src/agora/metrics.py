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
    tokens = (_strip_punct(raw) for raw in text.lower().split())
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
    if c == 0:
        return 0.0

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
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b, 1):
            if token == other:
                current.append(prev[j - 1] + 1)
            else:
                current.append(max(prev[j], current[j - 1]))
        prev = current
    return prev[-1]


def _f1(overlap: float, cand_total: int, ref_total: int) -> float:
    if cand_total == 0 or ref_total == 0 or overlap == 0:
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
    """Greedy longest-common-block alignment; ties go leftmost in the candidate.

    Quadratic-ish per block, which is fine for sentence-length inputs.
    """
    free_c = [True] * len(cand)
    free_r = [True] * len(ref)
    blocks: list[tuple[int, int, int]] = []
    while True:
        best_len = 0
        best: tuple[int, int] | None = None
        for ci in range(len(cand)):
            if not free_c[ci]:
                continue
            for ri in range(len(ref)):
                if not free_r[ri] or cand[ci] != ref[ri]:
                    continue
                length = 0
                while (
                    ci + length < len(cand)
                    and ri + length < len(ref)
                    and free_c[ci + length]
                    and free_r[ri + length]
                    and cand[ci + length] == ref[ri + length]
                ):
                    length += 1
                if length > best_len:
                    best_len = length
                    best = (ci, ri)
        if best is None:
            return blocks
        ci, ri = best
        for offset in range(best_len):
            free_c[ci + offset] = False
            free_r[ri + offset] = False
        blocks.append((ci, ri, best_len))


def _chunk_count(blocks: list[tuple[int, int, int]]) -> int:
    pairs = sorted(
        (ci + offset, ri + offset) for ci, ri, length in blocks for offset in range(length)
    )
    chunks = 0
    previous: tuple[int, int] | None = None
    for ci, ri in pairs:
        if previous is None or (ci, ri) != (previous[0] + 1, previous[1] + 1):
            chunks += 1
        previous = (ci, ri)
    return chunks


def meteor_lite(candidate: str, reference: str) -> float:
    """Exact-match METEOR: no stemming or synonymy, alignment by common blocks."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    blocks = _align_blocks(cand, ref)
    m = sum(length for _, _, length in blocks)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    chunks = _chunk_count(blocks)
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1 - penalty)
