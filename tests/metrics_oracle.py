"""Reference implementations kept as equivalence oracles for `agora.metrics`
and for the answer-letter pattern of `agora.evaluation`.

These are the straightforward versions the optimised or simplified code
replaced: the tokenizer without its fast path, the row-by-row LCS table,
and the alignment that rescans every free pair for each block it takes. The
property tests in test_metrics.py require exactly equal tokens, lengths,
blocks and scores, and test_evaluation.py exactly equal matches.
"""

from __future__ import annotations

import math
import re
import unicodedata
from typing import Iterable, Sequence

from agora.metrics import _f1, _ngram_counts


# The answer-letter pattern before each whitespace run had one parse: its
# three `\s*` may split one run, so a long run that ends in no letter takes
# cubic time. Feed it short texts only.
REFERENCE_FINAL_RE = re.compile(
    r"final\s+solution\s*[:\-–=]*\s*[\(\[\{]?\s*([A-Za-z])\b", re.IGNORECASE
)


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


def reference_tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation of every token."""
    tokens = (_strip_punct(raw) for raw in text.lower().split())
    return [t for t in tokens if t]


def reference_lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """LCS length by the textbook table, one row per token of `a`."""
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


def reference_align_blocks(cand: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int, int]]:
    """Greedy longest-common-block alignment; ties go leftmost in the candidate.

    Every block rescans every free pair, so it is cubic on a text that
    repeats one token. Feed it short texts only.
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


def reference_bleu(candidate: str, references: Iterable[str], max_n: int = 4) -> float:
    """BLEU that rebuilds each reference's n-gram counts per candidate n-gram."""
    refs = [reference_tokenize(r) for r in references]
    if not refs:
        raise ValueError("bleu needs at least one reference")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    cand = reference_tokenize(candidate)
    c = len(cand)
    if c == 0:
        return 0.0

    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_grams = _ngram_counts(cand, n)
        total = sum(cand_grams.values())
        clipped = 0
        for gram, count in cand_grams.items():
            best = max(_ngram_counts(ref, n).get(gram, 0) for ref in refs)
            clipped += min(count, best)
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


def reference_rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F1 from the reference tokenizer and LCS table."""
    cand = reference_tokenize(candidate)
    ref = reference_tokenize(reference)
    return _f1(reference_lcs_length(cand, ref), len(cand), len(ref))


def reference_chunk_count(blocks: list[tuple[int, int, int]]) -> int:
    """Chunks counted from the aligned token pairs: runs adjacent in both texts."""
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


def reference_meteor_lite(candidate: str, reference: str) -> float:
    """meteor_lite with its chunks counted from the token pairs, not the blocks."""
    cand = reference_tokenize(candidate)
    ref = reference_tokenize(reference)
    if not cand or not ref:
        return 0.0
    blocks = reference_align_blocks(cand, ref)
    m = sum(length for _, _, length in blocks)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (reference_chunk_count(blocks) / m) ** 3
    return f_mean * (1 - penalty)
