"""Reference implementations kept as equivalence oracles for `agora.metrics`.

These are the straightforward versions the optimised or simplified metrics
replaced; the property tests in test_metrics.py require exactly equal scores.
"""

from __future__ import annotations

import math
from typing import Iterable

from agora.metrics import _align_blocks, _ngram_counts, tokenize


def reference_bleu(candidate: str, references: Iterable[str], max_n: int = 4) -> float:
    """BLEU that rebuilds each reference's n-gram counts per candidate n-gram."""
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
    penalty = 0.5 * (reference_chunk_count(blocks) / m) ** 3
    return f_mean * (1 - penalty)
