"""Reference implementations kept as equivalence oracles for `agora.metrics`.

These are the straightforward versions the optimised metrics replaced; the
property tests in test_metrics.py require exactly equal scores.
"""

from __future__ import annotations

import math
from typing import Iterable

from agora.metrics import _ngram_counts, tokenize


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
