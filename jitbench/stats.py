"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics

#: a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q``-th
    percentile's rank (nearest-rank definition)."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples_for(q: float, tail: int = MIN_TAIL) -> int:
    """Smallest sample count whose ``q``-th percentile has ``tail`` samples
    beyond it."""
    n = 1
    while samples_beyond(n, q) < tail:
        n += 1
    return n


def percentile(values, q: float, tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than ``tail`` samples lie beyond it:
    such a percentile would be set by a handful of samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or samples_beyond(n, q) < tail:
        raise ValueError(
            f"p{q:g} of {n} samples has fewer than {tail} samples beyond it"
        )
    return float(ordered[max(1, math.ceil(q / 100.0 * n)) - 1])


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))

