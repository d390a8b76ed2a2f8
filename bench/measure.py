"""Order statistics for per-operation timings, and the host-speed reference.

Percentiles interpolate linearly between order statistics (the rule NumPy
calls "linear"), so p50 of an even-sized sample is the mean of the two
middle values.  A percentile is only as trustworthy as the number of
samples that lie strictly beyond it, so the run reports that count next to
every percentile.

On a shared host the same operation can run twice as slowly from one
minute to the next, because of other tenants.  The benchmark therefore
times a fixed reference workload next to every operation and scales the
operation's wall time by REFERENCE_SECONDS / (reference time measured).
The reference uses only the standard library, so no change to the
program can change it.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from typing import Sequence

# What reference_work takes on a quiet host; scaled times read as ms there.
REFERENCE_SECONDS = 0.0075

# Percentiles the benchmark may report, highest first.
CANDIDATE_PERCENTILES = (99, 95, 90, 80, 75, 50)

# A percentile is supported when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) of a nonempty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_count(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    if n < 1:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100)


def highest_supported_percentile(n: int, min_tail: int = MIN_TAIL) -> int | None:
    """The highest candidate percentile with at least min_tail samples beyond it."""
    for q in CANDIDATE_PERCENTILES:
        if tail_count(n, q) >= min_tail:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def reference_work() -> Fraction:
    """Fixed pure-Python work of the program's kind: a Fraction table built
    over bitmask coalitions, then submask walks over it."""
    n = 9
    w = [Fraction(i + 1, i % 4 + 1) for i in range(n)]
    table = [Fraction(0)] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        table[S] = table[S ^ low] + w[low.bit_length() - 1]
    best = Fraction(0)
    for S in range(0, 1 << n, 5):
        T = S
        while T:
            d = table[S] - table[T]
            if d > best:
                best = d
            T = (T - 1) & S
    return best


def reference_seconds() -> float:
    """Wall time of one reference_work call."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two reference timings
    into a time at reference speed."""
    return 2 * REFERENCE_SECONDS / (before + after)
