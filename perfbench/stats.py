"""Latency bookkeeping and the percentile rules the report uses."""

from __future__ import annotations

import math

# a latency is kept with a 12-bit binary mantissa (relative error < 0.025%),
# so memory stays bounded however many operations a run completes
_MANTISSA_BITS = 12


def bucket(ns: int) -> int:
    """Round a nanosecond latency down to the histogram's resolution."""
    shift = ns.bit_length() - _MANTISSA_BITS
    return ns if shift <= 0 else (ns >> shift) << shift


class Latencies:
    """Histogram of per-operation wall times in nanoseconds."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0
        self.total_ns = 0

    def add(self, ns: int) -> None:
        b = bucket(ns)
        self.counts[b] = self.counts.get(b, 0) + 1
        self.n += 1
        self.total_ns += ns

    def quantile(self, q: float) -> int:
        """Nearest-rank quantile: the smallest value with at least q*n at or below it."""
        if not self.n:
            raise ValueError("no samples")
        rank = nearest_rank(q, self.n)
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= rank:
                return value
        raise AssertionError("rank beyond sample count")


def nearest_rank(q: float, n: int) -> int:
    """1-based rank of the q-quantile of n samples (nearest-rank method)."""
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} outside (0, 1]")
    # round before ceil so 0.9 * 100 does not become 90.00000000000001
    return max(1, math.ceil(round(q * n, 9)))


def samples_beyond(q: float, n: int) -> int:
    """How many of n samples lie strictly above the q-quantile's rank."""
    return n - nearest_rank(q, n)


def min_samples(q: float, beyond: int = 10) -> int:
    """Fewest samples for which the q-quantile has `beyond` samples above it."""
    n = 1
    while samples_beyond(q, n) < beyond:
        n += 1
    return n


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
