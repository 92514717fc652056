"""Summary statistics shared by the benchmark and its tests (no fedvib imports)."""

import statistics

# Candidate percentiles in hundredths of a percent: p50, p90, p99, p99.9, p99.99.
PERCENTILE_LADDER = (5000, 9000, 9900, 9990, 9999)
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """Highest ladder percentile that keeps at least ``beyond`` samples above it.

    Uses nearest rank: the p-th percentile of n sorted samples is the one at
    rank ceil(p * n).  Returns ``(value, percentile, n)``; raises ValueError when
    even the median leaves fewer than ``beyond`` samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in PERCENTILE_LADDER:
        rank = (p * n + 9999) // 10000
        if rank >= 1 and n - rank >= beyond:
            best = p, rank
    if best is None:
        raise ValueError(f"{n} samples leave fewer than {beyond} above the median")
    p, rank = best
    return ordered[rank - 1], p / 100.0, n


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(span_start, span_end, child_intervals):
    """A span's duration minus the part of it that its child spans cover."""
    return (span_end - span_start) - covered(span_start, span_end, child_intervals)
