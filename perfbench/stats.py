"""Steady-window statistics for the perfbench benchmark.

Every timing the benchmark reports goes through these helpers: the
warm-up is cut first, then a timing is summarized as its median plus
the highest percentile that still has at least ten samples beyond it,
together with the sample count. Stage numbers are means over the steady
window, never a single round's sample.
"""

import math
import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
# The tail never reaches past p99, however many samples there are.
TAIL_MAX_PERCENTILE = 99


def steady_window(samples, warmup):
    """The samples after the first `warmup` ones (the steady window)."""
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    return list(samples[warmup:])


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile_level(n):
    """The highest whole percentile (at most p99) whose nearest-rank
    value leaves >= TAIL_MIN_BEYOND of `n` samples strictly beyond it,
    or None when `n` is too small for any level from p50 up."""
    level = min(TAIL_MAX_PERCENTILE, (100 * (n - TAIL_MIN_BEYOND)) // n) if n else 0
    while level >= 50:
        if n - math.ceil(level / 100.0 * n) >= TAIL_MIN_BEYOND:
            return level
        level -= 1
    return None


def summarize(samples):
    """Median, p90, tail percentile (level and value), mean and count
    of a timing."""
    if not samples:
        raise ValueError("summary of no samples")
    level = tail_percentile_level(len(samples))
    return {
        "count": len(samples),
        "median": statistics.median(samples),
        "p90": percentile(samples, 90),
        "tail_level": level,
        "tail": percentile(samples, level) if level else max(samples),
        "mean": statistics.fmean(samples),
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
