"""Order statistics and the regression-compare rule of the e2e benchmark.

Percentiles are nearest-rank (the same convention as
``repro.telemetry.trace``), so a reported percentile is always one of the
measured samples.  Quartiles follow ``statistics.quantiles(values, n=4)``,
the spread definition the benchmark's bounds are stated against.
"""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99, 95, 90, 75)
"""Candidate tail percentiles, highest first."""

MIN_BEYOND = 10
"""A tail percentile is reported only with this many samples beyond it."""


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank p-th."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float:
    """The highest tail percentile with ``MIN_BEYOND`` samples beyond it.

    Below ``2 * MIN_BEYOND`` samples no tail percentile qualifies and the
    sample maximum (100) is the tail: the slowest spec of the pass.
    """
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return 100


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) of a non-empty sample."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(values) -> dict:
    """Median, quartiles and sample count of a sample (None when empty)."""
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(stats: dict) -> float | None:
    """Interquartile range as a share of the median (None if undefined)."""
    if stats.get("median") in (None, 0):
        return None
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def classify(base: dict, new: dict, bound: float, better: str) -> str:
    """better / worse / within / unresolved for one (metric, workload) pair.

    ``base`` and ``new`` are :func:`describe` results.  The pair is
    unresolved when either side's spread exceeds ``bound`` (or either
    side is missing); otherwise the relative change of the medians is
    compared against ``bound``, oriented by ``better`` ("lower" or
    "higher").
    """
    spreads = (relative_spread(base), relative_spread(new))
    if any(s is None or s > bound for s in spreads):
        return "unresolved"
    change = (new["median"] - base["median"]) / abs(base["median"])
    gain = -change if better == "lower" else change
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "within"
