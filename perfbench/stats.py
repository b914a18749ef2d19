"""Small, dependency-free arithmetic the benchmark reports with.

Kept apart from the runner so the self-tests in ``test_bench.py`` can check
it without importing numpy or the package under test.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median of a nonempty sequence (mean of the middle pair when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them,
    the exclusive method. One value gives that value three times."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile range as a share of the median: (Q3 - Q1) / |median|."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread is undefined when the median is 0")
    return (q3 - q1) / abs(q2)


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, refusing a zero base instead of returning inf."""
    if denominator == 0:
        raise ValueError("ratio with a zero denominator")
    return numerator / denominator


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its direct
    children cover.

    ``spans`` is a list of dicts with ``start``, ``end`` and ``parent`` (the
    index of the enclosing span, or None). Spans come from one thread, so
    direct children of a span never overlap each other.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
