"""Order statistics and fits for the benchmark's reports."""

from __future__ import annotations

import math
from collections import defaultdict

TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it, which is the
    (TAIL_BEYOND + 1)-th largest value: (percentile, value, samples beyond).
    The percentile moves smoothly with the sample count, so runs of slightly
    different length report the same part of the distribution.  Below
    2 * TAIL_BEYOND samples the median is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n // 2
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 when x takes fewer
    than two distinct positive values."""
    return grouped_slope([("all", math.log(x), math.log(y))
                          for x, y in points if x > 0 and y > 0])


def grouped_slope(rows: list[tuple[str, float, float]]) -> float:
    """Least-squares slope of y against x with one intercept per group
    (rows are (group, x, y)): how y grows with x inside each group."""
    groups: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for group, x, y in rows:
        groups[group].append((x, y))
    num = den = 0.0
    for pairs in groups.values():
        mx = sum(x for x, _ in pairs) / len(pairs)
        my = sum(y for _, y in pairs) / len(pairs)
        num += sum((x - mx) * (y - my) for x, y in pairs)
        den += sum((x - mx) ** 2 for x, _ in pairs)
    return num / den if den else 0.0

