"""Summary statistics the benchmark reports.

Latencies are summarised as a median plus one tail percentile. The
tail is the highest percentile that still has at least ten samples
beyond it, so a tail figure never rests on two or three outliers. A
failed or refused operation has no latency: it counts as missing every
latency limit, so it sorts above every success.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Samples a tail percentile needs strictly beyond it.
MIN_BEYOND = 10

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 99.0,
                     99.9)

#: A failed operation's latency sample.
MISSED = math.inf

#: What a percentile that lands on a failed operation reports, since
#: JSON has no infinity. Any regression bound trips on it.
MISSED_MS = 1e9


def rank(n: int, pct: float) -> int:
    """Nearest-rank index (0-based) of percentile ``pct`` among ``n``."""
    if n < 1:
        raise ValueError("no samples")
    return min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie past percentile ``pct``."""
    return n - 1 - rank(n, pct)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; failures (``MISSED``) sort last."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), pct)]


def tail_percentile(n: int,
                    ladder: Iterable[float] = PERCENTILE_LADDER
                    ) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND``
    samples beyond it among ``n`` samples, or ``None``."""
    best = None
    for pct in ladder:
        if beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def reportable(value: float) -> float:
    """A latency as JSON can carry it (a miss becomes ``MISSED_MS``)."""
    return MISSED_MS if math.isinf(value) else value


def median(samples: Sequence[float]) -> float:
    """Median of finite samples (mean of the middle two when even)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    clipped = [(max(start, s), min(end, e)) for s, e in children
               if min(end, e) > max(start, s)]
    return (end - start) - union_length(clipped)


def histogram_delta_mean(before: dict, after: dict, name: str) -> float:
    """Mean of the observations a ``/metrics`` histogram gained
    between two snapshots: Δsum / Δcount (0 when none arrived)."""
    old = before.get("histograms", {}).get(name) or {"count": 0,
                                                     "sum": 0.0}
    new = after.get("histograms", {}).get(name) or {"count": 0,
                                                    "sum": 0.0}
    count = new["count"] - old["count"]
    if count <= 0:
        return 0.0
    return (new["sum"] - old["sum"]) / count


def counter_delta(before: dict, after: dict, name: str) -> float:
    """How much a ``/metrics`` counter grew between two snapshots."""
    return (after.get("counters", {}).get(name, 0)
            - before.get("counters", {}).get(name, 0))
