"""Summary statistics used by the benchmark (stdlib only).

Three rules are kept here so they can be tested on synthetic inputs
(see test_stats.py):

* the tail of a timing sample is reported at the highest percentile that
  still has at least ten samples beyond it, or not at all;
* the self time of a span is its duration minus the union of the
  intervals its child spans cover;
* the failure share is failed operations over attempted operations, with
  both counts kept.
"""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail_percentile(values, min_beyond: int = TAIL_MIN_BEYOND):
    """(percentile, value) of the highest integer percentile p such that at
    least `min_beyond` samples lie strictly above the p-th percentile value.

    The p-th percentile value is the sample at rank ceil(p/100 * n) (nearest
    rank).  Returns None when the sample is too small for any percentile to
    have `min_beyond` samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p / 100.0 * n))
        value = xs[rank - 1]
        beyond = sum(1 for x in xs if x > value)
        if beyond >= min_beyond:
            return p, value
    return None


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """Span duration minus the union of its children, clipped to the span."""
    clipped = [(max(s, start), min(e, end)) for s, e in child_intervals]
    return (end - start) - union_length(clipped)


def span_self_times(spans):
    """Self time per span index for spans given as (name, start, end, parent)
    tuples, where parent is the index of the enclosing span or None."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [self_time(s[1], s[2], children[i]) for i, s in enumerate(spans)]


class FailureTally:
    """Counts attempted and failed operations; the share is failed/attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def record(self, ok: bool, reason: str = "", weight: int = 1):
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.reasons[reason] = self.reasons.get(reason, 0) + weight

    @property
    def share(self) -> float:
        if self.attempted == 0:
            raise ValueError("no operations attempted")
        return self.failed / self.attempted
