"""Percentiles, the tail rule and small summaries shared by the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so a single slow request cannot be the tail.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(q, value)``: ``value`` is the sample of nearest rank
    ``n - beyond``, so exactly ``beyond`` samples sort after it, and
    ``q = 100 * (n - beyond) / n`` is the percentile it stands for.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(
            f"{n} samples cannot give a tail with {beyond} beyond it")
    rank = n - beyond
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def time_slices(items: Sequence[Tuple[float, object]], start: float,
                end: float, count: int) -> List[list]:
    """Split ``(time, item)`` pairs among ``count`` equal slices of
    ``[start, end]`` (items outside it are dropped)."""
    width = (end - start) / count
    slices: List[list] = [[] for _ in range(count)]
    for moment, item in items:
        if start <= moment <= end:
            slices[min(count - 1, int((moment - start) / width))].append(item)
    return slices


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def union_length(intervals: Sequence[Tuple[float, float]],
                 lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span: Tuple[float, float],
              children: Sequence[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover (the
    union of the children, so overlapping children count once)."""
    start, end = span
    return (end - start) - union_length(children, start, end)


def overhead(traced: float, untraced: float) -> float:
    """Tracing overhead: traced minus untraced end-to-end figure (may
    read negative when the difference is inside run-to-run noise)."""
    return traced - untraced


#: A latency phase is cut into at most this many consecutive slices by
#: due time; each figure is the median of the slices' figures, so a
#: stall of the machine that hits one slice moves one slice.  A slice
#: holds at least 40 samples for a p50, 120 for a tail.  On sign-open's
#: closed loop (about 1800 signs) ten slices instead of five cut the
#: spread of the tail over five seeds from 0.15 to 0.04.
SLICES = 10
P50_SLICE_SAMPLES = 40
TAIL_SLICE_SAMPLES = 120


def _slices(samples: Sequence[Tuple[float, float]],
            least: int) -> List[List[float]]:
    count = max(1, min(SLICES, len(samples) // least))
    ordered = sorted(samples)
    size = len(ordered) / count
    return [[latency for _, latency in
             ordered[round(i * size):round((i + 1) * size)]]
            for i in range(count)]


def summary_ms(samples: Sequence[Tuple[float, float]]) -> dict:
    """p50 and tail of ``(due time, latency)`` samples, each the median
    over slices (see :data:`SLICES`), with the sample count."""
    halves = [median(part) for part in _slices(samples, P50_SLICE_SAMPLES)]
    tails = [tail(part) for part in _slices(samples, TAIL_SLICE_SAMPLES)]
    return {"p50": median(halves),
            "tail": median([value for _, value in tails]),
            "tail_q": min(q for q, _ in tails), "slices": len(tails),
            "n": len(samples)}
