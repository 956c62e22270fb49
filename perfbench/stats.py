"""Order statistics shared by the workloads and the traced run."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

#: A tail needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    ``p`` qualifies when ``n * (100 - p) / 100 >= 10``; below 20 samples
    the median is the only percentile left, so 50 is the floor.
    """
    if n_samples < 1:
        raise ValueError("no samples")
    p = math.floor(100 * (1 - TAIL_MIN_BEYOND / n_samples) + 1e-9)
    return max(50, min(99, p))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100])."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def fastest_of(series: Sequence[Sequence[Optional[float]]]) -> List[Optional[float]]:
    """Position by position, the lowest of the series' values (None where
    every series holds None: the operation failed each time)."""
    best = []
    for repeats in zip(*series):
        done = [x for x in repeats if x is not None]
        best.append(min(done) if done else None)
    return best
