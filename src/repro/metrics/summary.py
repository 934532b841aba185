"""Aggregate statistics helpers for experiment iterations.

The paper reports means over 50 iterations with standard deviations shown
as shaded areas, and medians for the FCT distributions; :class:`Summary`
carries exactly those aggregates (plus the p95 tail the validation
subsystem gates on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("need at least one sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    return _percentile_of_sorted(sorted(samples), q)


def _percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] + frac * (ordered[high] - ordered[low])


@dataclass(frozen=True)
class Summary:
    """Mean / std / extremes / median / p95 of a sample set."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p95: float

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.std:.2g} (n={self.n})"


def summarize(samples: Sequence[float]) -> Summary:
    """Compute a :class:`Summary`; requires at least one sample."""
    if not samples:
        raise ValueError("need at least one sample")
    n = len(samples)
    mean = sum(samples) / n
    if n > 1:
        # (x - mean) ** 2 summed in sample order, the loop inside map().
        var = sum(map(pow, map(sub, samples, repeat(mean)),
                      repeat(2))) / (n - 1)
    else:
        var = 0.0
    ordered = sorted(samples)
    return Summary(n=n, mean=mean, std=math.sqrt(var),
                   minimum=min(samples), maximum=max(samples),
                   median=_percentile_of_sorted(ordered, 50.0),
                   p95=_percentile_of_sorted(ordered, 95.0))


def improvement(baseline: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``baseline`` (0.2 = 20%).

    Positive when ``improved`` is smaller (faster FCT, lower loss).
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (baseline - improved) / baseline
