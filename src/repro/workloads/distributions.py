"""Flow-size distributions for internet-like traffic mixes.

The paper's motivation leans on measured flow-size distributions
(Jurkiewicz et al. [19]): most TCP flows are small — web pages, images,
short videos — and those flows live almost entirely in slow start.  This
module provides samplers for composing such mixes:

* :func:`web_object_sizes` — lognormal, typical of HTTP object sizes;
* :func:`heavy_tailed_flow_sizes` — bounded Pareto, the classic
  mice-and-elephants internet mix;
* :class:`EmpiricalCdf` — sample any measured CDF given as breakpoints,
  with :data:`CAMPUS_FLOW_CDF` approximating the campus-traffic shape the
  paper cites (median in the tens of kilobytes, a long elephant tail).

Each sampler returns its ``n`` sizes as one ``array('q')``: 8 bytes a
flow, exact for any byte count below 2^63.  A ``list`` would cost 40 (a
pointer and an ``int`` object, since no two sizes share one), and a
10^6-flow fleet sweep holds the column for its whole run (DESIGN.md §9).
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from itertools import repeat, starmap
from operator import add, mul, sub, truediv
from typing import Callable, Dict, List, Sequence, Tuple

#: uniforms :meth:`EmpiricalCdf.sample_sizes` holds at a time: the draws
#: are floats only within a chunk, so a 10^6-flow fleet never exists as
#: a 10^6-float list beside its sizes.
SAMPLE_CHUNK = 1 << 15


def web_object_sizes(n: int, rng: random.Random,
                     median: float = 25_000.0, sigma: float = 1.6,
                     max_size: int = 50_000_000) -> Sequence[int]:
    """Lognormal HTTP-object sizes (bytes), clamped to ``max_size``."""
    if n <= 0:
        raise ValueError("n must be positive")
    mu = math.log(median)
    return array("q", (min(max(int(rng.lognormvariate(mu, sigma)), 100),
                           max_size) for _ in range(n)))


def heavy_tailed_flow_sizes(n: int, rng: random.Random,
                            alpha: float = 1.2, minimum: int = 10_000,
                            maximum: int = 100_000_000) -> Sequence[int]:
    """Bounded-Pareto flow sizes (bytes): many mice, few elephants."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not minimum < maximum:
        raise ValueError("minimum must be below maximum")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lo, hi = float(minimum), float(maximum)
    ratio = (lo / hi) ** alpha
    span, power = 1.0 - ratio, -1.0 / alpha
    uniform = rng.random
    return array("q", (int(min(max((-(uniform() * span - 1.0)) ** power * lo,
                                   lo), hi)) for _ in range(n)))


class EmpiricalCdf:
    """Inverse-transform sampler over a piecewise-linear CDF.

    ``points`` are (value, cumulative_probability) pairs, sorted by
    probability, starting at probability 0 and ending at 1.
    """

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        probs = [p for _, p in points]
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("CDF must start at probability 0 and end at 1")
        if probs != sorted(probs):
            raise ValueError("CDF probabilities must be non-decreasing")
        values = [v for v, _ in points]
        if values != sorted(values):
            raise ValueError("CDF values must be non-decreasing")
        self.values = values
        self.probs = probs

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        idx = bisect.bisect_left(self.probs, u)
        idx = min(max(idx, 1), len(self.probs) - 1)
        p0, p1 = self.probs[idx - 1], self.probs[idx]
        v0, v1 = self.values[idx - 1], self.values[idx]
        if p1 == p0:
            return v1
        frac = (u - p0) / (p1 - p0)
        return v0 + frac * (v1 - v0)

    def sample_many(self, n: int, rng: random.Random) -> List[float]:
        """Batched inverse-transform draws, as floats.

        Consumes exactly ``n`` values from ``rng``'s ``random()`` stream,
        in the same order as ``n`` successive :meth:`sample` calls, so a
        batched draw and a one-at-a-time draw from the same seed see
        identical values (property-tested).  Integer flow sizes for a
        fleet come from :meth:`sample_sizes`, which does not pass through
        here.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        probs, values = self.probs, self.values
        top = len(probs) - 1
        bisect_left = bisect.bisect_left
        uniform = rng.random
        out: List[float] = []
        append = out.append
        for _ in range(n):
            u = uniform()
            idx = bisect_left(probs, u)
            idx = min(max(idx, 1), top)
            p0, p1 = probs[idx - 1], probs[idx]
            v0, v1 = values[idx - 1], values[idx]
            if p1 == p0:
                append(v1)
            else:
                append(v0 + (u - p0) / (p1 - p0) * (v1 - v0))
        return out

    def sample_sizes(self, n: int, rng: random.Random) -> Sequence[int]:
        """``n`` integer flow sizes: ``max(int(sample()), 1)`` per draw.

        Same draws, same order and the same arithmetic as ``n``
        :meth:`sample` calls, but as whole-column passes whose per-draw
        loop runs inside ``map``: the uniforms of a chunk are drawn,
        bracketed with ``bisect_left`` and pushed through ``v0 + (u - p0)
        / (p1 - p0) * (v1 - v0)`` one operator at a time, the operands
        looked up in a per-bracket table (:meth:`_bracket_operands`).
        Each chunk's ints are copied into one ``array('q')`` and freed;
        a CDF value of 2^63 bytes or more is an ``OverflowError``.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        p0, dp, dv, v0 = self._bracket_operands()
        probs = self.probs
        uniform = rng.random
        out = array("q")
        for start in range(0, n, SAMPLE_CHUNK):
            us = list(starmap(uniform,
                              repeat((), min(SAMPLE_CHUNK, n - start))))
            idx = list(map(bisect.bisect_left, repeat(probs), us))
            frac = map(truediv, map(sub, us, map(p0.__getitem__, idx)),
                       map(dp.__getitem__, idx))
            sizes = list(map(int, map(
                add, map(v0.__getitem__, idx),
                map(mul, frac, map(dv.__getitem__, idx)))))
            if min(sizes) < 1:
                sizes = [max(size, 1) for size in sizes]
            out.fromlist(sizes)
        return out

    def _bracket_operands(self) -> List[list]:
        """``(p0, p1 - p0, v1 - v0, v0)`` columns indexed by the *raw*
        ``bisect_left(probs, u)`` — 0 and ``len(probs)`` included, so the
        clamp of :meth:`sample` is in the table and not a pass.  A flat
        bracket (``p1 == p0``, where :meth:`sample` returns ``v1``) reads
        ``v1 + (u - p0) / 1.0 * 0``.  Lists, not tuples: ``list.__getitem__``
        is a C method, ``tuple.__getitem__`` a slot wrapper that ``map``
        calls at half the speed.
        """
        probs, values = self.probs, self.values
        top = len(probs) - 1
        rows = []
        for raw in range(len(probs) + 1):
            idx = min(max(raw, 1), top)
            p0, p1 = probs[idx - 1], probs[idx]
            v0, v1 = values[idx - 1], values[idx]
            rows.append((p0, 1.0, 0, v1) if p1 == p0
                        else (p0, p1 - p0, v1 - v0, v0))
        return [list(column) for column in zip(*rows)]


#: Approximate campus internet flow-size CDF (log-domain breakpoints),
#: matching the qualitative shape of Jurkiewicz et al.: ~50% of flows
#: under 30 kB, ~90% under 1 MB, a heavy tail to 100 MB.
CAMPUS_FLOW_CDF = EmpiricalCdf([
    (1_000, 0.00),
    (10_000, 0.25),
    (30_000, 0.50),
    (100_000, 0.70),
    (300_000, 0.82),
    (1_000_000, 0.90),
    (3_000_000, 0.95),
    (10_000_000, 0.98),
    (30_000_000, 0.995),
    (100_000_000, 1.00),
])


#: named flow-size samplers, each ``(n, rng) -> Sequence[int]`` — the mix
#: vocabulary shared by the flowsim driver and the CLI.  All three are
#: batch samplers returning one ``array('q')``; the empirical-CDF entry
#: is the column-pass one.
SIZE_SAMPLERS: Dict[str, Callable[[int, random.Random], Sequence[int]]] = {
    "web": web_object_sizes,
    "heavy_tailed": heavy_tailed_flow_sizes,
    "campus": CAMPUS_FLOW_CDF.sample_sizes,
}


def sample_flow_sizes(dist: str, n: int,
                      rng: random.Random) -> Sequence[int]:
    """Draw ``n`` flow sizes from the named distribution (see
    :data:`SIZE_SAMPLERS`)."""
    try:
        sampler = SIZE_SAMPLERS[dist]
    except KeyError:
        raise KeyError(f"unknown size distribution {dist!r}; "
                       f"known: {', '.join(sorted(SIZE_SAMPLERS))}") from None
    return sampler(n, rng)
