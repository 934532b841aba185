"""Metric registries: counters, gauges, and histograms with labels.

Run-level accounting (:mod:`repro.obs.runtime`, the OpenMetrics export)
keeps its numbers here: each instrument is identified by a name plus a
sorted label set (``status="ok"``, ``lane=3``), and
:meth:`MetricRegistry.snapshot` renders everything as one
JSON-serialisable dict.  Nothing on the per-packet path writes to a
registry; the simulation reports through ``Observability.emit``.

Instruments are deliberately minimal and allocation-free per update:

* :class:`Counter` — monotonically non-decreasing float/int total;
* :class:`Gauge` — last-written value;
* :class:`Histogram` — streaming count/sum/min/max plus fixed
  power-of-two-style bucket counts (no per-sample storage).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]

#: default histogram bucket upper bounds (seconds / bytes / ratios all
#: fit a geometric ladder; the overflow bucket is implicit)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
    1.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
)


class Counter:
    """Monotonic total; ``add`` rejects negative increments."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-observed value (queue depth, pacing rate, cwnd)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming distribution: count/sum/min/max + bucket counts."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "minimum",
                 "maximum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Approximate ``q``-th percentile (0–100) from bucket counts.

        Linear interpolation inside the containing bucket, clamped to
        the observed ``[minimum, maximum]`` (so the overflow bucket and
        the first bucket report real extremes, not bound guesses).
        Returns None for a zero-sample histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0 or self.minimum is None or self.maximum is None:
            return None
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else self.minimum
                hi = (self.bounds[i] if i < len(self.bounds)
                      else self.maximum)
                fraction = (rank - cumulative) / bucket_count
                value = lo + (hi - lo) * fraction
                return min(max(value, self.minimum), self.maximum)
            cumulative += bucket_count
        return self.maximum


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class MetricRegistry:
    """Instrument store keyed by (name, labels).

    ``counter``/``gauge``/``histogram`` create on first use and return
    the cached instrument afterwards; callers hold the handle and update
    it directly in hot paths.  A name is bound to one instrument type —
    mixing types under one name raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}
        self._types: Dict[str, type] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any],
             factory) -> Any:
        bound = self._types.setdefault(name, cls)
        if bound is not cls:
            raise ValueError(
                f"metric {name!r} is a {bound.__name__}, not a {cls.__name__}")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels, Gauge)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels,
                         lambda: Histogram(buckets))

    # ------------------------------------------------------------------
    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The instrument registered under (name, labels), or None."""
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Counter/gauge value shortcut (None when unregistered)."""
        instrument = self.get(name, **labels)
        return None if instrument is None else instrument.value

    def names(self) -> List[str]:
        return sorted(self._types)

    def type_of(self, name: str) -> Optional[str]:
        """Instrument family bound to ``name``: ``"counter"``,
        ``"gauge"``, ``"histogram"``, or None when unregistered.
        Exposition formats (OpenMetrics) need the family to pick the
        sample suffix, so this is public API rather than ``_types``."""
        cls = self._types.get(name)
        return None if cls is None else cls.__name__.lower()

    def labels_of(self, name: str) -> List[Dict[str, Any]]:
        """Every label set registered under ``name``."""
        return [dict(key) for (n, key) in sorted(self._instruments)
                if n == name]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable dump of every instrument, sorted for
        deterministic output (campaign ``--stats-json``, test goldens)."""
        out: Dict[str, Any] = {}
        for (name, key), instrument in sorted(self._instruments.items()):
            label_str = ",".join(f"{k}={v}" for k, v in key) or "_"
            entry: Dict[str, Any]
            if isinstance(instrument, Histogram):
                entry = {"type": "histogram", "count": instrument.count,
                         "sum": instrument.total, "min": instrument.minimum,
                         "max": instrument.maximum,
                         "buckets": list(instrument.bucket_counts)}
            elif isinstance(instrument, Gauge):
                entry = {"type": "gauge", "value": instrument.value}
            else:
                entry = {"type": "counter", "value": instrument.value}
            out.setdefault(name, {})[label_str] = entry
        return out
