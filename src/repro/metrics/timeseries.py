"""Time-series container for sampled connection state.

The paper's evaluation plots cwnd, RTT, and delivered data against time
(Figs. 1, 9, 10, 16); a :class:`TimeSeries` is the stored form of those
curves, with step-interpolation lookup and windowed-rate helpers used to
compute goodput for the fairness analysis (Fig. 15).  The two CSV
writers export series for plotting.
"""

from __future__ import annotations

import bisect
import csv
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

from repro.core.units import Seconds


class TimeSeries:
    """Append-only (time, value) series with step semantics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[Seconds] = []
        self.values: List[float] = []

    def append(self, t: Seconds, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time must be non-decreasing")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    @property
    def empty(self) -> bool:
        return not self.times

    def value_at(self, t: Seconds) -> Optional[float]:
        """Step-interpolated value at time ``t`` (last sample <= t)."""
        idx = bisect.bisect_right(self.times, t) - 1
        if idx < 0:
            return None
        return self.values[idx]

    def window_delta(self, t0: Seconds, t1: Seconds) -> float:
        """Change in value over [t0, t1] for cumulative series."""
        if t1 <= t0:
            raise ValueError("t1 must exceed t0")
        v0 = self.value_at(t0) or 0.0
        v1 = self.value_at(t1) or 0.0
        return v1 - v0

    def rate(self, t0: Seconds, t1: Seconds) -> float:
        """Mean growth rate over [t0, t1] (goodput for delivered-bytes series)."""
        return self.window_delta(t0, t1) / (t1 - t0)

    def max_value(self) -> Optional[float]:
        return max(self.values) if self.values else None

    def min_value(self) -> Optional[float]:
        return min(self.values) if self.values else None

    def resample(self, interval: Seconds, t_end: Optional[Seconds] = None
                 ) -> "TimeSeries":
        """Step-resample at fixed ``interval`` (useful for plotting/export)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        out = TimeSeries(self.name)
        if self.empty:
            return out
        t = self.times[0]
        end = t_end if t_end is not None else self.times[-1]
        while t <= end:
            value = self.value_at(t)
            if value is not None:
                out.append(t, value)
            t += interval
        return out


def write_timeseries(out: TextIO, series: TimeSeries,
                     value_label: str = "value") -> None:
    """Write one time series as ``time,<value_label>`` rows."""
    writer = csv.writer(out)
    writer.writerow(["time", value_label])
    for t, v in series:
        writer.writerow([f"{t:.6f}", repr(v)])


def write_multi_timeseries(out: TextIO, series_by_name: Dict[str, TimeSeries],
                           interval: Seconds) -> None:
    """Write several series step-resampled onto a common time grid."""
    if not series_by_name:
        raise ValueError("need at least one series")
    if interval <= 0:
        raise ValueError("interval must be positive")
    t_start = min(s.times[0] for s in series_by_name.values() if not s.empty)
    t_end = max(s.times[-1] for s in series_by_name.values() if not s.empty)
    names = sorted(series_by_name)
    writer = csv.writer(out)
    writer.writerow(["time"] + names)
    t = t_start
    while t <= t_end:
        row = [f"{t:.6f}"]
        for name in names:
            value = series_by_name[name].value_at(t)
            row.append("" if value is None else repr(value))
        writer.writerow(row)
        t += interval
