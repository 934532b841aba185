"""Profiling hooks: per-event-type wall-time and fire-count aggregation.

The engine hands every fired event to :meth:`EventProfiler.fire`, which
times the callback and aggregates (count, total seconds, max seconds)
per callback ``__qualname__`` — the event *type* in a simulator where
behaviour is callbacks, not classes.  Aggregation is O(1) per event and
allocation-free after the first sighting of each key, so profiled runs
stay within a small constant factor of unprofiled ones.

Wall-clock note: this module is the one place outside ``campaign/``
allowed to read real time (see
:func:`repro.analysis.lint.applicable_rules`) — profiling *is* the
measurement of real time.  Profiler output must never flow into
simulation results or trace digests.

A process-global profiler can be installed so that code which builds
its own ``Simulator`` instances internally (the experiment harnesses)
still aggregates into one report — that is what ``repro profile
<experiment>`` uses, via :func:`install_global`; every ``Simulator``
built while one is installed reads it through
:func:`global_profiler`.  No environment variable turns profiling on:
a profiler that nothing reports would only slow the run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class EventProfiler:
    """Aggregates per-event-type wall time across one or more runs."""

    def __init__(self) -> None:
        #: key -> [fires, total_seconds, max_seconds]
        self.stats: Dict[str, List[float]] = {}
        self.events = 0

    # ------------------------------------------------------------------
    def fire(self, callback: Callable[..., None], args: Tuple[Any, ...]) -> None:
        """Run ``callback(*args)``, timing it under the callback's name."""
        start = time.perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.note(getattr(callback, "__qualname__", repr(callback)),
                      elapsed)

    def note(self, key: str, elapsed: float) -> None:
        """Record one fire of ``key`` taking ``elapsed`` seconds."""
        self.events += 1
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, elapsed, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
            if elapsed > entry[2]:
                entry[2] = elapsed

    # ------------------------------------------------------------------
    #: sort key name -> index into a rows() tuple
    SORT_KEYS = {"total": 2, "count": 1, "mean": 3}

    def rows(self, sort: str = "total"
             ) -> List[Tuple[str, int, float, float, float]]:
        """(key, fires, total_s, mean_s, max_s) tuples.

        ``sort`` picks the descending sort column: ``total`` (default),
        ``count`` (fires), or ``mean`` (seconds per fire); ties fall
        back to the key name for deterministic output.
        """
        column = self.SORT_KEYS.get(sort)
        if column is None:
            raise ValueError(f"unknown sort key {sort!r}; "
                             f"known: {', '.join(sorted(self.SORT_KEYS))}")
        out = []
        for key, (fires, total, peak) in self.stats.items():
            out.append((key, int(fires), total, total / fires, peak))
        out.sort(key=lambda row: (-row[column], row[0]))
        return out

    def total_seconds(self) -> float:
        return sum(total for _, total, _ in self.stats.values())

    def format_report(self, top: Optional[int] = None,
                      sort: str = "total") -> str:
        """Human-readable table of the hottest event types."""
        # Imported here, not at module scope: obs is loaded while repro.cc
        # is still initialising, and repro.core.__init__ (which a fresh
        # core.units import triggers) reaches back into cc for SussCubic.
        from repro.core.units import MICROS_PER_SECOND

        rows = self.rows(sort=sort)
        if top is not None:
            rows = rows[:top]
        if not rows:
            return "no events profiled"
        width = max(len(row[0]) for row in rows)
        width = max(width, len("event type"))
        lines = [f"{'event type':<{width}}  {'fires':>9}  {'total':>10}  "
                 f"{'mean':>10}  {'max':>10}"]
        lines.append("-" * len(lines[0]))
        for key, fires, total, mean, peak in rows:
            lines.append(f"{key:<{width}}  {fires:>9}  {total:>9.4f}s  "
                         f"{mean * MICROS_PER_SECOND:>8.2f}us  "
                         f"{peak * MICROS_PER_SECOND:>8.2f}us")
        lines.append(f"{self.events} events, "
                     f"{self.total_seconds():.4f}s in callbacks")
        return "\n".join(lines)

    def collapsed_stacks(self) -> List[str]:
        """Folded-stack lines for flamegraph tooling.

        One line per key, ``frame;frame <count>``: qualname segments
        become stack frames (``Link.transmit`` → ``Link;transmit``) and
        the count is total wall time in integer microseconds (clamped
        to ≥1 so a key that fired is never rendered as empty).  Sorted
        by key, so equal profiles fold to identical output —
        :func:`parse_collapsed` is the exact inverse, which the
        round-trip test pins.
        """
        from repro.core.units import MICROS_PER_SECOND  # see format_report

        lines = []
        for key in sorted(self.stats):
            total = self.stats[key][1]
            micros = max(int(round(total * MICROS_PER_SECOND)), 1)
            lines.append(f"{key.replace('.', ';')} {micros}")
        return lines

    def reset(self) -> None:
        self.stats.clear()
        self.events = 0


def parse_collapsed(lines: List[str]) -> Dict[str, int]:
    """Inverse of :meth:`EventProfiler.collapsed_stacks`.

    Maps each folded stack back to its dotted profiler key with the
    microsecond count — the round-trip contract flamegraph consumers
    rely on (and the fold-format test asserts).
    """
    out: Dict[str, int] = {}
    for line in lines:
        stack, _, count = line.rpartition(" ")
        if not stack:
            raise ValueError(f"malformed folded line {line!r}")
        out[stack.replace(";", ".")] = int(count)
    return out


# ----------------------------------------------------------------------
# process-global profiler (for harnesses that build Simulators internally)
# ----------------------------------------------------------------------
_GLOBAL: Optional[EventProfiler] = None


def install_global(profiler: Optional[EventProfiler] = None) -> EventProfiler:
    """Install (or create) the process-global profiler and return it.

    Every subsequently-constructed :class:`repro.sim.engine.Simulator`
    that is given no ``obs=`` aggregates into this instance.
    """
    global _GLOBAL
    _GLOBAL = profiler if profiler is not None else EventProfiler()
    return _GLOBAL


def clear_global() -> None:
    """Uninstall the process-global profiler."""
    global _GLOBAL
    _GLOBAL = None


def global_profiler() -> Optional[EventProfiler]:
    """The installed process-global profiler, or None."""
    return _GLOBAL
