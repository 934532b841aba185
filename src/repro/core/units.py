"""Unit type aliases and canonical conversion constants.

Every quantity in the reproduction is a plain number at runtime.  The
aliases here are ordinary ``float`` aliases with no runtime cost or
behaviour; annotating a signature with one documents the quantity's
dimension:

>>> def bdp_bytes(rate: BytesPerSec, rtt: Seconds) -> Bytes: ...

The conversion constants are the single source of truth for the magic
numbers that would otherwise appear inline (``* 8``, ``* 1000``,
``125_000``), so ``rtt * MILLIS_PER_SECOND`` says what it converts.

This module is a dependency-free leaf: any layer (``sim``, ``net``,
``tcp``, ...) may import it, which the layering checker permits through
an explicit ``core.units`` waiver (see DESIGN.md §6).  That is also why
:func:`bdp_bytes` — arithmetic on a rate and a delay — is defined here:
scenario data sizes buffers with it without importing :mod:`repro.net`.
"""

from __future__ import annotations

# -- unit type aliases (annotation vocabulary) -------------------------
#: elapsed or absolute simulated time, in seconds.
Seconds = float
#: a byte count (sizes, windows, buffer capacities).
Bytes = float
#: a count of MSS-sized segments (cwnd in packets, CSA00's ``d``).
Segments = float
#: a data rate in bytes per second (bandwidths, pacing rates).
BytesPerSec = float
#: an event rate in 1/seconds (e.g. flow arrivals per second).
PerSecond = float

# -- canonical conversion constants ------------------------------------
#: bytes/second per Mbit/s: ``50 * MBPS`` is a 50 Mbit/s link's byte rate.
MBPS = 125_000
#: bits per byte: ``goodput_bytes_per_sec * BITS_PER_BYTE`` is bits/sec.
BITS_PER_BYTE = 8
#: bytes per megabyte (decimal, as in the paper's flow sizes).
MB = 1_000_000
#: bits per megabit: ``bits / MBIT`` renders a Mbit figure.
MBIT = 1e6
#: milliseconds per second: ``rtt * MILLIS_PER_SECOND`` renders ms.
MILLIS_PER_SECOND = 1000
#: microseconds per second (profiler output).
MICROS_PER_SECOND = 1e6
#: the reproduction's maximum segment size in payload bytes
#: (:data:`repro.net.packet.DEFAULT_MSS` re-exports this value).
MSS = 1448


def bdp_bytes(rate_bytes_per_sec: BytesPerSec, rtt_seconds: Seconds) -> Bytes:
    """Bandwidth-delay product in bytes (:data:`repro.net.bdp_bytes` is
    this function)."""
    return max(int(rate_bytes_per_sec * rtt_seconds), 2 * 1500)


__all__ = [
    "Seconds", "Bytes", "Segments", "BytesPerSec", "PerSecond",
    "MBPS", "BITS_PER_BYTE", "MB", "MBIT",
    "MILLIS_PER_SECOND", "MICROS_PER_SECOND", "MSS", "bdp_bytes",
]
