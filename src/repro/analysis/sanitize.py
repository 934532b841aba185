"""Runtime simulation sanitizer (the dynamic half of ``repro.analysis``).

When enabled — ``REPRO_SANITIZE=1`` in the environment, or an explicit
:class:`SimSanitizer` passed to :class:`repro.sim.engine.Simulator` —
the engine, network substrate, and TCP stack feed this module their
invariants on every event.  (Causality — no event at a NaN, infinite
or past time — is the engine's own refusal on every run, not a
sanitizer check.)

``SAN002``
    Heap monotonicity: fired events must carry non-decreasing times.
``SAN003``
    Packet conservation: every packet entering the network (host
    transmit) is eventually delivered to a host, dropped (queue
    overflow, AQM, random loss), or still in flight; at teardown with a
    drained event queue, in-flight must be zero.
``SAN004``
    cwnd never falls below 1 MSS and stays finite.
``SAN005``
    The pacing rate, when set, is finite and positive.
``SAN006``
    Loss-recovery bookkeeping: the sender's SACK scoreboard and the
    receiver's reassembly buffer stay sorted, disjoint, non-touching and
    strictly above the cumulative point, their running byte counter
    equals the recomputed sum, and the sender's retransmit cursor never
    passes the highest SACKed byte.

This module deliberately has **no imports from other repro layers** so
the engine (the bottom of the layer DAG) can use it without inverting
the DAG; hook sites pass plain numbers and counts.

Violations raise :class:`SanitizeError` (an ``AssertionError`` subclass,
so sanitized CI runs fail loudly and ordinary exception handling in
simulation code does not swallow them).
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional, Sequence

#: environment variable that switches the sanitizer on for new Simulators
ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = {"1", "true", "yes", "on"}


class SanitizeError(AssertionError):
    """A runtime simulation invariant was violated."""


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests sanitized runs."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def from_env() -> Optional["SimSanitizer"]:
    """A fresh sanitizer when ``REPRO_SANITIZE`` is set, else None."""
    return SimSanitizer() if sanitize_enabled() else None


class SimSanitizer:
    """Per-simulation invariant checker; one instance per Simulator."""

    def __init__(self) -> None:
        self.last_fired = -math.inf
        self.events_checked = 0
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.drop_sites: Dict[str, int] = {}

    # -- SAN002: engine hook -------------------------------------------
    def note_fire(self, when: float) -> None:
        """Record an event firing; times must be non-decreasing."""
        if when < self.last_fired:
            raise SanitizeError(
                f"SAN002: event fired at {when!r} behind the clock "
                f"(last fired at {self.last_fired!r}); the event heap "
                f"ordering is corrupt")
        self.last_fired = when
        self.events_checked += 1

    # -- SAN003: packet conservation -----------------------------------
    @property
    def packets_in_flight(self) -> int:
        return self.packets_sent - self.packets_delivered - self.packets_dropped

    def note_network_send(self) -> None:
        """A packet entered the network (host transmit)."""
        self.packets_sent += 1

    def note_network_deliver(self) -> None:
        """A packet reached an end host."""
        self.packets_delivered += 1
        if self.packets_in_flight < 0:
            raise SanitizeError(
                f"SAN003: more packets accounted for than were sent "
                f"(sent={self.packets_sent}, "
                f"delivered={self.packets_delivered}, "
                f"dropped={self.packets_dropped}); a packet was delivered "
                f"or dropped twice")

    def note_network_drop(self, where: str, count: int = 1) -> None:
        """``count`` packets were discarded at ``where``."""
        self.packets_dropped += count
        self.drop_sites[where] = self.drop_sites.get(where, 0) + count
        if self.packets_in_flight < 0:
            raise SanitizeError(
                f"SAN003: more packets accounted for than were sent "
                f"(sent={self.packets_sent}, "
                f"delivered={self.packets_delivered}, "
                f"dropped={self.packets_dropped}, last drop at {where!r})")

    def verify_conservation(self, pending_events: int) -> None:
        """Teardown check: sent = delivered + dropped (+ in-flight).

        With a drained event queue nothing can still be serialising,
        propagating, or queued behind a busy link, so in-flight must be
        exactly zero.  While events remain pending (a run truncated by
        ``until``), packets may legitimately be in flight, but never a
        negative number of them.
        """
        in_flight = self.packets_in_flight
        if in_flight < 0:
            raise SanitizeError(
                f"SAN003: packet conservation violated: sent="
                f"{self.packets_sent} < delivered={self.packets_delivered} "
                f"+ dropped={self.packets_dropped}")
        if pending_events == 0 and in_flight != 0:
            raise SanitizeError(
                f"SAN003: {in_flight} packet(s) vanished: the event queue "
                f"is drained but sent={self.packets_sent} != delivered="
                f"{self.packets_delivered} + dropped={self.packets_dropped} "
                f"(drop sites: {self.drop_sites or 'none'})")

    # -- SAN004 / SAN005: congestion-control invariants ----------------
    def check_cwnd(self, flow_id: int, cwnd: float, mss: int) -> None:
        """cwnd must stay finite and at least 1 MSS (RFC 5681 floor)."""
        if not math.isfinite(cwnd) or cwnd < mss:
            raise SanitizeError(
                f"SAN004: flow {flow_id}: cwnd={cwnd!r} violates the "
                f">= 1 MSS ({mss}) invariant")

    def check_pacing_rate(self, flow_id: int, rate: Optional[float]) -> None:
        """A set pacing rate must be finite and positive (None = unpaced)."""
        if rate is None:
            return
        if not math.isfinite(rate) or rate <= 0:
            raise SanitizeError(
                f"SAN005: flow {flow_id}: pacing rate {rate!r} must be "
                f"finite and positive")

    # -- SAN006: loss-recovery interval bookkeeping ----------------------
    def check_intervals(self, flow_id: int, what: str,
                        starts: Sequence[int], ends: Sequence[int],
                        total: int, floor: int) -> None:
        """An incrementally maintained interval set must equal what a
        rebuild from scratch would give: ascending, non-empty intervals
        with a gap between neighbours, all strictly above ``floor`` (the
        cumulative ACK point), and ``total`` their summed length."""
        if len(starts) != len(ends):
            raise SanitizeError(
                f"SAN006: flow {flow_id}: {what} holds {len(starts)} "
                f"starts but {len(ends)} ends")
        previous_end = floor
        for start, end in zip(starts, ends):
            if start <= previous_end or end <= start:
                raise SanitizeError(
                    f"SAN006: flow {flow_id}: {what} interval "
                    f"[{start}, {end}) is empty, out of order, or not "
                    f"strictly above {previous_end} (the cumulative point "
                    f"or the previous interval's end)")
            previous_end = end
        recomputed = sum(ends) - sum(starts)
        if total != recomputed:
            raise SanitizeError(
                f"SAN006: flow {flow_id}: {what} running byte count "
                f"{total} != recomputed {recomputed}")

    def check_retx_cursor(self, flow_id: int, cursor: int,
                          highest: int) -> None:
        """The hole walk only covers gaps *below* SACKed data, so its
        resume point never passes ``highest`` (the highest SACKed byte,
        or snd_una once that overtakes it)."""
        if cursor > highest:
            raise SanitizeError(
                f"SAN006: flow {flow_id}: retransmit cursor {cursor} is "
                f"beyond the highest SACKed byte {highest}; holes below "
                f"it would never be retransmitted")
