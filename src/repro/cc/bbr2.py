"""BBRv2 (Cardwell et al., IETF 106) — loss-aware comparator.

BBRv2 keeps v1's model-based core but reacts to loss: it bounds inflight
with ``inflight_hi`` (backed off multiplicatively on loss events), exits
STARTUP when loss becomes persistent, and probes with gentler gains.  This
is the second comparator of the paper's Fig. 1 and Table 1(c).

The implementation is a structural simplification (no full
up/down/cruise/refill sub-states); DESIGN.md documents the substitution.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import AckInfo
from repro.cc.bbr import Bbr, BbrMode

#: multiplicative inflight_hi back-off on loss (BBRv2 beta)
LOSS_BETA = 0.7
#: STARTUP exits after this many loss events in a round trip
STARTUP_LOSS_EVENTS = 2
#: headroom kept below inflight_hi while cruising
HEADROOM = 0.85


class Bbr2(Bbr):
    """BBR version 2 (simplified)."""

    name = "bbr2"

    # gentler probing than v1
    PROBE_GAINS = (1.25, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def __init__(self) -> None:
        super().__init__()
        self.inflight_hi: Optional[float] = None
        self._loss_events_in_round = 0

    # ------------------------------------------------------------------
    def on_round_start(self, now: float, round_index: int) -> None:
        super().on_round_start(now, round_index)
        self._loss_events_in_round = 0

    def on_loss(self, now: float) -> None:
        self._loss_events_in_round += 1
        flight = self.sender.bytes_in_flight
        hi = self.inflight_hi if self.inflight_hi is not None else flight
        self.inflight_hi = max(LOSS_BETA * max(hi, flight), 4.0 * self.mss)
        if self.mode is BbrMode.STARTUP \
                and self._loss_events_in_round >= STARTUP_LOSS_EVENTS:
            # Persistent loss: consider the pipe full and stop accelerating.
            self.filled_pipe = True
            self.mode = BbrMode.DRAIN

    # ------------------------------------------------------------------
    def _gains(self) -> tuple:
        if self.mode is BbrMode.PROBE_BW:
            return self.PROBE_GAINS[self.cycle_index], 2.0
        return super()._gains()

    def _set_rates(self, ack: AckInfo) -> None:
        super()._set_rates(ack)
        if self.inflight_hi is None or self.mode is BbrMode.PROBE_RTT:
            return
        bound = self.inflight_hi
        if self.mode is BbrMode.PROBE_BW \
                and self.PROBE_GAINS[self.cycle_index] <= 1.0:
            bound *= HEADROOM
        self._cwnd = min(self._cwnd, max(bound, 4.0 * self.mss))
