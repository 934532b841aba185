"""Related-work slow-start schemes (paper Section 2).

The paper positions SUSS against a family of end-to-end slow-start
accelerators.  These are implemented here as comparison baselines, each a
simplified-but-faithful rendition of its core idea:

* :class:`LargeIwCubic` — just start bigger (RFC 3390 / RFC 6928 lineage);
  the knob the IETF keeps debating.
* :class:`InitialSpreadingCubic` — Sallantin et al.: a large initial
  window whose packets are *paced across the first RTT* instead of sent
  as a burst.
* :class:`JumpStart` — Liu et al.: skip slow start entirely; pace the
  locally queued data (capped by rwnd) across the first RTT, then fall
  back to standard congestion avoidance and loss handling.
* :class:`Halfback` — Li et al.: JumpStart's aggressive first RTT plus a
  *proactive protection phase*: while unacknowledged first-RTT data is
  outstanding, keep the pace up so losses are patched quickly (the real
  scheme retransmits ~50% of packets; our sender's SACK recovery plays
  that role, so Halfback here is "pace-first + stay-aggressive").
* :class:`StatefulCubic` — Guo & Lee: remember the previous flow's
  achieved window per destination and start the next flow from a fraction
  of it.

None of these perform SUSS's safety analysis, which is exactly the
contrast the paper draws: uncontrolled initial aggression risks loss and
disrupts HyStart, while history/measurement-based estimates are
unreliable in early RTTs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cc.base import AckInfo
from repro.cc.cubic import Cubic


class LargeIwCubic(Cubic):
    """CUBIC starting from a configurable, larger initial window."""

    name = "cubic-iw"

    def __init__(self, iw_segments: int = 32, **cubic_kwargs) -> None:
        super().__init__(**cubic_kwargs)
        self.iw_segments = iw_segments

    def init(self) -> None:
        self._cwnd = float(self.iw_segments * self.mss)


class InitialSpreadingCubic(LargeIwCubic):
    """Large IW, paced over the first RTT (initial spreading).

    The enlarged initial window is released at ``iw / handshakeRTT`` so it
    arrives as a spaced train rather than a burst; afterwards the flow
    behaves exactly like CUBIC (pacing off).

    Observable pathology (and the reason SUSS splits clocking from
    pacing, Section 4): the spread data elicits a spread ACK train, whose
    echo in the next rounds looks to HyStart like a train filling half the
    RTT — ending exponential growth far below cwnd*.  The comparison
    bench shows exactly this premature exit.
    """

    name = "cubic-spread-iw"

    def __init__(self, iw_segments: int = 32, **cubic_kwargs) -> None:
        super().__init__(iw_segments=iw_segments, **cubic_kwargs)
        self._pacing_rate: Optional[float] = None
        self._spreading = False

    @property
    def pacing_rate(self) -> Optional[float]:
        return self._pacing_rate

    def on_data_start(self, now: float) -> None:
        rtt = self.min_rtt
        if rtt:
            self._pacing_rate = self._cwnd / rtt
            self._spreading = True

    def on_ack(self, ack: AckInfo) -> None:
        if self._spreading:
            # First feedback: the spread window has crossed; stop pacing.
            self._spreading = False
            self._pacing_rate = None
        super().on_ack(ack)


class JumpStart(Cubic):
    """Congestion control without a startup phase (JumpStart).

    At data start the whole backlog (capped by the receive window and a
    configurable ceiling) becomes the window, paced across one handshake
    RTT.  The first ACK ends the jump phase; losses are handled by the
    inherited CUBIC machinery, which is what makes JumpStart risky on
    constrained paths — exactly the behaviour the comparison bench probes.
    """

    name = "jumpstart"

    def __init__(self, max_jump_segments: int = 2048, **cubic_kwargs) -> None:
        super().__init__(**cubic_kwargs)
        self.max_jump_segments = max_jump_segments
        self._pacing_rate: Optional[float] = None
        self._jumping = False
        self.jump_bytes = 0

    @property
    def pacing_rate(self) -> Optional[float]:
        return self._pacing_rate

    def on_data_start(self, now: float) -> None:
        sender = self.sender
        rtt = self.min_rtt
        backlog = sender.total_bytes
        cap = min(sender.rwnd, self.max_jump_segments * self.mss)
        self.jump_bytes = max(min(backlog, cap), sender.iw_bytes)
        self._cwnd = float(self.jump_bytes)
        if rtt:
            self._pacing_rate = self.jump_bytes / rtt
            self._jumping = True

    def on_ack(self, ack: AckInfo) -> None:
        if self._jumping:
            self._jumping = False
            self._pacing_rate = None
            # JumpStart terminates its initial phase on the first ACK and
            # continues in congestion avoidance from the jumped window.
            self._ssthresh = self._cwnd
        super().on_ack(ack)


class Halfback(JumpStart):
    """Halfback: jump-started first RTT that stays paced while exposed.

    Keeps the first-RTT pace active until the jumped data is fully
    acknowledged (the "protection" phase), so retransmissions of any
    first-RTT losses go out at the jump rate instead of stalling behind a
    collapsed window.  The window floor during protection models the
    scheme's redundancy budget.
    """

    name = "halfback"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._protecting = False

    def on_data_start(self, now: float) -> None:
        super().on_data_start(now)
        self._protecting = True

    def on_ack(self, ack: AckInfo) -> None:
        if self._protecting:
            if self._jumping:
                # First feedback: the jump phase ends as in JumpStart, but
                # the protection floor below stays armed.
                self._jumping = False
                self._pacing_rate = None
                self._ssthresh = self._cwnd
            if ack.ack_seq >= self.jump_bytes:
                self._protecting = False
            else:
                # Still covering the jumped data: hold the window open so
                # SACK retransmissions of first-RTT losses flow at full
                # speed instead of behind a collapsed window.
                self._cwnd = max(self._cwnd, float(self.jump_bytes))
                return
        super().on_ack(ack)

    def on_loss(self, now: float) -> None:
        if self._protecting:
            # Absorb first-RTT losses: recovery is handled by SACK
            # retransmissions at the held pace.
            return
        super().on_loss(now)


class StatefulCubic(Cubic):
    """Stateful-TCP: seed the initial window from per-destination history.

    A process-wide cache maps destination host name to the last flow's
    slow-start threshold (its learned capacity estimate); new flows to the
    same destination start from ``reuse_fraction`` of it.
    """

    name = "cubic-stateful"

    #: destination -> (ssthresh estimate in bytes, samples)
    _history: Dict[str, Tuple[float, int]] = {}

    def __init__(self, reuse_fraction: float = 0.5, **cubic_kwargs) -> None:
        super().__init__(**cubic_kwargs)
        self.reuse_fraction = reuse_fraction
        self.started_from_history = False

    @classmethod
    def reset_history(cls) -> None:
        cls._history.clear()

    def on_data_start(self, now: float) -> None:
        cached = self._history.get(self.sender.peer)
        if cached is not None:
            estimate, _ = cached
            seeded = max(self.reuse_fraction * estimate,
                         float(self.sender.iw_bytes))
            self._cwnd = seeded
            self.started_from_history = True

    def on_flow_complete(self, now: float) -> None:
        # Remember the achieved capacity estimate for the next flow.
        if self._ssthresh < (1 << 60):
            estimate = float(self._ssthresh)
        else:
            estimate = self._cwnd
        prev = self._history.get(self.sender.peer)
        if prev is None:
            self._history[self.sender.peer] = (estimate, 1)
        else:
            old, n = prev
            self._history[self.sender.peer] = (
                (old * n + estimate) / (n + 1), n + 1)
