"""TCP Reno (NewReno window arithmetic).

Provided as the simplest baseline and as the shared base class for the
window bookkeeping other algorithms reuse (initial window, infinite initial
ssthresh, multiplicative decrease helpers).
"""

from __future__ import annotations

from repro.cc.base import AckInfo, CongestionControl

#: "Infinite" initial slow-start threshold.
INFINITE_SSTHRESH = 1 << 62


class Reno(CongestionControl):
    """Classic AIMD: slow start, congestion avoidance, halving on loss."""

    name = "reno"

    def __init__(self) -> None:
        super().__init__()
        self._cwnd = 0.0
        self._ssthresh = float(INFINITE_SSTHRESH)

    def init(self) -> None:
        self._cwnd = float(self.sender.iw_bytes)

    @property
    def cwnd(self) -> int:
        return int(self._cwnd)

    @property
    def ssthresh(self) -> int:
        return int(self._ssthresh)

    # ------------------------------------------------------------------
    def on_ack(self, ack: AckInfo) -> None:
        if ack.in_recovery:
            return
        if self.in_slow_start:
            self._cwnd += ack.acked_bytes
        else:
            # ~1 MSS per RTT of growth.
            self._cwnd += self.mss * ack.acked_bytes / self._cwnd

    def on_loss(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0 * self.mss)
        self._cwnd = self._ssthresh

    def on_rto(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0 * self.mss)
        self._cwnd = float(self.mss)
