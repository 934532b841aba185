"""BBRv1 (Cardwell et al. 2016) — model-based comparator.

A structurally faithful simplification of the kernel module: the
STARTUP → DRAIN → PROBE_BW (8-phase gain cycle) → PROBE_RTT state machine,
a windowed-max bottleneck-bandwidth filter over delivery-rate samples, a
10-second min-RTT filter, pacing at ``pacing_gain × BtlBw`` and a cwnd of
``cwnd_gain × BDP``.  Loss is (as in BBRv1) not a primary congestion
signal.  The paper uses BBR purely as a comparator; what matters for the
reproduction is its startup dynamics (same exponential growth rate as slow
start, Section 2) and its loss tolerance (Fig. 2) — both of which this
model captures.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.cc.base import AckInfo, CongestionControl
from repro.cc.filters import windowed_max
from repro.cc.reno import INFINITE_SSTHRESH

#: 2 / ln(2): fills the pipe while doubling delivered data per RTT.
STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: delivery rounds in the bandwidth max-filter window
BW_WINDOW_ROUNDS = 10
#: seconds before the min-RTT estimate is considered stale
MIN_RTT_WINDOW = 10.0
PROBE_RTT_DURATION = 0.2
#: startup is "full" after this many rounds without 25% bandwidth growth
FULL_BW_ROUNDS = 3
FULL_BW_GROWTH = 1.25


class BbrMode(Enum):
    STARTUP = "startup"
    DRAIN = "drain"
    PROBE_BW = "probe_bw"
    PROBE_RTT = "probe_rtt"


class Bbr(CongestionControl):
    """BBR version 1."""

    name = "bbr"

    def __init__(self) -> None:
        super().__init__()
        self.mode = BbrMode.STARTUP
        self.max_bw = windowed_max(BW_WINDOW_ROUNDS)
        self.rtprop: Optional[float] = None
        self.rtprop_stamp = 0.0
        # Packet-timed delivery rounds (as in the kernel): a round ends when
        # the data that was in flight at its start has been delivered.
        # Sender rounds stall during loss recovery; these do not.
        self._round = 0
        self._round_end_delivered = 0
        self.full_bw = 0.0
        self.full_bw_rounds = 0
        self.filled_pipe = False
        self.cycle_index = 2  # skip the 0.75 drain phase on entry
        self.cycle_stamp = 0.0
        self.probe_rtt_done_stamp: Optional[float] = None
        self._cwnd = 0.0
        self._pacing_rate: Optional[float] = None
        self._post_rto = False

    def init(self) -> None:
        self._cwnd = float(self.sender.iw_bytes)

    # ------------------------------------------------------------------
    @property
    def cwnd(self) -> int:
        return int(self._cwnd)

    @property
    def ssthresh(self) -> int:
        return INFINITE_SSTHRESH

    @property
    def in_slow_start(self) -> bool:
        return self.mode is BbrMode.STARTUP

    @property
    def pacing_rate(self) -> Optional[float]:
        return self._pacing_rate

    @property
    def bottleneck_bw(self) -> Optional[float]:
        return self.max_bw.get()

    def bdp(self, gain: float = 1.0) -> Optional[float]:
        bw = self.bottleneck_bw
        if bw is None or self.rtprop is None:
            return None
        return gain * bw * self.rtprop

    # ------------------------------------------------------------------
    def _advance_round(self) -> None:
        sender = self.sender
        if sender.delivered >= self._round_end_delivered:
            self._round += 1
            self._round_end_delivered = sender.delivered + sender.bytes_in_flight
            if self.mode is BbrMode.STARTUP:
                self._check_full_pipe()

    def _check_full_pipe(self) -> None:
        bw = self.bottleneck_bw
        if bw is None or self.filled_pipe:
            return
        if bw >= self.full_bw * FULL_BW_GROWTH:
            self.full_bw = bw
            self.full_bw_rounds = 0
            return
        self.full_bw_rounds += 1
        if self.full_bw_rounds >= FULL_BW_ROUNDS:
            self.filled_pipe = True
            self.mode = BbrMode.DRAIN

    # ------------------------------------------------------------------
    def on_ack(self, ack: AckInfo) -> None:
        now = ack.now
        self._advance_round()
        if ack.delivery_rate is not None:
            current = self.bottleneck_bw
            if not ack.app_limited or current is None \
                    or ack.delivery_rate > current:
                self.max_bw.update(self._round, ack.delivery_rate)
        if ack.rtt_sample is not None:
            if self.rtprop is None or ack.rtt_sample < self.rtprop \
                    or now - self.rtprop_stamp > MIN_RTT_WINDOW:
                self.rtprop = ack.rtt_sample
                self.rtprop_stamp = now

        self._update_mode(ack)
        self._set_rates(ack)

    def _update_mode(self, ack: AckInfo) -> None:
        now = ack.now
        if self.mode is BbrMode.DRAIN:
            bdp = self.bdp()
            if bdp is not None and ack.flight <= bdp:
                self.mode = BbrMode.PROBE_BW
                self.cycle_index = 2
                self.cycle_stamp = now
        elif self.mode is BbrMode.PROBE_BW:
            if self.rtprop is not None and now - self.cycle_stamp > self.rtprop:
                self.cycle_index = (self.cycle_index + 1) % len(PROBE_BW_GAINS)
                self.cycle_stamp = now
            if now - self.rtprop_stamp > MIN_RTT_WINDOW:
                self.mode = BbrMode.PROBE_RTT
                self.probe_rtt_done_stamp = now + PROBE_RTT_DURATION
        elif self.mode is BbrMode.PROBE_RTT:
            assert self.probe_rtt_done_stamp is not None
            if now > self.probe_rtt_done_stamp:
                self.rtprop_stamp = now
                self.mode = (BbrMode.PROBE_BW if self.filled_pipe
                             else BbrMode.STARTUP)
                self.cycle_stamp = now

    def _gains(self) -> tuple:
        if self.mode is BbrMode.STARTUP:
            return STARTUP_GAIN, STARTUP_GAIN
        if self.mode is BbrMode.DRAIN:
            return DRAIN_GAIN, STARTUP_GAIN
        if self.mode is BbrMode.PROBE_BW:
            return PROBE_BW_GAINS[self.cycle_index], 2.0
        return 1.0, 1.0  # PROBE_RTT

    def _set_rates(self, ack: AckInfo) -> None:
        pacing_gain, cwnd_gain = self._gains()
        bw = self.bottleneck_bw
        if bw is not None:
            self._pacing_rate = max(pacing_gain * bw, 1.0)
        if self.mode is BbrMode.PROBE_RTT:
            self._cwnd = 4.0 * self.mss
            return
        bdp = self.bdp(cwnd_gain)
        if self._post_rto:
            # Packet-conserving rebuild after a timeout (the kernel grows
            # cwnd from 1 segment instead of jumping back to the model
            # target, which would re-flood the queue that just overflowed).
            self._cwnd += ack.acked_bytes
            target = self.bdp(1.0)
            if target is not None and self._cwnd >= target:
                self._post_rto = False
            return
        if bdp is None:
            # No estimates yet: grow like slow start.
            self._cwnd += ack.acked_bytes
        elif ack.in_recovery:
            # Packet conservation while loss recovery drains the queue
            # (the kernel's conservative recovery behaviour).
            self._cwnd = max(self.bdp(1.0) or bdp, 4.0 * self.mss)
        else:
            self._cwnd = max(bdp, 4.0 * self.mss)

    # ------------------------------------------------------------------
    def on_loss(self, now: float) -> None:
        # BBRv1 does not react to isolated losses.
        pass

    def on_rto(self, now: float) -> None:
        # Conservative restart; cwnd is rebuilt ACK by ACK (see _set_rates).
        self._cwnd = float(self.mss)
        self._post_rto = True
