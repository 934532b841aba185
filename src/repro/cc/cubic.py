"""CUBIC congestion control (Ha, Rhee, Xu — RFC 9438), with HyStart.

This is the algorithm SUSS extends: slow start with HyStart exit, then the
cubic window-growth function with fast convergence and the TCP-friendly
(Reno-tracking) region.  Window arithmetic follows the kernel implementation
in floating point (segments) for clarity; the shape — concave approach to
``w_max``, plateau, convex probing — is what matters for reproduction.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import AckInfo, CongestionControl
from repro.cc.hystart import HyStart
from repro.cc.reno import INFINITE_SSTHRESH
from repro.obs import records as obsrec


class Cubic(CongestionControl):
    """CUBIC with HyStart slow-start exit."""

    name = "cubic"

    #: cubic scaling constant (segments / s^3)
    C = 0.4
    #: multiplicative decrease factor
    BETA = 0.7

    def __init__(self, hystart: Optional[HyStart] = None,
                 hystart_enabled: bool = True,
                 fast_convergence: bool = True) -> None:
        super().__init__()
        self._cwnd = 0.0
        self._ssthresh = float(INFINITE_SSTHRESH)
        self.hystart = hystart if hystart is not None else HyStart()
        self.hystart_enabled = hystart_enabled
        self.fast_convergence = fast_convergence

        # cubic epoch state (all in segments)
        self._w_max = 0.0
        self._k = 0.0
        self._origin = 0.0
        self._w_est = 0.0
        self._epoch_start: Optional[float] = None

        self.slow_start_exits = 0

    def init(self) -> None:
        self._cwnd = float(self.sender.iw_bytes)

    # ------------------------------------------------------------------
    @property
    def cwnd(self) -> int:
        return int(self._cwnd)

    @property
    def ssthresh(self) -> int:
        return int(min(self._ssthresh, INFINITE_SSTHRESH))

    # ------------------------------------------------------------------
    def on_round_start(self, now: float, round_index: int) -> None:
        if self.in_slow_start:
            self.hystart.on_round_start(now)

    def on_ack(self, ack: AckInfo) -> None:
        if ack.in_recovery:
            return
        if self.in_slow_start:
            if self.hystart_enabled and self.hystart.on_ack(
                    ack.now, ack.rtt_sample, self.min_rtt,
                    self._cwnd / self.mss):
                self.exit_slow_start(ack.now)
            if self.in_slow_start:
                self.slow_start_ack(ack)
                return
        self._congestion_avoidance_ack(ack)

    # -- slow start ------------------------------------------------------
    def slow_start_ack(self, ack: AckInfo) -> None:
        """Traditional slow start: cwnd grows by the bytes acknowledged.

        SUSS overrides this hook to add accelerated growth.
        """
        self._cwnd += ack.acked_bytes

    def exit_slow_start(self, now: float) -> None:
        """Terminate exponential growth (HyStart fired): ssthresh = cwnd."""
        self._ssthresh = self._cwnd
        self.slow_start_exits += 1
        obs = getattr(self.sender, "obs", None)
        if obs is not None:
            obs.emit(now, obsrec.CC_SS_EXIT, self.sender.flow_id,
                     cwnd=self.cwnd, reason="hystart")

    # -- congestion avoidance ---------------------------------------------
    def _congestion_avoidance_ack(self, ack: AckInfo) -> None:
        mss = self.mss
        cwnd_segs = self._cwnd / mss
        if self._epoch_start is None:
            self._epoch_start = ack.now
            if self._w_max > cwnd_segs:
                self._k = ((self._w_max - cwnd_segs) / self.C) ** (1.0 / 3.0)
                self._origin = self._w_max
            else:
                self._k = 0.0
                self._origin = cwnd_segs
            self._w_est = cwnd_segs
        t = ack.now - self._epoch_start + (self.min_rtt or 0.0)
        target = self._origin + self.C * (t - self._k) ** 3
        acked_segs = ack.acked_bytes / mss
        if target > cwnd_segs:
            # At most +0.5 segment per acked segment (Linux caps cnt >= 2).
            inc = min((target - cwnd_segs) / cwnd_segs, 0.5)
        else:
            inc = 0.01 / cwnd_segs
        self._cwnd += mss * inc * acked_segs

        # TCP-friendly region: track what Reno would achieve.
        self._w_est += (3.0 * (1 - self.BETA) / (1 + self.BETA)
                        * acked_segs / cwnd_segs)
        if self._w_est * mss > self._cwnd:
            self._cwnd = self._w_est * mss

    # -- loss handling -----------------------------------------------------
    def on_loss(self, now: float) -> None:
        cwnd_segs = self._cwnd / self.mss
        self._epoch_start = None
        if cwnd_segs < self._w_max and self.fast_convergence:
            self._w_max = cwnd_segs * (2.0 - self.BETA) / 2.0
        else:
            self._w_max = cwnd_segs
        self._ssthresh = max(self._cwnd * self.BETA, 2.0 * self.mss)
        self._cwnd = self._ssthresh

    def on_rto(self, now: float) -> None:
        self._ssthresh = max(self._cwnd * self.BETA, 2.0 * self.mss)
        self._cwnd = float(self.mss)
        self._epoch_start = None
        self.hystart.reset()
