"""SUSS + BBR: the paper's stated future work (Section 7).

    "Like CUBIC, BBR adheres to the exponential growth dynamics of
     traditional slow-start and under-utilizes bottleneck bandwidth in
     early RTTs.  Integrating SUSS with BBR could optimize bandwidth
     utilization and improve FCT of small BBR flows."

This module implements that integration.  BBR's STARTUP already paces
(at ``2/ln2 × BtlBw-estimate``), so SUSS's clocking/pacing split is not
needed — what transfers is the *prediction machinery*: per delivery
round, measure the ACK-train duration and the round's minimum RTT, run
Algorithm 1, and when another round of exponential growth is predicted
(``G > 2``), boost the STARTUP gains for the current round by ``G / 2``.
The boost is applied to both the pacing and cwnd gain, and reverts the
moment the conditions fail, the pipe is declared full, or loss recovery
starts — the same "accelerate only while provably far from cwnd*"
contract SUSS gives CUBIC.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cc.base import AckInfo
from repro.cc.bbr import STARTUP_GAIN, Bbr, BbrMode
from repro.core.growth import DEFAULT_K_MAX, growth_factor
from repro.obs import records as obsrec


class SussBbr(Bbr):
    """BBRv1 with SUSS-accelerated STARTUP."""

    name = "bbr+suss"

    def __init__(self, k_max: int = DEFAULT_K_MAX) -> None:
        super().__init__()
        self.k_max = k_max
        # per-round measurement state
        self._round_start_time = 0.0
        self._round_first_seq = 0
        self._round_prev_train = 0
        self._last_ack_time: Optional[float] = None
        self._train_end_time: Optional[float] = None
        self._mo_rtt: Optional[float] = None
        self._boost = 1.0
        # instrumentation
        self.boosted_rounds = 0
        self.growth_history: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def on_round_start(self, now: float, round_index: int) -> None:
        super().on_round_start(now, round_index)
        if self.mode is BbrMode.STARTUP and not self.filled_pipe:
            self._evaluate_round(now, round_index)
        else:
            self._boost = 1.0
        sender = self.sender
        self._round_start_time = now
        self._round_first_seq = sender.snd_nxt
        self._last_ack_time = now
        self._train_end_time = now
        self._mo_rtt = None

    def _evaluate_round(self, now: float, round_index: int) -> None:
        """Run Algorithm 1 on the round that just ended."""
        sender = self.sender
        min_rtt = sender.rtt.min_rtt
        if min_rtt is None or self._train_end_time is None:
            self._boost = 1.0
            return
        # BBR STARTUP is fully paced, so the whole ACK train is measured
        # directly (there is no blue/red split to scale, ratio == 1).
        dt_at = max(self._train_end_time - self._round_start_time, 0.0)
        r = sender.rtt.rounds_since_min_update(round_index)
        growth = growth_factor(dt_at, self._mo_rtt, min_rtt, r, self.k_max)
        self.growth_history.append((round_index, growth))
        if growth > 2 and not sender.in_recovery:
            self._boost = growth / 2.0
            self.boosted_rounds += 1
        else:
            self._boost = 1.0
        obs = getattr(sender, "obs", None)
        if obs is not None:
            obs.emit(now, obsrec.SUSS_DECISION, sender.flow_id,
                     round=round_index, growth=growth, dt_at=dt_at,
                     boost=self._boost,
                     verdict="boost" if self._boost > 1.0 else "no_growth")

    # ------------------------------------------------------------------
    def on_ack(self, ack: AckInfo) -> None:
        # Track the round's ACK-train extent and minimum RTT before the
        # base class updates its model.
        if self._last_ack_time is not None:
            self._train_end_time = ack.now
        self._last_ack_time = ack.now
        if ack.rtt_sample is not None and (self._mo_rtt is None
                                           or ack.rtt_sample < self._mo_rtt):
            self._mo_rtt = ack.rtt_sample
        super().on_ack(ack)
        if self.filled_pipe:
            # STARTUP is over; acceleration ends with it.
            self._boost = 1.0

    def _gains(self) -> tuple:
        pacing_gain, cwnd_gain = super()._gains()
        if self.mode is BbrMode.STARTUP and self._boost > 1.0:
            return pacing_gain * self._boost, cwnd_gain * self._boost
        return pacing_gain, cwnd_gain

    # ------------------------------------------------------------------
    def on_loss(self, now: float) -> None:
        self._boost = 1.0
        super().on_loss(now)

    def on_rto(self, now: float) -> None:
        self._boost = 1.0
        super().on_rto(now)
