"""HyStart++ (RFC 9406) — the related slow-start variant (paper Section 2).

HyStart++ replaces classic HyStart's ACK-train heuristic with a pure
RTT-increase test and inserts a *Conservative Slow Start* (CSS) phase:
when a delay increase is detected, growth continues at 1/4 speed for a few
rounds; if the delay increase persists, slow start ends, and if it proves
transient (RTT drops back), normal slow start resumes.

Included as a baseline/ablation: it answers "how does SUSS compare to the
other modern slow-start modification?", which the paper cites ([3]) but
does not evaluate.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import AckInfo
from repro.cc.cubic import Cubic

#: RFC 9406 parameters
MIN_RTT_THRESH = 0.004
MAX_RTT_THRESH = 0.016
MIN_RTT_DIVISOR = 8
N_RTT_SAMPLE = 8
CSS_GROWTH_DIVISOR = 4
CSS_ROUNDS = 5


class HyStartPP(Cubic):
    """CUBIC with HyStart++ (RFC 9406) instead of classic HyStart."""

    name = "cubic+hystartpp"

    def __init__(self, **cubic_kwargs) -> None:
        cubic_kwargs.setdefault("hystart_enabled", False)
        super().__init__(**cubic_kwargs)
        self.in_css = False
        self.css_round_count = 0
        self.css_baseline_min_rtt = float("inf")
        self._curr_round_min_rtt = float("inf")
        self._last_round_min_rtt = float("inf")
        self._rtt_sample_count = 0

    # ------------------------------------------------------------------
    def on_round_start(self, now: float, round_index: int) -> None:
        super().on_round_start(now, round_index)
        if not self.in_slow_start:
            return
        self._last_round_min_rtt = self._curr_round_min_rtt
        self._curr_round_min_rtt = float("inf")
        self._rtt_sample_count = 0
        if self.in_css:
            self.css_round_count += 1
            if self.css_round_count >= CSS_ROUNDS:
                # Delay increase persisted: slow start is over.
                self.exit_slow_start(now)

    # ------------------------------------------------------------------
    def slow_start_ack(self, ack: AckInfo) -> None:
        if ack.rtt_sample is not None:
            self._rtt_sample_count += 1
            self._curr_round_min_rtt = min(self._curr_round_min_rtt,
                                           ack.rtt_sample)
        if self.in_css:
            self._css_ack(ack)
        else:
            self._cwnd += ack.acked_bytes
            self._maybe_enter_css()

    def _rtt_thresh(self) -> float:
        base = self._last_round_min_rtt
        if base == float("inf"):
            return float("inf")
        return min(max(base / MIN_RTT_DIVISOR, MIN_RTT_THRESH), MAX_RTT_THRESH)

    def _maybe_enter_css(self) -> None:
        if self._rtt_sample_count < N_RTT_SAMPLE:
            return
        if self._last_round_min_rtt == float("inf") \
                or self._curr_round_min_rtt == float("inf"):
            return
        if self._curr_round_min_rtt >= self._last_round_min_rtt + self._rtt_thresh():
            self.in_css = True
            self.css_round_count = 0
            self.css_baseline_min_rtt = self._last_round_min_rtt

    def _css_ack(self, ack: AckInfo) -> None:
        # Conservative Slow Start: quarter-speed growth.
        self._cwnd += ack.acked_bytes / CSS_GROWTH_DIVISOR
        if self._rtt_sample_count >= N_RTT_SAMPLE \
                and self._curr_round_min_rtt < self.css_baseline_min_rtt:
            # The delay increase was transient: resume regular slow start.
            self.in_css = False
            self.css_round_count = 0

    def on_rto(self, now: float) -> None:
        super().on_rto(now)
        self.in_css = False
        self.css_round_count = 0
