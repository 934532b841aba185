"""CSA00-style closed-form flow-completion-time model.

Cardwell, Savage & Anderson ("Modeling TCP Latency", INFOCOM 2000)
decompose a transfer's expected latency into

* the handshake,
* the initial slow-start phase (exponential window growth at ``gamma``
  per round — the delayed-ACK factor — until the data runs out, the
  pipe fills, or a loss ends the phase),
* the expected cost of the loss episode that ends slow start (fast
  recovery vs RTO, with the ``G(p)`` backoff expansion), and
* the remaining data at the steady-state throughput of the PFTK98
  send-rate formula.

This module implements that structure against *this repository's*
packet tier: the slow-start phase is walked as a discrete round ladder
(`O(log W)`, still no per-packet events) because the packet simulator's
windows genuinely are discrete doublings from ``iw = 10``, and the
continuous-approximation error of the original Eq. 15 is the largest
avoidable disagreement between the tiers.  The loss-episode and
steady-state terms follow the paper's equations (5), (16)–(24).

The growth schedule is a hook (:meth:`Csa00Model.growth_factor`):
:class:`repro.flowsim.suss_term.SussCsa00Model` overrides it to model
SUSS's compressed slow start and changes nothing else — exactly the
paper's framing that slow-start time is the term SUSS compresses.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Tuple

from repro.core.units import Bytes, Seconds
from repro.flowsim.model import (
    FlowEstimate,
    FlowModel,
    PathParams,
    register_model,
    rounds_for_data,
)
# The packet tier's retransmission-timeout floor; sharing the constant
# keeps the analytical ladder's RTO arithmetic in lock-step with the
# simulator's actual timer.
from repro.tcp.rtt import RTO_MIN

#: slow start is considered to have filled the pipe once the window
#: covers this fraction of the BDP: HyStart's delay condition fires at
#: 1.125x minRTT of queueing, i.e. just past a full pipe, and the last
#: doubling overshoots — the packet tier exits within [1, 1.5] BDP, so
#: the midpoint keeps the ladder honest on both sides.
SATURATION_BDP_FRACTION = 1.25


class _Ladder(NamedTuple):
    """Outcome of walking the slow-start round ladder."""

    rounds: int               # rounds spent in slow start
    sent: float               # segments sent during those rounds
    cwnd: float               # window when the phase ended (segments)
    final_window: float       # window sent in the final round
    prev_window: float        # window of the round before the final one
    sent_before_final: float  # cumulative segments before the final round
    saturated: bool           # ended because the pipe filled (not data)
    rounds_saved: int         # rounds a gamma-only ladder would have added


#: one rung per slow-start round count ``r``, as the walk's loop
#: variables stood after ``r`` rounds: ``(cwnd, final_window,
#: prev_window, sent_before_final, baseline_rounds)``.
_Rung = Tuple[float, float, float, float, int]


class Csa00Model(FlowModel):
    """The CSA00 closed-form FCT model (traditional slow start)."""

    name = "csa00"

    def __init__(self) -> None:
        # The round ladder of the last path estimated: the cumulative
        # segments sent after 0, 1, … rounds and the rung reached at
        # each (see ``_ladder``).
        self._rungs_path: Optional[PathParams] = None
        self._rungs_sent: List[float] = []
        self._rungs: List[_Rung] = []

    # -- the growth schedule hooks ------------------------------------
    def growth_factor(self, cwnd: float, round_index: int,
                      path: PathParams) -> float:
        """Window multiplier entering round ``round_index + 1``, decided
        from round ``round_index``'s ACK train (``cwnd`` is that round's
        window).

        Traditional slow start grows by the delayed-ACK factor
        ``gamma`` every round regardless of the window's position in
        the pipe.  An override must be a function of its arguments and
        of what the model was constructed with, and exceed 1: the rounds
        are walked once per path, up to saturation.
        """
        return path.gamma

    def final_round_time(self, remaining: float, ladder: _Ladder,
                         path: PathParams) -> Seconds:
        """Time from the final (data-limited) round's start until the
        last byte is ACKed.

        With ACK-clocked sending the tail's release spreads over the
        early part of the round; the last byte still pays the tail's
        bottleneck serialisation — negligible below the BDP, but the
        binding term once the final window overshoots the pipe — plus
        the final round-trip.  SUSS overrides this: a paced red tail
        leaves on the pacing plan's schedule, not the ACK clock.
        """
        drain = remaining * path.wire_segment / path.btl_bw
        return drain + path.effective_rtt

    # -- slow-start ladder --------------------------------------------
    def _ladder(self, segments: float, path: PathParams) -> _Ladder:
        """Slow-start rounds until ``segments`` are covered or the pipe
        saturates.  ``segments`` may be fractional (an expectation from
        the loss-episode analysis).

        The rounds themselves depend on the path and the growth schedule
        only — ``segments`` decides where the walk stops — so they are
        walked once per path and a flow finds its rung by bisecting the
        cumulative-sent column: the first round count whose data covers
        ``segments``, or the saturating one.
        """
        if path is not self._rungs_path and path != self._rungs_path:
            self._rungs_sent, self._rungs = self._walk_rungs(path)
            self._rungs_path = path
        rounds = min(bisect_left(self._rungs_sent, segments),
                     len(self._rungs) - 1)
        sent = self._rungs_sent[rounds]
        cwnd, final, prev, before_final, baseline_rounds = self._rungs[rounds]
        saturated = sent < segments
        saved = max(baseline_rounds - rounds, 0) if saturated else 0
        if not saturated and rounds > 0:
            # Data ran out: compare against the gamma-only round count
            # for the same amount of data.
            base = rounds_for_data(path.iw_segments, path.gamma, segments)
            saved = max(base - rounds, 0)
        return _Ladder(rounds=rounds, sent=min(sent, segments), cwnd=cwnd,
                       final_window=final, prev_window=prev,
                       sent_before_final=before_final,
                       saturated=saturated, rounds_saved=saved)

    def _walk_rungs(self, path: PathParams) -> Tuple[List[float], List[_Rung]]:
        """Walk ``path``'s slow-start rounds from ``iw`` until the window
        reaches the saturation cap (no round at all when ``iw`` already
        does): the cumulative-sent column and the rung after each round
        count, index 0 being the state before the first round."""
        cap = min(path.bdp_segments * SATURATION_BDP_FRACTION,
                  path.rwnd_segments)
        cwnd = float(path.iw_segments)
        prev = cwnd
        final = cwnd
        sent = 0.0
        before_final = 0.0
        rounds = 0
        baseline_cwnd = float(path.iw_segments)
        baseline_rounds = 0
        sent_column = [sent]
        rungs = [(cwnd, final, prev, before_final, baseline_rounds)]
        while cwnd < cap:
            rounds += 1
            prev = final
            final = cwnd
            before_final = sent
            sent += cwnd
            grown = cwnd * self.growth_factor(cwnd, rounds, path)
            cwnd = min(grown, path.rwnd_segments)
            # Track how many rounds a gamma-only ladder needs to reach
            # the same window — the difference is the rounds the growth
            # schedule (e.g. SUSS) compressed away.
            while baseline_cwnd < min(cwnd, cap) - 1e-9:
                baseline_cwnd *= path.gamma
                baseline_rounds += 1
            sent_column.append(sent)
            rungs.append((cwnd, final, prev, before_final, baseline_rounds))
        return sent_column, rungs

    # -- CSA00 loss machinery -----------------------------------------
    @staticmethod
    def expected_ss_segments(d: int, p: float) -> float:
        """Eq. 5: expected segments sent in the initial slow-start phase."""
        if p <= 0.0:
            return float(d)
        return min(float(d),
                   math.floor((1.0 - (1.0 - p) ** d) * (1.0 - p) / p + 1.0))

    @staticmethod
    def q_rto(p: float, w: float) -> float:
        """Eq. 17: probability a loss in a window of ``w`` needs an RTO."""
        if p <= 0.0:
            return 0.0
        w = max(w, 1.0)
        q = 1.0 - (1.0 - p) ** w
        if q <= 0.0:
            return 0.0
        numer = 1.0 + (1.0 - p) ** 3 * (1.0 - (1.0 - p) ** max(w - 3.0, 0.0))
        denom = q / (1.0 - (1.0 - p) ** 3)
        return min(1.0, numer / denom)

    @staticmethod
    def backoff_expansion(p: float) -> float:
        """Eq. 19: ``G(p)``, the doubling-backoff series of repeated RTOs."""
        return (1.0 + p + 2.0 * p ** 2 + 4.0 * p ** 3 + 8.0 * p ** 4
                + 16.0 * p ** 5 + 32.0 * p ** 6)

    def loss_episode_time(self, d: int, p: float, exit_cwnd: float,
                          path: PathParams) -> Seconds:
        """Eqs. 16–20: expected cost of the loss ending slow start."""
        if p <= 0.0:
            return 0.0
        rtt = path.effective_rtt
        lss = 1.0 - (1.0 - p) ** d
        to = max(2.0 * rtt, RTO_MIN)
        q = self.q_rto(p, exit_cwnd)
        e_zto = self.backoff_expansion(p) * to / (1.0 - p)
        return lss * (q * e_zto + (1.0 - q) * rtt)

    def steady_state_rate(self, p: float, path: PathParams) -> float:
        """Eqs. 22–24: PFTK98 steady-state send rate, segments/second,
        capped at the saturated pipe's goodput."""
        rtt = path.effective_rtt
        pipe_rate = path.goodput / path.mss
        if p <= 0.0:
            return pipe_rate
        to = max(2.0 * rtt, RTO_MIN)
        b = 2.0  # ACKed packets per ACK (CSA00's b)
        wmax = min(path.rwnd_segments,
                   path.bdp_segments * SATURATION_BDP_FRACTION)
        wp = (2.0 + b) / (3.0 * b) + math.sqrt(
            8.0 * (1.0 - p) / (3.0 * b * p) + ((2.0 + b) / (3.0 * b)) ** 2)
        if wp < wmax:
            rate = ((1.0 - p) / p + wp / 2.0 + self.q_rto(p, wp)) / (
                rtt * (b / 2.0 * wp + 1.0)
                + self.q_rto(p, wp) * self.backoff_expansion(p) * to
                / (1.0 - p))
        else:
            rate = ((1.0 - p) / p + wmax / 2.0 + self.q_rto(p, wmax)) / (
                rtt * (b / 8.0 * wmax + (1.0 - p) / (p * wmax) + 1.0)
                + self.q_rto(p, wmax) * self.backoff_expansion(p) * to
                / (1.0 - p))
        return min(max(rate, 1e-9), pipe_rate)

    # -- the model -----------------------------------------------------
    def estimate(self, size_bytes: Bytes, path: PathParams) -> FlowEstimate:
        d = path.segments_of(size_bytes)
        p = path.loss_rate
        rtt = path.effective_rtt

        handshake = path.rtt + 2.0 * path.header_bytes / path.btl_bw

        e_ss = self.expected_ss_segments(d, p)
        ladder = self._ladder(e_ss, path)

        if ladder.saturated:
            # The window reached the pipe: the rounds walked so far cost
            # one RTT each, everything beyond what they carried drains
            # at the bottleneck rate, and the tail still pays its final
            # flight plus ACK.
            ss_time = ladder.rounds * rtt
            remaining_ss = (e_ss - ladder.sent) * path.wire_segment
            ss_time += remaining_ss / path.btl_bw + rtt
        else:
            remaining = e_ss - ladder.sent_before_final
            ss_time = (max(ladder.rounds - 1, 0) * rtt
                       + self.final_round_time(remaining, ladder, path))
            # Delivery floor: the ladder's rounds cannot beat the
            # bottleneck's serialisation of the whole transfer.
            floor = d * path.wire_segment / path.btl_bw + rtt
            ss_time = max(ss_time, floor) if e_ss >= d else ss_time

        loss_time = self.loss_episode_time(d, p, ladder.cwnd, path)

        e_ca = max(float(d) - e_ss, 0.0)
        if e_ca > 0.0:
            ca_time = e_ca / self.steady_state_rate(p, path)
        else:
            ca_time = 0.0

        retransmits = p * d / (1.0 - p) if p > 0.0 else 0.0
        episodes = ((1.0 - (1.0 - p) ** d) + e_ca * p) if p > 0.0 else 0.0

        fct = handshake + ss_time + loss_time + ca_time
        return FlowEstimate(
            model=self.name, size_bytes=size_bytes, segments=d, fct=fct,
            handshake_time=handshake, ss_time=ss_time,
            loss_recovery_time=loss_time, ca_time=ca_time,
            ss_rounds=ladder.rounds, ss_segments=e_ss,
            exit_cwnd_segments=ladder.cwnd,
            pipe_saturated=ladder.saturated,
            retransmits=retransmits, loss_episodes=episodes,
            rounds_saved=ladder.rounds_saved)


register_model("csa00", Csa00Model)
