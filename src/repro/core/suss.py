"""SUSS: Speeding Up Slow-Start, integrated into CUBIC (paper Sections 4-5).

``SussCubic`` extends :class:`repro.cc.cubic.Cubic` the same way the
paper's kernel patch extends the CUBIC module.  Per delivery round it:

1. tracks which sequence range was sent by ACK clocking (the *blue* data)
   and which was sent paced (the *red* data);
2. during the clocking period behaves exactly like traditional slow start —
   every blue ACK grows cwnd by the bytes it acknowledges (i.e. sends twice
   the acknowledged amount);
3. when the last blue ACK arrives, measures ``Δt_i^Bat``, estimates the
   full ACK-train duration (Eq. 9), and runs Algorithm 1 to obtain the
   growth factor ``G_i``;
4. if ``G_i > 2``, computes the pacing plan (Eqs. 10-12) and, after the
   guard interval, releases the additional (red) data by growing cwnd one
   MSS at a time at rate ``cwnd_i / minRTT`` — "the value of cwnd grows
   gradually as packets are paced" (Section 5) — up to the round target
   ``cwnd_i = G_i × cwnd_{i-1}``;
5. while a round is accelerated, ACKs for the *previous* round's red data
   do not grow cwnd (the paced schedule already accounts for that growth;
   see the round-3 walkthrough of Fig. 6 and DESIGN.md) — they still free
   window space, so their arrival participates in transmission timing;
6. feeds only blue ACKs to the modified HyStart
   (:class:`repro.core.hystart_mod.SussHyStart`), with the elapsed time
   scaled by the train/blue ratio.

On loss, timeout, or HyStart exit, pacing is aborted and behaviour reverts
to stock CUBIC — SUSS is active only while slow start's exponential growth
is predicted to continue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cc.base import AckInfo
from repro.cc.cubic import Cubic
from repro.core.growth import DEFAULT_K_MAX, estimate_ack_train, growth_factor
from repro.core.hystart_mod import SussHyStart
from repro.core.pacing_plan import PacingPlan, make_pacing_plan
from repro.core.units import BytesPerSec, Seconds
from repro.obs import records as obsrec
from repro.sim.engine import EventRef


class SussCubic(Cubic):
    """CUBIC with the SUSS slow-start accelerator."""

    name = "cubic+suss"

    def __init__(self, k_max: int = DEFAULT_K_MAX, **cubic_kwargs) -> None:
        if "hystart" not in cubic_kwargs:
            cubic_kwargs["hystart"] = SussHyStart(
                cap_provider=self._hystart_cap_segments)
        super().__init__(**cubic_kwargs)
        self.k_max = k_max

        # previous-round geometry (what the current round's ACKs describe)
        self._prev_blue_start = 0
        self._prev_blue_end = 0
        self._prev_train_bytes = 0

        # current-round bookkeeping
        self._round_start_time: Seconds = 0.0
        self._round_first_seq = 0
        self._cur_blue_end: Optional[int] = None
        self._cwnd_at_round_start = 0.0
        self._mo_rtt: Optional[Seconds] = None
        self._measured = False

        # pacing-period state
        self._pacing_target: Optional[float] = None
        self._pacing_rate: BytesPerSec = 0.0
        self._pacing_handle: Optional[EventRef] = None

        # instrumentation
        self.accelerated_rounds = 0
        self.suppressed_red_bytes = 0
        self.growth_history: List[Tuple[int, int]] = []
        self.last_plan: Optional[PacingPlan] = None

    # ------------------------------------------------------------------
    def init(self) -> None:
        super().init()
        self._cwnd_at_round_start = self._cwnd
        self._round_first_seq = 0
        self._prev_blue_start = 0
        self._prev_blue_end = 0

    @property
    def _sim(self):
        return self.sender.sim

    #: margin the deferred HyStart exit allows above the firing cwnd —
    #: hedges the scaled estimate's error without risking a full extra
    #: doubling into a shallow buffer (spurious triggers are additionally
    #: disarmed when they fail to re-fire the next round).  On very small
    #: windows the extra half-doubling can cost a handful of drops; the
    #: flow still finishes faster than plain CUBIC there (the property
    #: test in tests/test_property_suss_never_worse.py pins this down).
    HYSTART_CAP_MARGIN = 1.5

    def _hystart_cap_segments(self, cwnd_segments: float) -> float:
        """Cap for the modified HyStart's deferred exit (Fig. 8).

        The ratio-scaled train estimate fires early in real time and can
        overestimate; the cap postpones the stop by a modest margin above
        the cwnd at firing time, so a spurious trigger does not truncate
        growth while a genuine one still stops near where plain HyStart
        would have.
        """
        return self.HYSTART_CAP_MARGIN * cwnd_segments

    # ------------------------------------------------------------------
    # round transitions
    # ------------------------------------------------------------------
    def on_round_start(self, now: Seconds, round_index: int) -> None:
        snd_nxt = self.sender.snd_nxt
        # Finalise the round that just ended: its blue part either stopped
        # at the pacing boundary snapshot, or — in a traditional round —
        # covered everything it sent.
        blue_end = self._cur_blue_end if self._cur_blue_end is not None else snd_nxt
        self._prev_blue_start = self._round_first_seq
        self._prev_blue_end = min(blue_end, snd_nxt)
        self._prev_train_bytes = snd_nxt - self._round_first_seq

        self._round_first_seq = snd_nxt
        self._round_start_time = now
        self._cur_blue_end = None
        self._cwnd_at_round_start = self._cwnd
        self._mo_rtt = None
        self._measured = False
        self._abort_pacing()

        if self.in_slow_start and isinstance(self.hystart, SussHyStart):
            blue = self._prev_blue_end - self._prev_blue_start
            if blue > 0 and self._prev_train_bytes > blue:
                self.hystart.ratio = self._prev_train_bytes / blue
            else:
                self.hystart.ratio = 1.0
        super().on_round_start(now, round_index)

    # ------------------------------------------------------------------
    # per-ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, ack: AckInfo) -> None:
        if ack.in_recovery:
            return
        if not self.in_slow_start:
            self._abort_pacing()
            self._congestion_avoidance_ack(ack)
            return

        is_blue = ack.ack_seq <= self._prev_blue_end or self._prev_blue_end == 0
        if is_blue:
            self._on_blue_ack(ack)
        else:
            self._on_red_ack(ack)

    def _on_blue_ack(self, ack: AckInfo) -> None:
        if ack.rtt_sample is not None and (self._mo_rtt is None
                                           or ack.rtt_sample < self._mo_rtt):
            self._mo_rtt = ack.rtt_sample
        if self.hystart_enabled and self.hystart.on_ack(
                ack.now, ack.rtt_sample, self.min_rtt, self._cwnd / self.mss):
            self.exit_slow_start(ack.now)
            self._congestion_avoidance_ack(ack)
            return
        # Clocking period: traditional slow start (send 2x the acked data).
        self._cwnd += ack.acked_bytes
        if (not self._measured and self._prev_blue_end > 0
                and ack.ack_seq >= self._prev_blue_end):
            self._on_blue_train_complete(ack.now)

    def _on_red_ack(self, ack: AckInfo) -> None:
        if self._pacing_target is None:
            # Traditional round (G <= 2): red ACKs of the previous round
            # clock out twice their data, exactly like Fig. 6 round 4.
            self._cwnd += ack.acked_bytes
            # Red ACKs carry no usable path signal for HyStart's heuristics,
            # but a deferred exit armed during the blue train must still
            # stop growth once cwnd passes the cap (Fig. 8's expGrowth=0).
            if isinstance(self.hystart, SussHyStart) \
                    and self.hystart.cap is not None \
                    and self._cwnd / self.mss > self.hystart.cap:
                self.hystart.found = True
                self.exit_slow_start(ack.now)
                self._congestion_avoidance_ack(ack)
        else:
            # Accelerated round: growth is owned by the paced schedule; the
            # ACK still frees window space for in-flight accounting.
            self.suppressed_red_bytes += ack.acked_bytes

    # ------------------------------------------------------------------
    # measurement and acceleration
    # ------------------------------------------------------------------
    def _on_blue_train_complete(self, now: Seconds) -> None:
        self._measured = True
        blue = self._prev_blue_end - self._prev_blue_start
        train = self._prev_train_bytes
        min_rtt = self.min_rtt
        if blue <= 0 or train <= 0 or min_rtt is None:
            return
        dt_bat = now - self._round_start_time
        dt_at = estimate_ack_train(dt_bat, train, blue)
        sender = self.sender
        r = sender.rtt.rounds_since_min_update(sender.round_index)
        growth = growth_factor(dt_at, self._mo_rtt, min_rtt, r, self.k_max)
        self.growth_history.append((sender.round_index, growth))
        obs = getattr(sender, "obs", None)

        def decide(verdict: str) -> None:
            if obs is not None:
                obs.emit(now, obsrec.SUSS_DECISION, sender.flow_id,
                         round=sender.round_index, growth=growth,
                         dt_bat=dt_bat, dt_at=dt_at, blue=blue, train=train,
                         verdict=verdict)

        if growth <= 2:
            decide("no_growth")
            return
        if self.hystart.found or sender.app_limited or sender.in_recovery:
            decide("inhibited")
            return
        cwnd_prev = int(self._cwnd_at_round_start)
        try:
            plan = make_pacing_plan(cwnd_prev=cwnd_prev, s_bdt_prev=blue,
                                    growth=growth, min_rtt=min_rtt,
                                    dt_bat=dt_bat)
        except ValueError:
            decide("plan_rejected")
            return
        if plan.cwnd_target <= self._cwnd:
            decide("plan_rejected")
            return
        decide("accelerate")
        if obs is not None:
            obs.emit(now, obsrec.SUSS_PLAN, sender.flow_id,
                     target=plan.cwnd_target, rate=plan.rate,
                     guard=plan.guard)
        self.last_plan = plan
        self.accelerated_rounds += 1
        self._pacing_target = float(plan.cwnd_target)
        self._pacing_rate = plan.rate
        # Delimit this round's blue data once the clocking sends (triggered
        # by the current ACK) have left: a same-timestamp event fires after
        # the sender's synchronous transmission.
        self._sim.schedule(0.0, self._snapshot_blue_end)
        step = self.mss / plan.rate
        self._pacing_handle = self._sim.schedule(plan.guard + step,
                                                 self._pacing_tick)

    def _snapshot_blue_end(self) -> None:
        if self._cur_blue_end is None:
            self._cur_blue_end = self.sender.snd_nxt

    def _pacing_tick(self) -> None:
        if self._pacing_target is None:
            return
        if not self.in_slow_start or self.sender.completed \
                or self.sender.in_recovery:
            self._abort_pacing()
            return
        self._cwnd = min(self._cwnd + self.mss, self._pacing_target)
        self.sender.kick()
        if self._cwnd < self._pacing_target and not self.sender.app_limited:
            self._pacing_handle = self._sim.schedule(
                self.mss / self._pacing_rate, self._pacing_tick)
        else:
            self._pacing_handle = None

    def _abort_pacing(self) -> None:
        aborted_midway = (self._pacing_handle is not None
                          and self._sim.event_pending(self._pacing_handle))
        if aborted_midway:
            self._sim.cancel_event(self._pacing_handle)
        if aborted_midway and self._pacing_target is not None:
            obs = getattr(self.sender, "obs", None)
            if obs is not None:
                obs.emit(self._sim.now, obsrec.SUSS_ABORT,
                         self.sender.flow_id, cwnd=self.cwnd,
                         target=self._pacing_target)
        self._pacing_handle = None
        self._pacing_target = None

    # ------------------------------------------------------------------
    # reversions to stock CUBIC behaviour
    # ------------------------------------------------------------------
    def exit_slow_start(self, now: Seconds) -> None:
        self._abort_pacing()
        super().exit_slow_start(now)

    def on_loss(self, now: Seconds) -> None:
        self._abort_pacing()
        super().on_loss(now)

    def on_rto(self, now: Seconds) -> None:
        self._abort_pacing()
        super().on_rto(now)
