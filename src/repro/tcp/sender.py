"""TCP sender: windows, SACK-based loss recovery, timers, CC integration.

The sender implements the transport machinery the paper's kernel patch
relies on, in simulation form:

* sequence tracking (``snd_una`` / ``snd_nxt``) for a one-way bulk transfer;
* a simplified SYN/SYN-ACK handshake that seeds the RTT estimator — the
  handshake RTT is TCP's first ``minRTT`` observation, which SUSS uses;
* SACK-based fast recovery: the receiver reports out-of-order intervals,
  the sender keeps a scoreboard and retransmits every hole as the window
  allows (the kernel's behaviour with SACK enabled, which it is virtually
  everywhere the paper measured); the scoreboard is updated in place and
  the hole walk resumes from a retransmit cursor, so an ACK costs
  O(log holes) however large the dropped burst was;
* RTO (RFC 6298) with go-back-N over un-SACKed sequence space; the timer
  is a deadline that an ACK moves, not an engine event per ACK;
* delivery-rate samples per ACK (for BBR's bandwidth filter);
* round accounting (a round ends when the first segment of the previous
  round is cumulatively acknowledged), which CUBIC/HyStart/SUSS consume;
* optional pacing driven by the congestion control's ``pacing_rate``.

The receive window models a large client buffer and never constrains the
transfers studied here.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.cc.base import AckInfo, CongestionControl
from repro.net.node import Host
from repro.net.packet import DEFAULT_MSS, Packet, PacketKind
from repro.obs import records as obsrec
from repro.sim.engine import EventRef, Simulator, event_time
from repro.tcp.intervals import Interval, IntervalSet
from repro.tcp.pacer import Pacer
from repro.tcp.rtt import RttEstimator

DUPACK_THRESHOLD = 3
#: Default initial window, RFC 6928 (10 segments).
DEFAULT_IW_SEGMENTS = 10
#: Exponential RTO backoff cap.
MAX_RTO_BACKOFF = 64.0
#: Ceiling on the backed-off timeout (RFC 6298 2.5 allows one >= 60 s).
MAX_RTO_TIMEOUT = 120.0


class TcpSender:
    """Sending endpoint of a simulated TCP connection."""

    def __init__(self, sim: Simulator, host: Host, peer: str, flow_id: int,
                 total_bytes: int, cc: CongestionControl,
                 mss: int = DEFAULT_MSS,
                 iw_segments: int = DEFAULT_IW_SEGMENTS,
                 rwnd: int = 1 << 30,
                 ecn: bool = False,
                 on_complete: Optional[Callable[["TcpSender"], None]] = None) -> None:
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.sim = sim
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.total_bytes = total_bytes
        self.mss = mss
        self.iw_bytes = iw_segments * mss
        self.rwnd = rwnd
        self.ecn = ecn
        self.on_complete = on_complete

        # ECN reaction state (react at most once per window, RFC 3168)
        self._ecn_reacted_high = 0
        self._cwr_pending = False
        self.ecn_reductions = 0

        self.rtt = RttEstimator()
        self.pacer = Pacer()

        # sequence state
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent_seq = 0
        self.dup_acks = 0

        # SACK scoreboard: the [start, end) intervals above snd_una that
        # the receiver holds, plus which hole segments were retransmitted
        # since the last RTO.  Every hole segment below _retx_cursor is in
        # _retx_marked, so the hole walk starts there instead of at
        # snd_una (RFC 6675's HighRxt); the set stays the authority.
        self.scoreboard = IntervalSet()
        self._retx_marked: set = set()
        self._retx_cursor = 0
        self._retx_outstanding = 0  # retransmitted bytes still in flight

        # recovery state
        self.in_recovery = False
        self.recovery_point = 0

        # rounds (paper Section 3: round(i) definitions)
        self.round_index = 1
        self.round_end_seq = 0

        # delivery-rate bookkeeping (for BBR)
        self.delivered = 0
        self.delivered_time = 0.0
        self._rate_records: Deque[Tuple[int, float, int, float]] = deque()
        # entries: (end_seq, sent_time, delivered_at_send, delivered_time_at_send)

        # timers.  The RTO is a deadline plus one engine record due no
        # later than it (_arm_rto); both are None while the timer is off.
        self._rto_deadline: Optional[float] = None
        self._rto_handle: Optional[EventRef] = None
        self._rto_origin = 0  # traced runs: origin of the last arming
        self._rto_backoff = 1.0
        self._pacer_wake: Optional[EventRef] = None

        #: False while a streaming application may still extend the flow
        #: (see repro.tcp.stream); completion waits for it.
        self.finished_writing = True

        # statistics
        self.started = False
        self.handshake_done = False
        self.completed = False
        self.start_time: Optional[float] = None
        self.data_start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.retransmissions = 0
        self.rto_count = 0
        self.fast_retransmits = 0
        self.data_packets_sent = 0

        # observability: the per-packet kinds resolve once whether anything
        # consumes them, so a probe nobody listens to is one pointer test;
        # the rare ones (recovery, RTO, the congestion control's per-round
        # records) go through ``obs`` itself.
        obs = sim.obs
        self.obs = obs
        gate = obs.gate if obs is not None else (lambda kind: None)
        self._obs_send = gate(obsrec.PKT_SEND)
        self._obs_rtt = gate(obsrec.TCP_RTT)
        self._obs_cwnd = gate(obsrec.CC_CWND)
        self._obs_pacing = gate(obsrec.TCP_PACING)
        self._tracing = obs is not None and obs.tracer is not None

        self.cc = cc
        cc.attach(self)
        host.attach(flow_id, self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Initiate the connection (sends the handshake)."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        self.start_time = self.sim.now
        syn = Packet(flow_id=self.flow_id, src=self.host.name, dst=self.peer,
                     kind=PacketKind.SYN, sent_time=self.sim.now)
        self.host.transmit(syn)
        self._arm_rto(self.sim.now)

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time (handshake included), or None if unfinished."""
        if self.completion_time is None or self.start_time is None:
            return None
        return self.completion_time - self.start_time

    @property
    def sacked(self) -> List[Interval]:
        """The scoreboard as a sorted ``(start, end)`` list (a copy)."""
        return list(self.scoreboard)

    @property
    def sacked_bytes(self) -> int:
        return self.scoreboard.total

    @property
    def bytes_in_flight(self) -> int:
        """Conservative pipe estimate: sent minus cum-acked minus SACKed,
        plus retransmissions believed still in the network."""
        flight = self.snd_nxt - self.snd_una - self.scoreboard.total \
            + self._retx_outstanding
        return max(flight, 0)

    @property
    def app_limited(self) -> bool:
        """True when the flow has no more new data to send."""
        return self.snd_nxt >= self.total_bytes

    # ------------------------------------------------------------------
    # packet arrival
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        if self.completed:
            return
        if packet.kind is PacketKind.ACK:
            self._on_ack(packet)
        elif packet.kind is PacketKind.SYNACK:
            self._on_synack(packet)

    def _on_synack(self, packet: Packet) -> None:
        if self.handshake_done:
            return
        self.handshake_done = True
        assert self.start_time is not None
        now = self.sim.now
        self.rtt.update(now - self.start_time, self.round_index)
        self.data_start_time = now
        self._rto_backoff = 1.0
        self.cc.on_data_start(now)
        # RFC 6298 (5.2): the SYN is acknowledged, timer off; the first
        # send starts it again (5.1, _maybe_send's tail).
        self._stop_rto()
        self._maybe_send(now)

    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now  # read once per ACK and handed down
        san = sim.sanitizer  # likewise
        rtt_sample: Optional[float] = None
        if packet.ts_echo is not None:
            rtt_sample = now - packet.ts_echo
            if rtt_sample > 0:
                self.rtt.update(rtt_sample, self.round_index)
                if self._obs_rtt is not None:
                    self._obs_rtt.emit(now, obsrec.TCP_RTT, self.flow_id,
                                       rtt=rtt_sample)

        if packet.sack or self.scoreboard.starts:
            self._merge_sack(packet)

        if self.ecn and packet.ece and self.snd_una >= self._ecn_reacted_high:
            # One multiplicative decrease per window of ECN signals.
            self._ecn_reacted_high = self.snd_nxt
            self._cwr_pending = True
            self.ecn_reductions += 1
            self.cc.on_ecn(now)

        ack_seq = packet.ack_seq
        if ack_seq > self.snd_una:
            self._on_new_ack(ack_seq, now, rtt_sample, san)
        elif ack_seq == self.snd_una and self.snd_nxt > ack_seq:
            self._on_dupack(now, san)
        self._maybe_send(now)
        if san is not None:
            self._sanitize_scoreboard(san)

    def _merge_sack(self, packet: Packet) -> None:
        """Fold the ACK into the scoreboard: drop what it cumulatively
        covers, add its SACK blocks (clipped to the new floor)."""
        board = self.scoreboard
        floor = self.snd_una
        if packet.ack_seq > floor:
            floor = packet.ack_seq
            self._rewind_cursor(floor, self.snd_una)
            board.trim_below(floor)
        for start, end in packet.sack or ():
            if end > floor:
                self._rewind_cursor(end, floor)
                board.add(start if start > floor else floor, end)

    def _on_new_ack(self, ack_seq: int, now: float,
                    rtt_sample: Optional[float], san) -> None:
        acked = ack_seq - self.snd_una
        self.snd_una = ack_seq
        self.dup_acks = 0
        self.delivered += acked
        self.delivered_time = now
        if self._retx_outstanding:
            self._retx_outstanding = max(self._retx_outstanding
                                         - min(acked, self.mss), 0)
        rate_sample = self._take_rate_sample(ack_seq, now)
        cc = self.cc

        # round bookkeeping: the ACK of the first segment of the previous
        # round has arrived once snd_una passes that round's end marker.
        if ack_seq > self.round_end_seq:
            self.round_index += 1
            self.round_end_seq = self.snd_nxt
            cc.on_round_start(now, self.round_index)

        if self.in_recovery:
            if ack_seq >= self.recovery_point:
                self.in_recovery = False
                self._retx_marked = {s for s in self._retx_marked
                                     if s >= ack_seq}
                self._retx_outstanding = 0
                cc.on_recovery_exit(now)
                if self.obs is not None:
                    self.obs.emit(now, obsrec.TCP_RECOVERY, self.flow_id,
                                  enter=False, point=self.recovery_point)
            else:
                # Partial ACK: keep filling holes from the scoreboard.
                self._retransmit_holes(now)

        cc.on_ack(AckInfo(now, acked, ack_seq, rtt_sample,
                          self.bytes_in_flight, rate_sample,
                          self.snd_nxt >= self.total_bytes, self.in_recovery))
        if san is not None:
            self._sanitize_cc(san)

        if self._obs_cwnd is not None:
            self._emit_cwnd(now)

        self._rto_backoff = 1.0
        if ack_seq >= self.total_bytes and self.finished_writing:
            self._complete(now)
        elif self.snd_nxt > ack_seq:
            self._arm_rto(now)  # RFC 6298 (5.3)
        else:
            # RFC 6298 (5.2): an idle stream must not time out on nothing.
            self._stop_rto()

    def _on_dupack(self, now: float, san) -> None:
        self.dup_acks += 1
        self.cc.on_dupack(now)
        if not self.in_recovery and (
                self.dup_acks >= DUPACK_THRESHOLD
                or self.scoreboard.total > DUPACK_THRESHOLD * self.mss):
            self.in_recovery = True
            self.recovery_point = self.snd_nxt
            self.fast_retransmits += 1
            # Retransmit marks persist across episodes (pruned below
            # snd_una) so back-to-back episodes do not re-send holes whose
            # retransmissions are still in flight; a lost retransmission
            # is recovered by the RTO.
            self._retx_marked = {s for s in self._retx_marked
                                 if s >= self.snd_una}
            self.cc.on_loss(now)
            if san is not None:
                self._sanitize_cc(san)
            if self.obs is not None:
                self.obs.emit(now, obsrec.TCP_RECOVERY, self.flow_id,
                              enter=True, point=self.recovery_point)
            if self._obs_cwnd is not None:
                self._emit_cwnd(now)
            self._retransmit_holes(now)
        elif self.in_recovery:
            # Each further SACK frees pipe; fill more holes if possible.
            self._retransmit_holes(now)

    # ------------------------------------------------------------------
    # scoreboard
    # ------------------------------------------------------------------
    # A hole -- an un-SACKed gap between snd_una and the highest SACKed
    # byte -- is retransmitted in MSS steps from where it starts, and
    # _retx_marked records the steps taken.  The cursor is only sound
    # while the steps below it fall where they fell when they were taken,
    # so whenever a hole's start is about to move the cursor is checked.
    def _rewind_cursor(self, seq: int, floor: int) -> None:
        """A hole is about to start at ``seq`` (the new cumulative point,
        or the end of an arriving SACK block); ``floor`` is where the
        lowest hole starts now.  Mid-stream short segments and go-back-N
        after an RTO can put ``seq`` off the step grid of the hole it
        splits; the steps from there on were never taken, so the walk
        must revisit them."""
        if seq >= self._retx_cursor:
            return
        board = self.scoreboard
        i = bisect_right(board.starts, seq) - 1
        if i >= 0:
            if board.ends[i] >= seq:
                return  # inside or closing a SACKed interval: no new start
            floor = board.ends[i]
        if (seq - floor) % self.mss:
            self._retx_cursor = seq

    def _retransmit_holes(self, now: float) -> None:
        """Retransmit scoreboard holes while the window allows."""
        starts, ends = self.scoreboard.starts, self.scoreboard.ends
        if not starts:
            # Nothing SACKed yet: the segment at snd_una is the presumed loss.
            self._fill_hole(self.snd_una, min(self.snd_una + self.mss,
                                              self.total_bytes), now)
            return
        seq = max(self._retx_cursor, self.snd_una)
        k = bisect_right(starts, seq)
        if k and ends[k - 1] > seq:
            seq = ends[k - 1]
        for k in range(k, len(starts)):
            if not self._fill_hole(seq, starts[k], now):
                return
            seq = ends[k]
        self._retx_cursor = seq

    def _fill_hole(self, seq: int, hole_end: int, now: float) -> bool:
        """Retransmit the not-yet-retransmitted segments of ``[seq,
        hole_end)``; False (cursor parked there) when the window stops it."""
        marked = self._retx_marked
        while seq < hole_end:
            size = min(self.mss, hole_end - seq, self.total_bytes - seq)
            if size <= 0:
                break
            if seq not in marked:
                if self.bytes_in_flight + size > self.cc.cwnd:
                    break
                marked.add(seq)
                self._retx_outstanding += size
                self._send_segment(seq, size, True)
                self._arm_rto(now)
            seq += size
        else:
            return True
        self._retx_cursor = seq
        return False

    def _sanitize_scoreboard(self, san) -> None:
        """Feed the runtime sanitizer the scoreboard invariants."""
        board = self.scoreboard
        san.check_intervals(self.flow_id, "SACK scoreboard", board.starts,
                            board.ends, board.total, self.snd_una)
        san.check_retx_cursor(
            self.flow_id, self._retx_cursor,
            max(self.snd_una, board.ends[-1] if board.ends else 0))

    def _sanitize_cc(self, san) -> None:
        """Feed the runtime sanitizer the post-event CC invariants."""
        san.check_cwnd(self.flow_id, self.cc.cwnd, self.mss)
        san.check_pacing_rate(self.flow_id, self.cc.pacing_rate)

    def _emit_cwnd(self, now: float) -> None:
        """Report the post-event congestion state (callers check the gate)."""
        self._obs_cwnd.emit(now, obsrec.CC_CWND, self.flow_id,
                            cwnd=self.cc.cwnd, ssthresh=self.cc.ssthresh,
                            flight=self.bytes_in_flight)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Re-evaluate transmission opportunities (e.g. after a cwnd change
        made by the congestion control outside of ACK processing)."""
        self._maybe_send()

    def _maybe_send(self, now: Optional[float] = None) -> None:
        """Send while the window and the pacer allow.  Nothing in here
        calls into the congestion control, so its window and rate are read
        once and the pipe (``bytes_in_flight``) is a local kept per send."""
        if self.completed or not self.handshake_done:
            return
        if now is None:
            now = self.sim.now
        cc = self.cc
        pacer = self.pacer
        rate = cc.pacing_rate
        if rate != pacer.rate:
            pacer.set_rate(rate)
            if self._obs_pacing is not None:
                # None (pure ACK clocking) is encoded as rate 0.0
                self._obs_pacing.emit(now, obsrec.TCP_PACING, self.flow_id,
                                      rate=rate if rate is not None else 0.0)
        nxt = self.snd_nxt
        total = self.total_bytes
        mss = self.mss
        window = min(cc.cwnd, self.rwnd)
        board = self.scoreboard
        # Kept unfloored (the floor at zero is not additive) and floored
        # where it is compared, as bytes_in_flight reads it.
        pipe = nxt - self.snd_una - board.total + self._retx_outstanding
        while nxt < total:
            # Skip sequence space the receiver already holds (possible
            # after an RTO rolled snd_nxt back).
            if board.starts and self._skip_sacked():
                pipe += self.snd_nxt - nxt
                nxt = self.snd_nxt
                continue
            seg = min(mss, total - nxt)
            if (pipe if pipe > 0 else 0) + seg > window:
                break
            if rate is not None and not pacer.can_send(now):
                self._schedule_pacer_wake(pacer.next_send_time(now))
                break
            self._send_segment(nxt, seg, nxt < self.max_sent_seq)
            nxt += seg
            pipe += seg
            self.snd_nxt = nxt
            if nxt > self.max_sent_seq:
                self.max_sent_seq = nxt
            pacer.note_sent(now, seg)
        if self._rto_handle is None and self.bytes_in_flight > 0:
            self._arm_rto(now)  # RFC 6298 (5.1)

    def _skip_sacked(self) -> bool:
        """Advance snd_nxt over fully-SACKed space; True when it moved."""
        hit = self.scoreboard.containing(self.snd_nxt)
        if hit is None:
            return False
        self.snd_nxt = min(hit[1], self.total_bytes)
        self.max_sent_seq = max(self.max_sent_seq, self.snd_nxt)
        return True

    def _send_segment(self, seq: int, size: int, retransmit: bool) -> None:
        now = self.sim.now
        pkt = Packet(self.flow_id, self.host.name, self.peer, PacketKind.DATA,
                     seq=seq, payload=size, sent_time=now,
                     retransmit=retransmit, ect=self.ecn,
                     cwr=self._cwr_pending)
        self._cwr_pending = False
        self.data_packets_sent += 1
        if retransmit:
            self.retransmissions += 1
        else:
            self._rate_records.append((seq + size, now, self.delivered,
                                       self.delivered_time))
        if self._obs_send is not None:
            self._obs_send.emit(now, obsrec.PKT_SEND, self.flow_id,
                                seq=seq, size=size, retx=retransmit)
        self.host.transmit(pkt)

    def _schedule_pacer_wake(self, when: float) -> None:
        if self._pacer_wake is not None and self.sim.event_pending(self._pacer_wake):
            return
        self._pacer_wake = self.sim.schedule_at(when, self._maybe_send)

    # ------------------------------------------------------------------
    # delivery-rate sampling
    # ------------------------------------------------------------------
    def _take_rate_sample(self, ack_seq: int, now: float) -> Optional[float]:
        record = None
        while self._rate_records and self._rate_records[0][0] <= ack_seq:
            record = self._rate_records.popleft()
        if record is None:
            return None
        _, sent_time, delivered_at_send, _ = record
        interval = now - sent_time
        if interval <= 0:
            return None
        return (self.delivered - delivered_at_send) / interval

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    # The RTO is a deadline, not an engine event per ACK.  Arming stores
    # ``now + timeout`` -- the float ``schedule(timeout, ...)`` would
    # compute -- and schedules a record only when none is pending or the
    # deadline moved *earlier* than it (an RTT sample shrank the RTO).  A
    # record due early re-schedules itself at the deadline; one due at it
    # expires in that event, so tcp.rto and the resend share one eid.
    def _arm_rto(self, now: float) -> None:
        """(Re)start the timer: one backed-off RTO from ``now``."""
        self._rto_deadline = deadline = now + min(
            self.rtt.rto * self._rto_backoff, MAX_RTO_TIMEOUT)
        if self._tracing:
            # tcp.rto cites this arming, not the pending record's scheduler
            self._rto_origin = self.sim._sched_origin
        handle = self._rto_handle
        if handle is None or deadline < event_time(handle):
            if handle is not None:
                self.sim.cancel_event(handle)
            self._rto_handle = self.sim.schedule_at(deadline, self._on_rto)

    def _stop_rto(self) -> None:
        if self._rto_handle is not None:
            self.sim.cancel_event(self._rto_handle)
            self._rto_handle = self._rto_deadline = None

    def _on_rto(self) -> None:
        """The timer's engine record came due."""
        if self.completed:
            return
        sim = self.sim
        now = sim.now
        if now < self._rto_deadline:
            # ACKs since have pushed the deadline out: sleep on to it.
            self._rto_handle = sim.schedule_at(self._rto_deadline,
                                               self._on_rto)
            return
        self._rto_handle = self._rto_deadline = None
        if self._tracing:
            sim._sched_origin = self._rto_origin
        self.rto_count += 1
        self._rto_backoff = min(self._rto_backoff * 2, MAX_RTO_BACKOFF)
        if not self.handshake_done:
            # Handshake packet lost: resend the SYN.
            syn = Packet(flow_id=self.flow_id, src=self.host.name,
                         dst=self.peer, kind=PacketKind.SYN,
                         sent_time=now)
            self.host.transmit(syn)
            self._arm_rto(now)
            return
        san = sim.sanitizer
        self.cc.on_rto(now)
        if san is not None:
            self._sanitize_cc(san)
        if self.obs is not None:
            self.obs.emit(now, obsrec.TCP_RTO, self.flow_id,
                          backoff=self._rto_backoff)
        if self._obs_cwnd is not None:
            self._emit_cwnd(now)
        # Go-back-N over un-SACKed space: the kernel walks the retransmit
        # queue from snd_una; _maybe_send skips SACKed intervals and the
        # receiver's reassembly buffer makes the cumulative ACK jump.
        self.in_recovery = False
        self._retx_marked.clear()
        self._retx_cursor = 0
        self._retx_outstanding = 0
        self.dup_acks = 0
        self.snd_nxt = self.snd_una
        self._rate_records.clear()
        self.pacer.reset()
        self._arm_rto(now)
        self._maybe_send(now)
        if san is not None:
            self._sanitize_scoreboard(san)

    # ------------------------------------------------------------------
    def _complete(self, now: float) -> None:
        self.completed = True
        self.completion_time = now
        self.cc.on_flow_complete(now)
        self._stop_rto()
        if self._pacer_wake is not None:
            self.sim.cancel_event(self._pacer_wake)
        if self.on_complete is not None:
            self.on_complete(self)
