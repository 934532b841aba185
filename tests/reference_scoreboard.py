"""Differential oracle: the sender and receiver the stack shipped with.

``repro.tcp`` used to re-sort, re-merge, re-clip and re-sum the sender's
SACK scoreboard on every ACK, re-walk every hole segment by segment on
every duplicate ACK, and re-sort the receiver's out-of-order buffer on
every out-of-order arrival; and the sender used to walk its whole ACK
path through small helpers -- re-reading the clock, the pipe and the
congestion window at every step -- and to cancel and re-schedule its
retransmission timer on every ACK.  Those bodies live on here, verbatim,
as the reference the shipped stack is compared against: the incremental
:class:`repro.tcp.intervals.IntervalSet` and retransmit cursor, the
straight-line ACK path and the deadline RTO timer must produce the same
packets at the same times, the same counters and the same trace (event
numbering aside: the two timers schedule different engine records by
design, so runs are compared on the eid-free digest).  Nothing under
``src/`` may import this.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.cc.base import AckInfo
from repro.net.packet import Packet, PacketKind
from repro.obs import records as obsrec
from repro.tcp import connection
from repro.tcp.intervals import Interval
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import DUPACK_THRESHOLD, MAX_RTO_BACKOFF, TcpSender


# ----------------------------------------------------------------------
# structure level: plain sorted lists
# ----------------------------------------------------------------------
def merge_intervals(intervals: List[Interval]) -> List[Interval]:
    """Merge possibly-overlapping [start, end) intervals (sorted output)."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def trim_below(intervals: List[Interval], floor: int) -> List[Interval]:
    """The clip-to-floor half of the old ``_merge_sack``."""
    return [(max(s, floor), e) for s, e in intervals if e > floor]


def containing(intervals: List[Interval], seq: int) -> Optional[Interval]:
    """The linear scan of the old ``_skip_sacked`` / ``_last_block`` search."""
    for start, end in intervals:
        if start <= seq < end:
            return start, end
    return None


def total_bytes(intervals: List[Interval]) -> int:
    """The sum-based ``sacked_bytes``."""
    return sum(end - start for start, end in intervals)


# ----------------------------------------------------------------------
# run level: endpoints carrying the old method bodies
# ----------------------------------------------------------------------
class ReferenceSender(TcpSender):
    """The sender's whole per-ACK path as it was before the straight-line
    rewrite, over the scoreboard rebuilt from scratch per ACK and the
    eager cancel-and-schedule RTO timer (RFC 6298 5.2 fix included).

    Every method on the path from ``on_packet`` / ``kick`` / the timer to
    the wire is defined here, so nothing the shipped sender inlines or
    renames can leave this class half overridden.  What it inherits is
    what neither the scoreboard, the ACK path nor the timer touches:
    construction, ``_send_segment``, the pacer wake and the delivery-rate
    sampler.
    """

    #: shadows the read-only ``TcpSender.sacked`` view with a real list
    sacked: List[Interval] = []

    def __init__(self, *args, **kwargs) -> None:
        self.sacked = []
        self._traced_pacing_rate: Optional[float] = None
        super().__init__(*args, **kwargs)

    def start(self) -> None:
        """Initiate the connection (sends the handshake)."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        self.start_time = self.sim.now
        syn = Packet(flow_id=self.flow_id, src=self.host.name, dst=self.peer,
                     kind=PacketKind.SYN, sent_time=self.sim.now)
        self.host.transmit(syn)
        self._arm_rto()

    @property
    def sacked_bytes(self) -> int:
        return total_bytes(self.sacked)

    @property
    def bytes_in_flight(self) -> int:
        flight = self.snd_nxt - self.snd_una - self.sacked_bytes \
            + self._retx_outstanding
        return max(flight, 0)

    # ------------------------------------------------------------------
    # packet arrival
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        if self.completed:
            return
        if packet.kind is PacketKind.SYNACK:
            self._on_synack(packet)
        elif packet.kind is PacketKind.ACK:
            self._on_ack(packet)

    def _on_synack(self, packet: Packet) -> None:
        if self.handshake_done:
            return
        self.handshake_done = True
        assert self.start_time is not None
        self.rtt.update(self.sim.now - self.start_time, self.round_index)
        self.data_start_time = self.sim.now
        self._rto_backoff = 1.0
        self.cc.on_data_start(self.sim.now)
        # The SYN is acknowledged and nothing else is outstanding: the
        # first send starts the timer (RFC 6298 5.1, _maybe_send's tail).
        self._stop_rto()
        self._maybe_send()

    def _on_ack(self, packet: Packet) -> None:
        now = self.sim.now
        rtt_sample: Optional[float] = None
        if packet.ts_echo is not None:
            rtt_sample = now - packet.ts_echo
            if rtt_sample > 0:
                self.rtt.update(rtt_sample, self.round_index)
                if self._obs_rtt is not None:
                    self._obs_rtt.emit(now, obsrec.TCP_RTT, self.flow_id,
                                       rtt=rtt_sample)

        self._merge_sack(packet)

        if self.ecn and packet.ece and self.snd_una >= self._ecn_reacted_high:
            # One multiplicative decrease per window of ECN signals.
            self._ecn_reacted_high = self.snd_nxt
            self._cwr_pending = True
            self.ecn_reductions += 1
            self.cc.on_ecn(now)

        if packet.ack_seq > self.snd_una:
            self._on_new_ack(packet, now, rtt_sample)
        elif packet.ack_seq == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_dupack(now)
        self._maybe_send()
        self._sanitize_scoreboard()

    def _merge_sack(self, packet: Packet) -> None:
        floor = max(packet.ack_seq, self.snd_una)
        blocks = [(max(s, floor), e) for s, e in (packet.sack or ())
                  if e > floor]
        if blocks:
            self.sacked = merge_intervals(self.sacked + blocks)
        if self.sacked:
            self.sacked = trim_below(self.sacked, floor)

    def _on_new_ack(self, packet: Packet, now: float,
                    rtt_sample: Optional[float]) -> None:
        acked = packet.ack_seq - self.snd_una
        self.snd_una = packet.ack_seq
        self.dup_acks = 0
        self.delivered += acked
        self.delivered_time = now
        self._retx_outstanding = max(self._retx_outstanding
                                     - min(acked, self.mss), 0)
        rate_sample = self._take_rate_sample(packet.ack_seq, now)

        # round bookkeeping: the ACK of the first segment of the previous
        # round has arrived once snd_una passes that round's end marker.
        if self.snd_una > self.round_end_seq:
            self.round_index += 1
            self.round_end_seq = self.snd_nxt
            self.cc.on_round_start(now, self.round_index)

        if self.in_recovery:
            if self.snd_una >= self.recovery_point:
                self.in_recovery = False
                self._retx_marked = {s for s in self._retx_marked
                                     if s >= self.snd_una}
                self._retx_outstanding = 0
                self.cc.on_recovery_exit(now)
                if self.obs is not None:
                    self.obs.emit(now, obsrec.TCP_RECOVERY, self.flow_id,
                                  enter=False, point=self.recovery_point)
            else:
                # Partial ACK: keep filling holes from the scoreboard.
                self._retransmit_holes()

        info = AckInfo(now=now, acked_bytes=acked, ack_seq=packet.ack_seq,
                       rtt_sample=rtt_sample, flight=self.bytes_in_flight,
                       delivery_rate=rate_sample, app_limited=self.app_limited,
                       in_recovery=self.in_recovery)
        self.cc.on_ack(info)
        self._sanitize_cc()

        if self._obs_cwnd is not None:
            self._emit_cwnd(now)

        self._rto_backoff = 1.0
        if self.snd_una >= self.total_bytes and self.finished_writing:
            self._complete(now)
        elif self.snd_nxt > self.snd_una:
            self._arm_rto()
        else:
            # RFC 6298 (5.2): all outstanding data acknowledged, timer off;
            # an idle stream must not time out on nothing.
            self._stop_rto()

    def _on_dupack(self, now: float) -> None:
        self.dup_acks += 1
        self.cc.on_dupack(now)
        if not self.in_recovery and (
                self.dup_acks >= DUPACK_THRESHOLD
                or self.sacked_bytes > DUPACK_THRESHOLD * self.mss):
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
            self._sanitize_cc()
            if self.obs is not None:
                self.obs.emit(now, obsrec.TCP_RECOVERY, self.flow_id,
                              enter=True, point=self.recovery_point)
            if self._obs_cwnd is not None:
                self._emit_cwnd(now)
            self._retransmit_holes()
        elif self.in_recovery:
            # Each further SACK frees pipe; fill more holes if possible.
            self._retransmit_holes()

    # ------------------------------------------------------------------
    # scoreboard
    # ------------------------------------------------------------------
    def _holes(self) -> List[Interval]:
        """Un-SACKed gaps between snd_una and the highest SACKed byte."""
        if not self.sacked:
            return [(self.snd_una, min(self.snd_una + self.mss,
                                       self.total_bytes))]
        holes: List[Interval] = []
        cursor = self.snd_una
        for start, end in self.sacked:
            if start > cursor:
                holes.append((cursor, start))
            cursor = max(cursor, end)
        return holes

    def _retransmit_holes(self) -> None:
        """Retransmit scoreboard holes while the window allows."""
        for hole_start, hole_end in self._holes():
            seq = hole_start
            while seq < hole_end:
                size = min(self.mss, hole_end - seq,
                           self.total_bytes - seq)
                if size <= 0:
                    return
                if seq not in self._retx_marked:
                    if self.bytes_in_flight + size > self.cc.cwnd:
                        return
                    self._retx_marked.add(seq)
                    self._retx_outstanding += size
                    self._send_segment(seq, size, retransmit=True)
                    self._arm_rto()
                seq += size

    def _sanitize_scoreboard(self) -> None:
        """Feed the runtime sanitizer the scoreboard invariants."""
        san = self.sim.sanitizer
        if san is not None:
            board = self.scoreboard
            san.check_intervals(self.flow_id, "SACK scoreboard", board.starts,
                                board.ends, board.total, self.snd_una)
            san.check_retx_cursor(
                self.flow_id, self._retx_cursor,
                max(self.snd_una, board.ends[-1] if board.ends else 0))

    def _sanitize_cc(self) -> None:
        """Feed the runtime sanitizer the post-event CC invariants."""
        san = self.sim.sanitizer
        if san is not None:
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

    def _maybe_send(self) -> None:
        if self.completed or not self.handshake_done:
            return
        rate = self.cc.pacing_rate
        self.pacer.set_rate(rate)
        if self._obs_pacing is not None and rate != self._traced_pacing_rate:
            self._traced_pacing_rate = rate
            # None (pure ACK clocking) is encoded as rate 0.0
            self._obs_pacing.emit(self.sim.now, obsrec.TCP_PACING,
                                  self.flow_id,
                                  rate=rate if rate is not None else 0.0)
        while self.snd_nxt < self.total_bytes:
            # Skip sequence space the receiver already holds (possible
            # after an RTO rolled snd_nxt back).
            if self._skip_sacked():
                continue
            seg = min(self.mss, self.total_bytes - self.snd_nxt)
            window = min(self.cc.cwnd, self.rwnd)
            if self.bytes_in_flight + seg > window:
                break
            now = self.sim.now
            if not self.pacer.can_send(now):
                self._schedule_pacer_wake(self.pacer.next_send_time(now))
                break
            is_retx = self.snd_nxt < self.max_sent_seq
            self._send_segment(self.snd_nxt, seg, retransmit=is_retx)
            self.snd_nxt += seg
            self.max_sent_seq = max(self.max_sent_seq, self.snd_nxt)
            self.pacer.note_sent(now, seg)
        if self.bytes_in_flight > 0 and (self._rto_handle is None
                                         or not self.sim.event_pending(self._rto_handle)):
            self._arm_rto()

    def _skip_sacked(self) -> bool:
        """Advance snd_nxt over fully-SACKed space; True when it moved."""
        hit = containing(self.sacked, self.snd_nxt)
        if hit is None:
            return False
        self.snd_nxt = min(hit[1], self.total_bytes)
        self.max_sent_seq = max(self.max_sent_seq, self.snd_nxt)
        return True

    # ------------------------------------------------------------------
    # timers: one engine record per arming
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        if self._rto_handle is not None:
            self.sim.cancel_event(self._rto_handle)
        timeout = min(self.rtt.rto * self._rto_backoff, 120.0)
        self._rto_handle = self.sim.schedule(timeout, self._on_rto)

    def _stop_rto(self) -> None:
        if self._rto_handle is not None:
            self.sim.cancel_event(self._rto_handle)

    def _on_rto(self) -> None:
        if self.completed:
            return
        self.rto_count += 1
        self._rto_backoff = min(self._rto_backoff * 2, MAX_RTO_BACKOFF)
        if not self.handshake_done:
            # Handshake packet lost: resend the SYN.
            syn = Packet(flow_id=self.flow_id, src=self.host.name,
                         dst=self.peer, kind=PacketKind.SYN,
                         sent_time=self.sim.now)
            self.host.transmit(syn)
            self._arm_rto()
            return
        now = self.sim.now
        self.cc.on_rto(now)
        self._sanitize_cc()
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
        self._arm_rto()
        self._maybe_send()
        self._sanitize_scoreboard()

    def _complete(self, now: float) -> None:
        self.completed = True
        self.completion_time = now
        self.cc.on_flow_complete(now)
        self._stop_rto()
        if self._pacer_wake is not None:
            self.sim.cancel_event(self._pacer_wake)
        if self.on_complete is not None:
            self.on_complete(self)


class ReferenceReceiver(TcpReceiver):
    """``TcpReceiver`` with the out-of-order buffer re-sorted per arrival."""

    #: shadows the read-only ``TcpReceiver.ooo`` view with a real list
    ooo: List[Interval] = []

    def __init__(self, *args, **kwargs) -> None:
        self.ooo = []
        super().__init__(*args, **kwargs)

    def _advance(self, end_seq: int) -> None:
        self.rcv_nxt = max(self.rcv_nxt, end_seq)
        # Swallow any buffered intervals now contiguous with rcv_nxt.
        while self.ooo and self.ooo[0][0] <= self.rcv_nxt:
            start, end = self.ooo.pop(0)
            self.rcv_nxt = max(self.rcv_nxt, end)

    def _insert_interval(self, start: int, end: int) -> Interval:
        self.ooo = merge_intervals(self.ooo + [(start, end)])
        # RFC 2018 first block: the interval containing the new segment.
        hit = containing(self.ooo, start)
        assert hit is not None
        return hit

    def _sack_blocks(self) -> Optional[Tuple[Interval, ...]]:
        if not self.ooo:
            return None
        blocks: List[Interval] = []
        recent = self._last_block
        if recent is not None and recent in self.ooo:
            blocks.append(recent)
        for interval in self.ooo:
            if len(blocks) >= self.MAX_SACK_BLOCKS:
                break
            if interval not in blocks:
                blocks.append(interval)
        return tuple(blocks)


@contextmanager
def reference_endpoints() -> Iterator[None]:
    """Make ``open_transfer`` build the reference endpoints."""
    shipped = connection.TcpSender, connection.TcpReceiver
    connection.TcpSender = ReferenceSender
    connection.TcpReceiver = ReferenceReceiver
    try:
        yield
    finally:
        connection.TcpSender, connection.TcpReceiver = shipped
