"""TCP receiver: cumulative ACKs, out-of-order reassembly, delayed ACKs.

The receiver plays the role of the client running ``wget``/``curl`` in the
paper: it consumes a one-way bulk transfer and generates the ACK stream the
sender's congestion control is clocked by.  Every in-order arrival advances
``rcv_nxt`` (jumping over previously buffered out-of-order data); every
out-of-order arrival elicits an immediate duplicate ACK, which is what
drives fast retransmit at the sender.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.obs import records as obsrec
from repro.sim.engine import Simulator
from repro.tcp.intervals import Interval, IntervalSet

#: Maximum delayed-ACK hold time (Linux quickack aside, 40 ms is typical).
DELAYED_ACK_TIMEOUT = 0.040


class TcpReceiver:
    """Receiving endpoint of a simulated TCP connection."""

    #: maximum SACK blocks carried per ACK (TCP option space limit)
    MAX_SACK_BLOCKS = 4

    def __init__(self, sim: Simulator, host: Host, peer: str, flow_id: int,
                 delayed_ack: bool = False) -> None:
        self.sim = sim
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.delayed_ack = delayed_ack

        self.rcv_nxt = 0
        #: out-of-order data held above rcv_nxt
        self.reassembly = IntervalSet()
        #: the buffered interval the latest out-of-order segment landed in
        self._last_block: Optional[Interval] = None
        self._ece_latched = False
        self.bytes_delivered = 0  # in-order bytes handed "to the application"
        self.acks_sent = 0
        self.duplicate_segments = 0
        self._pending_ack_echo: Optional[float] = None
        self._unacked_segments = 0
        self._delack_timer = None
        obs = sim.obs
        self._obs_delivered = (None if obs is None
                               else obs.gate(obsrec.TCP_DELIVERED))

        host.attach(flow_id, self)

    @property
    def ooo(self) -> List[Interval]:
        """The reassembly buffer as a sorted ``(start, end)`` list (a copy)."""
        return list(self.reassembly)

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.SYN:
            self._send_control(PacketKind.SYNACK)
            return
        if packet.kind is not PacketKind.DATA:
            return
        # RFC 3168: latch ECE on a CE mark, clear it when CWR arrives.
        if packet.ce:
            self._ece_latched = True
        if packet.cwr:
            self._ece_latched = False
        echo = None if packet.retransmit else packet.sent_time
        if packet.end_seq <= self.rcv_nxt:
            # Entirely duplicate segment: re-ACK so the sender makes progress.
            self.duplicate_segments += 1
            self._emit_ack(echo, force=True)
            return
        if packet.seq <= self.rcv_nxt:
            self._advance(packet.end_seq)
            self._note_progress()
            if self.delayed_ack:
                self._maybe_delay_ack(echo)
            else:
                self._emit_ack(echo, force=True)
        else:
            # Out of order: buffer and send an immediate duplicate ACK.
            # RFC 2018: the first SACK block must describe the interval
            # containing the segment that triggered this ACK, so the sender
            # learns every hole as the in-flight data keeps arriving.
            self._last_block = self._insert_interval(packet.seq,
                                                     packet.end_seq)
            self._emit_ack(echo, force=True)

    # ------------------------------------------------------------------
    def _advance(self, end_seq: int) -> None:
        self.rcv_nxt = max(self.rcv_nxt, end_seq)
        buffered = self.reassembly
        if buffered.starts:
            # Swallow any buffered intervals now contiguous with rcv_nxt.
            reached = buffered.containing(self.rcv_nxt)
            if reached is not None:
                self.rcv_nxt = reached[1]
            buffered.trim_below(self.rcv_nxt)
            self._sanitize_reassembly()

    def _insert_interval(self, start: int, end: int) -> Interval:
        """Buffer ``[start, end)``; returns the interval it now lies in."""
        merged = self.reassembly.add(start, end)
        self._sanitize_reassembly()
        return merged

    def _sanitize_reassembly(self) -> None:
        """Feed the runtime sanitizer the reassembly-buffer invariants."""
        san = self.sim.sanitizer
        if san is not None:
            buffered = self.reassembly
            san.check_intervals(self.flow_id, "reassembly buffer",
                                buffered.starts, buffered.ends,
                                buffered.total, self.rcv_nxt)

    def _note_progress(self) -> None:
        delivered = self.rcv_nxt
        if delivered > self.bytes_delivered:
            self.bytes_delivered = delivered
            if self._obs_delivered is not None:
                self._obs_delivered.emit(self.sim.now, obsrec.TCP_DELIVERED,
                                         self.flow_id, delivered=delivered)

    # ------------------------------------------------------------------
    def _maybe_delay_ack(self, echo: Optional[float]) -> None:
        self._unacked_segments += 1
        self._pending_ack_echo = echo
        if self._unacked_segments >= 2:
            self._emit_ack(echo, force=True)
            return
        if self._delack_timer is None or not self.sim.event_pending(self._delack_timer):
            self._delack_timer = self.sim.schedule(
                DELAYED_ACK_TIMEOUT, self._delack_fire)

    def _delack_fire(self) -> None:
        if self._unacked_segments > 0:
            self._emit_ack(self._pending_ack_echo, force=True)

    def _sack_blocks(self) -> Optional[Tuple[Interval, ...]]:
        buffered = self.reassembly
        if not buffered.starts:
            return None
        blocks: List[Interval] = []
        recent = self._last_block
        if recent is not None and recent in buffered:
            blocks.append(recent)
        for interval in buffered:
            if len(blocks) >= self.MAX_SACK_BLOCKS:
                break
            if interval != recent:
                blocks.append(interval)
        return tuple(blocks)

    def _emit_ack(self, echo: Optional[float], force: bool) -> None:
        self._unacked_segments = 0
        if self._delack_timer is not None:
            self.sim.cancel_event(self._delack_timer)
        sack = self._sack_blocks()
        ack = Packet(self.flow_id, self.host.name, self.peer, PacketKind.ACK,
                     ack_seq=self.rcv_nxt, sent_time=self.sim.now,
                     ts_echo=echo, sack=sack, ece=self._ece_latched)
        self.acks_sent += 1
        self.host.transmit(ack)

    def _send_control(self, kind: PacketKind) -> None:
        pkt = Packet(flow_id=self.flow_id, src=self.host.name, dst=self.peer,
                     kind=kind, sent_time=self.sim.now)
        self.host.transmit(pkt)
