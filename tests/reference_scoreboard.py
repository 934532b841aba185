"""Differential oracle: the rebuild-per-ACK scoreboard the stack shipped with.

``repro.tcp`` used to re-sort, re-merge, re-clip and re-sum the sender's
SACK scoreboard on every ACK, re-walk every hole segment by segment on
every duplicate ACK, and re-sort the receiver's out-of-order buffer on
every out-of-order arrival.  Those bodies live on here, verbatim, as the
reference the incremental :class:`repro.tcp.intervals.IntervalSet` (and
the sender's retransmit cursor) is compared against: same packets, same
times, same trace digests.  Nothing under ``src/`` may import this.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.net.packet import Packet
from repro.tcp import connection
from repro.tcp.intervals import Interval
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender


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
    """``TcpSender`` with the scoreboard rebuilt from scratch per ACK."""

    #: shadows the read-only ``TcpSender.sacked`` view with a real list
    sacked: List[Interval] = []

    def __init__(self, *args, **kwargs) -> None:
        self.sacked = []
        super().__init__(*args, **kwargs)

    @property
    def sacked_bytes(self) -> int:
        return total_bytes(self.sacked)

    @property
    def bytes_in_flight(self) -> int:
        flight = self.snd_nxt - self.snd_una - self.sacked_bytes \
            + self._retx_outstanding
        return max(flight, 0)

    def _merge_sack(self, packet: Packet) -> None:
        floor = max(packet.ack_seq, self.snd_una)
        blocks = [(max(s, floor), e) for s, e in (packet.sack or ())
                  if e > floor]
        if blocks:
            self.sacked = merge_intervals(self.sacked + blocks)
        if self.sacked:
            self.sacked = trim_below(self.sacked, floor)

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

    def _skip_sacked(self) -> bool:
        """Advance snd_nxt over fully-SACKed space; True when it moved."""
        hit = containing(self.sacked, self.snd_nxt)
        if hit is None:
            return False
        self.snd_nxt = min(hit[1], self.total_bytes)
        self.max_sent_seq = max(self.max_sent_seq, self.snd_nxt)
        return True


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
