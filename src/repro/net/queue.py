"""Bottleneck buffer disciplines: drop-tail FIFO and CoDel.

Queues sit in front of a :class:`repro.net.link.Link` and absorb bursts.
``DropTailQueue`` is what the paper's testbed router (Linux + netem) uses;
``CoDelQueue`` implements the RFC 8289 control law and is provided for the
AQM-related discussion in Section 2.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Optional

from repro.core.units import Bytes, Seconds
from repro.net.packet import Packet


class DropTailQueue:
    """Byte-capacity FIFO queue that drops arriving packets when full."""

    __slots__ = ("capacity_bytes", "name", "_q", "_bytes", "drops",
                 "flow_drops", "enqueued", "bytes_peak")

    def __init__(self, capacity_bytes: Bytes, name: str = "queue") -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._q: Deque[Packet] = deque()
        self._bytes: Bytes = 0
        self.drops = 0
        #: flow id -> packets of that flow dropped here (sums to ``drops``)
        self.flow_drops: Dict[int, int] = {}
        self.enqueued = 0
        #: high-water mark of queued bytes over the queue's lifetime
        self.bytes_peak = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # ``pass_through`` below is push-then-pop written out: a subclass
        # that changes either must say what a packet that waits for
        # nothing sees, or an idle link would silently bypass it.
        if (cls.pass_through is DropTailQueue.pass_through
                and (cls.push is not DropTailQueue.push
                     or cls.pop is not DropTailQueue.pop)):
            raise TypeError(f"{cls.__name__} overrides push/pop and must "
                            "override pass_through too")

    def __len__(self) -> int:
        return len(self._q)

    @property
    def bytes_queued(self) -> Bytes:
        return self._bytes

    @property
    def occupancy(self) -> float:
        """Fill level in [0, 1]."""
        return self._bytes / self.capacity_bytes

    def push(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False (and counts a drop) when full."""
        queued = self._bytes + packet.size
        if queued > self.capacity_bytes:
            self._count_drop(packet)
            return False
        self._q.append(packet)
        self._bytes = queued
        if queued > self.bytes_peak:
            self.bytes_peak = queued
        self.enqueued += 1
        return True

    def pop(self, now: Seconds = 0.0) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._q:
            return None
        packet = self._q.popleft()
        self._bytes -= packet.size
        return packet

    def pass_through(self, packet: Packet, now: Seconds) -> bool:
        """``push`` then ``pop`` of ``packet`` on an *empty* queue, for a
        link that will start it at once: the same admission and the same
        statistics without the packet ever being held.  False (a drop,
        counted) when even an empty buffer is too small for it."""
        size = packet.size
        if size > self.capacity_bytes:
            self._count_drop(packet)
            return False
        if size > self.bytes_peak:
            self.bytes_peak = size
        self.enqueued += 1
        return True

    def _count_drop(self, packet: Packet) -> None:
        self.drops += 1
        flow = packet.flow_id
        self.flow_drops[flow] = self.flow_drops.get(flow, 0) + 1


class CoDelQueue(DropTailQueue):
    """Controlled-delay AQM (RFC 8289) on top of a byte-capacity FIFO.

    Packets are timestamped on entry; when the head packet has queued for
    more than ``target`` during a whole ``interval``, CoDel enters dropping
    state and drops head packets at increasing frequency
    (``interval / sqrt(count)``).
    """

    __slots__ = ("target", "interval", "ecn", "marks", "_enqueue_time",
                 "_first_above_time", "_dropping", "_drop_next", "_count",
                 "_now_hint")

    def __init__(self, capacity_bytes: Bytes, name: str = "codel",
                 target: Seconds = 0.005, interval: Seconds = 0.100,
                 ecn: bool = False) -> None:
        super().__init__(capacity_bytes, name)
        self.target = target
        self.interval = interval
        #: mark ECN-capable packets (CE) instead of dropping them
        self.ecn = ecn
        self.marks = 0
        self._enqueue_time: Deque[float] = deque()
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._count = 0
        # CoDel needs the current time at enqueue; callers (Link.send)
        # set this before push.
        self._now_hint: float = 0.0

    def push(self, packet: Packet) -> bool:
        ok = super().push(packet)
        if ok:
            self._enqueue_time.append(self._now_hint)
        return ok

    def set_now(self, now: Seconds) -> None:
        self._now_hint = now

    def pass_through(self, packet: Packet, now: Seconds) -> bool:
        # The real push and pop: the control law sees the zero-sojourn
        # packet it has always seen (which ends a dropping episode), and
        # a lone head at sojourn 0 is never dropped, so pop returns it.
        self._now_hint = now
        return self.push(packet) and self.pop(now) is packet

    def _sojourn_ok(self, now: Seconds) -> bool:
        """Return True when the head packet should be delivered (not dropped)."""
        if not self._q:
            self._first_above_time = 0.0
            return True
        sojourn = now - self._enqueue_time[0]
        if sojourn < self.target or self._bytes <= 2 * 1500:
            self._first_above_time = 0.0
            return True
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return True
        return now < self._first_above_time

    def pop(self, now: Seconds = 0.0) -> Optional[Packet]:
        while self._q:
            ok = self._sojourn_ok(now)
            if not self._dropping:
                if ok or (now < self._drop_next and self._count > 0):
                    break
                self._dropping = True
                self._count = max(1, self._count - 2) if now - self._drop_next < self.interval else 1
                self._drop_next = now + self.interval / math.sqrt(self._count)
                if not self._drop_head(now):
                    break  # head was CE-marked: deliver it
                continue
            # dropping state
            if ok:
                self._dropping = False
                break
            if now >= self._drop_next:
                self._count += 1
                self._drop_next = now + self.interval / math.sqrt(self._count)
                if not self._drop_head(now):
                    break
                continue
            break
        packet = super().pop(now)
        if packet is not None and self._enqueue_time:
            self._enqueue_time.popleft()
        return packet

    def _drop_head(self, now: Seconds) -> bool:
        """Drop (or CE-mark) the head packet; True when it was removed."""
        if not self._q:
            return False
        if self.ecn and self._q[0].ect:
            # RFC 3168 / RFC 8289: mark instead of dropping when the
            # transport is ECN-capable.  The control law proceeds as if a
            # drop happened; the packet is delivered carrying CE.
            self._q[0].ce = True
            self.marks += 1
            return False
        packet = self._q.popleft()
        self._enqueue_time.popleft()
        self._bytes -= packet.size
        self._count_drop(packet)
        return True
