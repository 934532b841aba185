"""Point-to-point links with serialisation, propagation, and impairments.

A :class:`Link` models one direction of a physical link:

* packets wait in an attached queue (drop-tail by default) while the link
  serialises earlier packets at the (possibly time-varying) bandwidth
  in force when each one starts;
* each packet then propagates for ``delay`` plus optional jitter;
* optional Bernoulli loss discards packets at the receiving end
  (after consuming link capacity, like real corruption loss).

The queue is where bottleneck buffering happens, so buffer sizing in BDP
units — as in the paper's testbed — is applied to the link's queue.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.core.units import Bytes, BytesPerSec, Seconds
from repro.net.netem import BandwidthProfile, ConstantBandwidth, JitterModel, LossModel
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.obs import records as obsrec
from repro.sim.engine import EventRef, Simulator


class Receiver(Protocol):
    """Anything that can accept a packet (host, router)."""

    def receive(self, packet: Packet) -> None: ...


class Link:
    """One direction of a link: queue → serialiser → propagation → dst.

    A packet costs one engine event per hop: its arrival at ``dst``.
    The instant its last bit leaves the serialiser is computed when
    serialisation *starts* (``_transmit``), not discovered by an event:
    ``finish = now + size / rate_at(now)``; loss and jitter are drawn
    there and then, in start order — which is finish order, the link
    being FIFO — and the arrival is scheduled straight at
    ``max(finish + delay + jitter, previous arrival)``.  The link wakes
    itself at ``finish`` only when a packet is waiting in the queue; one
    that finds the link idle starts at once, in the frame that offered
    it — the queue is told with one ``pass_through`` and never holds it.
    ``_busy_until`` is the finish time of the packet in service (or of
    the last one), ``_wake`` the pending wake if any; the queue holds
    exactly the waiting packets, and *queue non-empty ⇒ a wake is armed*
    is the invariant.

    Ties.  A packet offered at exactly ``_busy_until`` with nothing
    waiting starts immediately (the serialiser is free at that instant);
    with a wake pending it queues behind what waits and the wake, which
    fires at that same instant, drains the queue in order.

    What happens to a packet at ``finish`` rather than at start — a
    random loss being counted, traced and reported to the sanitizer — is
    stamped there by the one ``_lose`` event a lost packet gets in place
    of its arrival.  ``packets_sent`` / ``bytes_sent`` / ``busy`` read as
    of the current simulated time: the packet in service is counted from
    ``finish`` on, not from its start.
    """

    __slots__ = ("sim", "dst", "bandwidth", "delay", "queue", "jitter",
                 "loss", "name", "_busy_until", "_wake", "_last_arrival",
                 "_started", "_started_bytes", "_tx_size", "packets_lost",
                 "_drop_obs", "_set_now", "_tracing")

    def __init__(self, sim: Simulator, dst: Receiver, bandwidth: BandwidthProfile,
                 delay: Seconds, queue: Optional[DropTailQueue] = None,
                 jitter: Optional[JitterModel] = None,
                 loss: Optional[LossModel] = None,
                 name: str = "link") -> None:
        if delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if isinstance(bandwidth, (int, float)):
            # ConstantBandwidth validates the scalar (positive + finite),
            # so a zero/negative/NaN rate fails here instead of poisoning
            # serialisation times downstream.
            bandwidth = ConstantBandwidth(float(bandwidth))
        self.sim = sim
        self.dst = dst
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(10**9, name=f"{name}.q")
        self.jitter = jitter
        self.loss = loss
        self.name = name
        self._busy_until: Seconds = 0.0
        self._wake: Optional[EventRef] = None
        self._last_arrival: Seconds = 0.0
        # Counted when serialisation starts; the read side takes the
        # packet in service (``_tx_size`` bytes) back out until it ends.
        self._started = 0
        self._started_bytes: Bytes = 0
        self._tx_size: Bytes = 0
        self.packets_lost = 0
        # Hoisted once: the per-send cost of the CoDel time hint is a
        # pointer test instead of a hasattr() call.
        self._set_now = getattr(self.queue, "set_now", None)
        # Resolved once: a link nobody watches drops on pays one pointer
        # test per drop site.
        obs = sim.obs
        self._drop_obs = (None if obs is None
                          else obs.gate(obsrec.PKT_DROP))
        # A traced run carries each packet's causal origin across the
        # queue (see send); an untraced one pays one test per hop.
        self._tracing = obs is not None and obs.tracer is not None

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; False means the queue dropped it."""
        sim = self.sim
        now = sim.now
        if self._wake is None and now >= self._busy_until:
            # Free serialiser, no wake armed — so nothing is waiting:
            # the packet starts in this frame, under the scheduling
            # origin of the event that offered it.
            if self.queue.pass_through(packet, now):
                self._transmit(packet, now)
                return True
        else:
            if self._set_now is not None:
                self._set_now(now)
            if self.queue.push(packet):
                if self._tracing:
                    # The wake that starts the packet was armed by some
                    # other packet's send; its records must still cite
                    # the event that offered *it*.
                    packet._origin = sim._sched_origin
                if self._wake is None:
                    self._wake = sim.schedule_at(
                        self._busy_until, self._start_next, self._busy_until)
                return True
        if sim.sanitizer is not None:
            sim.sanitizer.note_network_drop(f"{self.name}: queue full")
        if self._drop_obs is not None:
            self._note_drop(packet, "queue_full")
        return False

    # ------------------------------------------------------------------
    def _start_next(self, now: Seconds) -> None:
        """The wake: put the head packet on the wire at ``now``."""
        sim = self.sim
        queue = self.queue
        self._wake = None
        drops_before = queue.drops
        packet = queue.pop(now)
        if queue.drops > drops_before:
            # AQM (CoDel) head drops happen inside pop().
            if sim.sanitizer is not None:
                sim.sanitizer.note_network_drop(
                    f"{self.name}: AQM drop", queue.drops - drops_before)
            if self._drop_obs is not None:
                self._drop_obs.emit(now, obsrec.PKT_DROP, -1,
                                    link=self.name, reason="aqm",
                                    count=queue.drops - drops_before)
        if packet is None:
            return
        if self._tracing:
            sim._sched_origin = packet._origin
        self._transmit(packet, now)
        if queue._q:  # the deque itself: no __len__ call per packet per hop
            finish = self._busy_until
            self._wake = sim.schedule_at(finish, self._start_next, finish)

    def _transmit(self, packet: Packet, now: Seconds) -> None:
        """Start serialising ``packet`` at ``now`` (== ``sim.now``) and
        schedule what becomes of it."""
        size = packet.size
        # The same two float operations the finish event's
        # ``schedule(size / rate, …)`` used to perform.
        finish = now + size / self.bandwidth.rate_at(now)
        self._busy_until = finish
        self._started += 1
        self._started_bytes += size
        self._tx_size = size
        if self.loss is not None and self.loss.drops():
            self.sim.schedule_at(finish, self._lose, packet)
        else:
            prop = self.delay
            if self.jitter is not None:
                prop += self.jitter.sample(finish)
            # Jitter must not reorder: real-path delay variation comes from
            # queueing, which preserves FIFO order.  Clamp each arrival to
            # be no earlier than the previous one.
            arrival = finish + prop
            if arrival < self._last_arrival:
                arrival = self._last_arrival
            else:
                self._last_arrival = arrival
            self.sim.schedule_at(arrival, self.dst.receive, packet)

    def _lose(self, packet: Packet) -> None:
        """Random loss, at the instant the packet's last bit left."""
        self.packets_lost += 1
        if self.sim.sanitizer is not None:
            self.sim.sanitizer.note_network_drop(f"{self.name}: random loss")
        if self._drop_obs is not None:
            self._note_drop(packet, "random_loss")

    def _note_drop(self, packet: Packet, reason: str) -> None:
        self._drop_obs.emit(self.sim.now, obsrec.PKT_DROP, packet.flow_id,
                            link=self.name, reason=reason, seq=packet.seq,
                            size=packet.size)

    # ------------------------------------------------------------------
    # read side (tests, reports): as of the current simulated time
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.sim.now < self._busy_until

    @property
    def packets_sent(self) -> int:
        """Packets whose last bit has left the serialiser."""
        return self._started - self.busy

    @property
    def bytes_sent(self) -> Bytes:
        return self._started_bytes - (self._tx_size if self.busy else 0)

    def utilization_rate(self) -> BytesPerSec:
        """Mean bytes/second pushed through the link so far."""
        if self.sim.now <= 0.0:
            return 0.0
        return self.bytes_sent / self.sim.now
