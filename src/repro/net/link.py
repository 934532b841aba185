"""Point-to-point links with serialisation, propagation, and impairments.

A :class:`Link` models one direction of a physical link:

* packets wait in an attached queue (drop-tail by default) while the link
  serialises earlier packets at the (possibly time-varying) bandwidth;
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
from repro.net.packet import POOL, Packet
from repro.net.queue import DropTailQueue
from repro.obs import records as obsrec
from repro.sim.engine import Simulator


class Receiver(Protocol):
    """Anything that can accept a packet (host, router)."""

    def receive(self, packet: Packet) -> None: ...


class Link:
    """One direction of a link: queue → serialiser → propagation → dst."""

    __slots__ = ("sim", "dst", "bandwidth", "delay", "queue", "jitter",
                 "loss", "name", "_busy", "_last_arrival", "packets_sent",
                 "bytes_sent", "packets_lost", "obs", "_m_bytes", "_m_drops",
                 "_m_qlen", "_set_now")

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
        self._busy = False
        self._last_arrival: Seconds = 0.0
        self.packets_sent = 0
        self.bytes_sent: Bytes = 0
        self.packets_lost = 0
        # Hoisted once: the per-send cost of the CoDel time hint is a
        # pointer test instead of a hasattr() call.
        self._set_now = getattr(self.queue, "set_now", None)
        # Metric handles are resolved once here so the per-packet cost of
        # instrumentation is a single ``is not None`` test when disabled.
        self.obs = sim.obs
        if self.obs is not None:
            m = self.obs.metrics
            self._m_bytes = m.counter("link.bytes_sent", link=name)
            self._m_drops = m.counter("link.drops", link=name)
            self._m_qlen = m.histogram("link.queue_bytes", link=name)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; False means the queue dropped it."""
        if self._set_now is not None:
            self._set_now(self.sim.now)
        if not self.queue.push(packet):
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(f"{self.name}: queue full")
            if self.obs is not None:
                self._note_drop(packet, "queue_full")
            return False
        if self.obs is not None:
            self._m_qlen.observe(self.queue.bytes_queued)
        if not self._busy:
            self._start_next()
        return True

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        drops_before = self.queue.drops
        packet = self.queue.pop(self.sim.now)
        if self.queue.drops > drops_before:
            # AQM (CoDel) head drops happen inside pop().
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(
                    f"{self.name}: AQM drop", self.queue.drops - drops_before)
            if self.obs is not None:
                self._m_drops.add(self.queue.drops - drops_before)
                self.obs.emit(self.sim.now, obsrec.PKT_DROP, -1,
                              link=self.name, reason="aqm",
                              count=self.queue.drops - drops_before)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        rate = self.bandwidth.rate_at(self.sim.now)
        tx_time = packet.size / rate
        self.sim.schedule(tx_time, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size
        if self.obs is not None:
            self._m_bytes.add(packet.size)
        if self.loss is not None and self.loss.drops():
            self.packets_lost += 1
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(f"{self.name}: random loss")
            if self.obs is not None:
                self._note_drop(packet, "random_loss")
            # The packet dies mid-path: pooled packets rejoin the free
            # list here instead of waiting for end-host delivery that
            # will never come (refcount-guarded).
            POOL.release(packet)
        else:
            prop = self.delay
            if self.jitter is not None:
                prop += self.jitter.sample(self.sim.now)
            # Jitter must not reorder: real-path delay variation comes from
            # queueing, which preserves FIFO order.  Clamp each arrival to
            # be no earlier than the previous one.
            arrival = max(self.sim.now + prop, self._last_arrival)
            self._last_arrival = arrival
            self.sim.schedule_at(arrival, self.dst.receive, packet)
        self._start_next()

    def _note_drop(self, packet: Packet, reason: str) -> None:
        self._m_drops.add(1)
        self.obs.emit(self.sim.now, obsrec.PKT_DROP, packet.flow_id,
                      link=self.name, reason=reason, seq=packet.seq,
                      size=packet.size)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    def utilization_rate(self) -> BytesPerSec:
        """Mean bytes/second pushed through the link so far."""
        if self.sim.now <= 0.0:
            return 0.0
        return self.bytes_sent / self.sim.now
