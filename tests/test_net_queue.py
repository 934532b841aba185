"""Unit tests for drop-tail and CoDel queues."""

import pytest

from repro.net import DropTailQueue, CoDelQueue, Packet, PacketKind


def pkt(payload=1448, flow=1):
    return Packet(flow_id=flow, src="a", dst="b", kind=PacketKind.DATA,
                  payload=payload)


class TestDropTail:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    def test_fifo_order(self):
        q = DropTailQueue(10 ** 6)
        first, second = pkt(), pkt()
        q.push(first)
        q.push(second)
        assert q.pop() is first
        assert q.pop() is second
        assert q.pop() is None

    def test_drop_when_full(self):
        q = DropTailQueue(2000)
        assert q.push(pkt())          # 1500 B fits
        assert not q.push(pkt())      # second 1500 B does not
        assert q.drops == 1
        assert len(q) == 1

    def test_byte_accounting(self):
        q = DropTailQueue(10 ** 6)
        q.push(pkt(1000))
        q.push(pkt(2000))
        assert q.bytes_queued == (1000 + 52) + (2000 + 52)
        q.pop()
        assert q.bytes_queued == 2052

    def test_occupancy(self):
        q = DropTailQueue(3000)
        assert q.occupancy == 0.0
        q.push(pkt(1448))
        assert 0 < q.occupancy <= 1.0

    def test_drops_counted_per_flow(self):
        q = DropTailQueue(3000)
        for flow in (1, 1, 2, 2, 2, 1):
            q.push(pkt(flow=flow))
        assert q.drops == 4
        assert q.flow_drops == {1: 1, 2: 3}

    def test_small_packets_fill_to_capacity(self):
        q = DropTailQueue(10 * 1500)
        pushed = 0
        while q.push(pkt()):
            pushed += 1
        assert pushed == 10

    def test_subclass_changing_push_or_pop_must_say_what_passes_through(self):
        """An idle link offers through ``pass_through`` alone, so a new
        discipline that inherited drop-tail's copy would be bypassed."""
        with pytest.raises(TypeError, match="pass_through"):
            class Lifo(DropTailQueue):
                __slots__ = ()

                def pop(self, now=0.0):
                    return self._q.pop() if self._q else None

        class Counting(DropTailQueue):      # neither changed: fine
            __slots__ = ()

        class Red(CoDelQueue):              # CoDel's is its real push + pop
            __slots__ = ()

            def push(self, packet):
                return super().push(packet)

        assert Counting(3000).pass_through(pkt(), 0.0)
        assert Red(3000).pass_through(pkt(), 0.0)


class TestCoDel:
    def test_below_target_no_drops(self):
        q = CoDelQueue(10 ** 6, target=0.005, interval=0.1)
        for t in [0.0, 0.001, 0.002]:
            q.set_now(t)
            q.push(pkt())
        # Pop immediately: sojourn < target.
        got = [q.pop(0.003), q.pop(0.004), q.pop(0.005)]
        assert all(p is not None for p in got)
        assert q.drops == 0

    def test_persistent_delay_drops(self):
        q = CoDelQueue(10 ** 6, target=0.005, interval=0.05)
        for i in range(100):
            q.set_now(0.0)
            q.push(pkt())
        # Pop slowly so the queue stays over target for > interval.
        drops_before = q.drops
        t = 0.2
        popped = 0
        while len(q):
            if q.pop(t) is not None:
                popped += 1
            t += 0.02
        assert q.drops > drops_before

    def test_empty_pop(self):
        q = CoDelQueue(10 ** 6)
        assert q.pop(0.0) is None
