"""Tests for queue-occupancy monitoring and the burstiness experiment."""

import pytest

from repro.experiments import ext_burstiness
from repro.metrics import QueueMonitor
from repro.net import DropTailQueue, Packet, PacketKind
from repro.sim import Simulator
from repro.workloads import MB


def pkt(payload=1448):
    return Packet(flow_id=1, src="a", dst="b", kind=PacketKind.DATA,
                  payload=payload)


class TestQueueMonitor:
    def test_samples_on_grid(self):
        sim = Simulator()
        q = DropTailQueue(10 ** 6)
        monitor = QueueMonitor(sim, q, interval=0.01, max_duration=0.1)
        sim.schedule(0.025, lambda: q.push(pkt()))
        sim.run(until=0.2)
        # t = 0.00 .. 0.10 on a 10 ms grid (float accumulation may add one)
        assert 11 <= len(monitor.series) <= 12
        assert monitor.series.value_at(0.02) == 0
        assert monitor.series.value_at(0.03) == 1500

    def test_peak_and_percentile(self):
        sim = Simulator()
        q = DropTailQueue(10 ** 6)
        monitor = QueueMonitor(sim, q, interval=0.01, max_duration=1.0)
        for i in range(5):
            sim.schedule(0.1 * (i + 1), lambda: q.push(pkt()))
        sim.run(until=1.1)
        assert monitor.peak() == 5 * 1500
        assert monitor.percentile(0) == 0.0
        assert monitor.percentile(100) == 5 * 1500
        assert 0 < monitor.mean() < 5 * 1500

    def test_percentile_validation(self):
        sim = Simulator()
        monitor = QueueMonitor(sim, DropTailQueue(1000), max_duration=0.0)
        with pytest.raises(ValueError):
            monitor.percentile(120)

    def test_stop_halts_sampling(self):
        sim = Simulator()
        q = DropTailQueue(10 ** 6)
        monitor = QueueMonitor(sim, q, interval=0.01, max_duration=10.0)
        sim.run(until=0.05)
        monitor.stop()
        n = len(monitor.series)
        sim.run(until=0.5)
        assert len(monitor.series) == n

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            QueueMonitor(Simulator(), DropTailQueue(1000), interval=0.0)

    def test_window_selection(self):
        sim = Simulator()
        q = DropTailQueue(10 ** 6)
        monitor = QueueMonitor(sim, q, interval=0.01, max_duration=1.0)
        sim.schedule(0.5, lambda: q.push(pkt()))
        sim.run(until=1.1)
        assert monitor.peak(0.0, 0.4) == 0.0
        assert monitor.peak(0.4, 1.0) == 1500


class TestBurstinessExperiment:
    def test_suss_lowers_ramp_queue_pressure(self):
        rows = ext_burstiness.run(size=3 * MB,
                                  ccs=("cubic", "cubic+suss", "cubic-iw32"))
        by = {r.cc: r for r in rows}
        # SUSS's paced growth puts less pressure on the bottleneck buffer
        # than plain doubling or a large initial window.
        assert by["cubic+suss"].peak_queue <= by["cubic"].peak_queue
        assert by["cubic+suss"].peak_queue <= by["cubic-iw32"].peak_queue
        assert "queue pressure" in ext_burstiness.format_report(rows)

    def test_peak_fill_bounded(self):
        rows = ext_burstiness.run(size=2 * MB)
        for row in rows:
            assert 0.0 <= row.peak_fill <= 1.0
