"""Odds-and-ends coverage: counters, formatting, CLI experiment dispatch."""

import pytest

from repro.cli import main
from repro.experiments.report import _fmt
from repro.net import ConstantBandwidth, Link, Packet, PacketKind
from repro.sim import Simulator


class TestLinkCounters:
    def test_utilization_rate(self):
        sim = Simulator()

        class Sink:
            def receive(self, p):
                pass

        link = Link(sim, Sink(), ConstantBandwidth(1500.0), delay=0.0)
        link.send(Packet(flow_id=1, src="a", dst="b",
                         kind=PacketKind.DATA, payload=1448))
        sim.run()
        # 1500 B over 1 s of simulated time.
        assert link.utilization_rate() == pytest.approx(1500.0)

    def test_utilization_zero_at_time_zero(self):
        sim = Simulator()

        class Sink:
            def receive(self, p):
                pass

        link = Link(sim, Sink(), ConstantBandwidth(1.0), delay=0.0)
        assert link.utilization_rate() == 0.0


class TestSimulatorCounters:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel_event(drop)
        assert sim.pending_events == 1


class TestReportFormatting:
    def test_float_formats(self):
        assert _fmt(1.23456) == "1.235"
        assert _fmt(0.0001) == "1.000e-04"
        assert _fmt(123456.0) == "1.235e+05"
        assert _fmt(0.0) == "0"
        assert _fmt("text") == "text"
        assert _fmt(7) == "7"


class TestCliExperiments:
    def test_burstiness_dispatch(self, capsys):
        assert main(["experiment", "burstiness"]) == 0
        assert "queue pressure" in capsys.readouterr().out

    def test_delack_dispatch(self, capsys):
        assert main(["experiment", "delack"]) == 0
        assert "delayed ACK" in capsys.readouterr().out

    def test_bbr_suss_dispatch(self, capsys):
        assert main(["experiment", "bbr-suss"]) == 0
        assert "BBR+SUSS" in capsys.readouterr().out
