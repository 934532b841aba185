"""Tracer/Observability wiring plus end-to-end instrumentation coverage."""

from tests.helpers import MSS, make_transfer
from repro.obs import records as obsrec
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer, tracing


class TestTracer:
    def test_emits_all_kinds_by_default(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink))
        obs.emit(1.0, obsrec.PKT_SEND, 1, seq=0)
        obs.emit(2.0, obsrec.CC_CWND, 1, cwnd=10)
        assert len(sink) == 2
        assert obs.tracer.wants(obsrec.PKT_DROP)

    def test_kind_filter(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(
            sink, kinds=frozenset({obsrec.CC_CWND})))
        obs.emit(1.0, obsrec.PKT_SEND, 1, seq=0)
        obs.emit(2.0, obsrec.CC_CWND, 1, cwnd=10)
        assert [r.kind for r in sink.records] == [obsrec.CC_CWND]
        assert not obs.wants(obsrec.PKT_SEND) and obs.gate(obsrec.PKT_SEND) is None
        assert obs.gate(obsrec.CC_CWND) is obs

    def test_observability_emit_and_close(self):
        sink = MemorySink()
        obs = tracing(sink)
        obs.emit(1.0, obsrec.TCP_RTT, 3, rtt=0.1)
        assert sink.records[0].flow == 3
        obs.close()  # closes the sink (no-op for MemorySink)

    def test_observability_without_tracer_is_quiet(self):
        obs = Observability()
        obs.emit(1.0, obsrec.TCP_RTT, 1, rtt=0.1)  # must not raise
        obs.close()


# ----------------------------------------------------------------------
# end-to-end: a traced transfer produces the documented record kinds
# ----------------------------------------------------------------------
class TestInstrumentationCoverage:
    def _traced_run(self, cc, **kwargs):
        sink = MemorySink()
        bench = make_transfer(cc, obs=tracing(sink), **kwargs).run()
        assert bench.transfer.completed
        return bench, sink

    def test_cubic_run_emits_core_kinds(self):
        bench, sink = self._traced_run("cubic", size=200 * MSS)
        kinds = {r.kind for r in sink.records}
        assert {obsrec.PKT_SEND, obsrec.PKT_RECV, obsrec.CC_CWND,
                obsrec.TCP_RTT, obsrec.TCP_DELIVERED} <= kinds
        sends = sink.by_kind(obsrec.PKT_SEND)
        assert len(sends) == bench.sender.data_packets_sent
        assert all(r.flow == 1 for r in sends)

    def test_times_are_non_decreasing(self):
        _, sink = self._traced_run("cubic", size=200 * MSS)
        times = [r.time for r in sink.records]
        assert times == sorted(times)

    def test_suss_run_emits_decision_records(self):
        # Long RTT and ample buffer: SUSS accelerates (G > 2) and installs
        # at least one pacing plan.
        bench, sink = self._traced_run("cubic+suss", size=600 * MSS,
                                       rtt=0.15, buffer_bdp=2.0)
        assert bench.cc.accelerated_rounds > 0
        decisions = sink.by_kind(obsrec.SUSS_DECISION)
        assert decisions, "SUSS decisions must be traced"
        verdicts = {r.fields["verdict"] for r in decisions}
        assert "accelerate" in verdicts
        plans = sink.by_kind(obsrec.SUSS_PLAN)
        assert len(plans) == bench.cc.accelerated_rounds
        assert all(r.fields["rate"] > 0 for r in plans)

    def test_pacing_rate_installs_traced_for_bbr(self):
        # BBR drives the sender's pacer via cc.pacing_rate; each rate
        # change lands exactly one tcp.pacing record.
        _, sink = self._traced_run("bbr", size=200 * MSS)
        installs = sink.by_kind(obsrec.TCP_PACING)
        assert installs
        rates = [r.fields["rate"] for r in installs]
        assert all(rate >= 0 for rate in rates)
        assert len(rates) == len([r for i, r in enumerate(rates)
                                  if i == 0 or rates[i - 1] != r])

    def test_drop_records_on_shallow_buffer(self):
        # without HyStart, slow start overshoots until the buffer drops
        bench, sink = self._traced_run("cubic-nohystart", size=2600 * MSS,
                                       buffer_bdp=0.25)
        drops = sink.by_kind(obsrec.PKT_DROP)
        assert drops, "shallow-buffer run must drop"
        assert all(r.fields["reason"] == "queue_full" for r in drops)
        assert sink.by_kind(obsrec.TCP_RECOVERY)

    def test_metrics_registry_populated(self):
        # A simulation carries no metric registry: the trace is the
        # only report, and it agrees with the counts where they live.
        sink = MemorySink()
        obs = tracing(sink)
        bench = make_transfer("cubic", size=200 * MSS, obs=obs).run()
        assert not hasattr(obs, "metrics")
        assert len(sink.by_kind(obsrec.PKT_SEND)) == \
            bench.sender.data_packets_sent
        assert sink.by_kind(obsrec.TCP_DELIVERED)[-1].fields["delivered"] \
            == bench.receiver.bytes_delivered == bench.sender.delivered
        assert bench.net.bottleneck_fwd.bytes_sent > 0

    def test_disabled_run_allocates_nothing(self):
        bench = make_transfer("cubic", size=50 * MSS)
        assert bench.sim.obs is None
        assert bench.sender.obs is None
        bench.run()
        assert bench.transfer.completed
