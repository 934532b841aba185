"""Tracer/Observability wiring plus end-to-end instrumentation coverage."""

import pytest

from tests.helpers import MSS, make_transfer
from repro.experiments import ablation_aqm, ext_burstiness, ext_crosstraffic
from repro.experiments.runner import run_single_flow
from repro.flowsim.crossval import packet_fct
from repro.net import build_path
from repro.obs import records as obsrec
from repro.obs import tracer as tracer_module
from repro.obs.golden import record_lines
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.tracer import (
    ENV_VAR,
    KINDS_ENV_VAR,
    Observability,
    Tracer,
    from_env,
    tracing,
)
from repro.sim.engine import Simulator
from repro.tcp import open_transfer
from repro.workloads.scenarios import INTERNET_SCENARIOS


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


class TestFromEnv:
    def test_disabled_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert from_env() is None

    def test_jsonl_mode(self, monkeypatch, tmp_path):
        path = tmp_path / "t.jsonl"
        monkeypatch.setenv(ENV_VAR, f"jsonl:{path}")
        obs = from_env()
        assert isinstance(obs.tracer.sink, JsonlSink)
        obs.close()
        assert tracer_module._ambient_streams[str(path)][0].closed

    def test_jsonl_requires_path(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "jsonl")
        with pytest.raises(ValueError, match="needs a path"):
            from_env()

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown REPRO_TRACE mode"):
            from_env()

    def test_kinds_filter_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, f"jsonl:{tmp_path / 't.jsonl'}")
        monkeypatch.setenv(KINDS_ENV_VAR, "cc.cwnd,suss.decision")
        obs = from_env()
        assert obs.tracer.kinds == {"cc.cwnd", "suss.decision"}
        obs.close()

    def test_simulator_consults_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, f"jsonl:{tmp_path / 't.jsonl'}")
        sim = Simulator(sanitizer=None)
        assert isinstance(sim.obs.tracer.sink, JsonlSink)
        sim.obs.close()
        # explicit opt-out beats the environment
        assert Simulator(sanitizer=None, obs=None).obs is None


class TestAmbientJsonl:
    """``REPRO_TRACE=jsonl:PATH`` is one stream per process and path:
    every Simulator built under it lands in the same file."""

    @pytest.fixture(autouse=True)
    def ambient(self, monkeypatch, tmp_path):
        self.path = tmp_path / "ambient.jsonl"
        monkeypatch.setenv(ENV_VAR, f"jsonl:{self.path}")

    @staticmethod
    def _download(flow, size, obs=None):
        sim = Simulator(sanitizer=None) if obs is None else Simulator(
            sanitizer=None, obs=obs)
        net = build_path(sim, 12_500_000, 0.05, 200_000)
        transfer = open_transfer(sim, net.servers[0], net.clients[0],
                                 flow_id=flow, size_bytes=size, cc="cubic")
        return sim, transfer

    def _expected(self, flow, size):
        """The run's canonical lines, traced explicitly into memory."""
        sink = MemorySink()
        sim, transfer = self._download(flow, size, tracing(sink))
        sim.run(until=60.0)
        assert transfer.completed and len(sink) > 100
        return record_lines(sink.records)

    def _lines_by_flow(self):
        lines = self.path.read_text().splitlines()
        flows = {}
        for line in lines:
            flows.setdefault(obsrec.TraceRecord.from_line(line).flow,
                             []).append(line)
        return lines, flows

    def test_sequential_runs_share_one_file(self):
        first, second = self._expected(1, 200_000), self._expected(2, 50_000)
        for flow, size in ((1, 200_000), (2, 50_000)):
            sim, transfer = self._download(flow, size)
            sim.run(until=60.0)
            assert transfer.completed
            sim.obs.close()  # the last borrower: closes the stream
        lines, flows = self._lines_by_flow()
        # the second Simulator appended; it did not truncate the first run
        assert lines == first + second
        assert flows == {1: first, 2: second}

    def test_interleaved_runs_write_whole_lines_in_order(self):
        first, second = self._expected(1, 200_000), self._expected(2, 50_000)
        (sim_a, done_a), (sim_b, done_b) = (self._download(1, 200_000),
                                            self._download(2, 50_000))
        assert sim_a.obs.tracer.sink is not sim_b.obs.tracer.sink
        for step in range(1, 601):
            sim_a.run(until=step * 0.01)
            sim_b.run(until=step * 0.01)
        assert done_a.completed and done_b.completed
        stream = tracer_module._ambient_streams[str(self.path)][0]
        sim_a.obs.close()
        assert not stream.closed
        sim_b.obs.close()
        assert stream.closed
        lines, flows = self._lines_by_flow()
        assert len(lines) == len(first) + len(second)
        assert flows == {1: first, 2: second}
        # genuinely interleaved, not one run after the other
        assert lines != first + second

    def test_a_harness_run_releases_the_stream(self):
        """``_end_run`` closes the bundle the run built from the
        environment; the next run reopens the file and appends."""
        scenario = INTERNET_SCENARIOS["google-tokyo/wired"]
        streams = tracer_module._ambient_streams
        run_single_flow(scenario, "cubic", 50_000, seed=1)
        assert streams[str(self.path)][0].closed
        first = self.path.read_text()
        run_single_flow(scenario, "cubic", 50_000, seed=2)
        assert streams[str(self.path)][0].closed
        both = self.path.read_text()
        assert first and both.startswith(first) and len(both) > len(first)
        assert all(obsrec.TraceRecord.from_line(line)
                   for line in both.splitlines())

    @pytest.mark.parametrize("harness", [
        lambda: ablation_aqm.run(size=100_000, queue_kinds=("codel",),
                                 ccs=("cubic",)),
        lambda: ext_burstiness.run(size=100_000, ccs=("cubic",)),
        lambda: ext_crosstraffic._one("cubic", 0.3, 100_000, 0, 50.0,
                                      fg_start=0.5, horizon=2.0),
        lambda: packet_fct(INTERNET_SCENARIOS["google-tokyo/wired"],
                           "cubic", 50_000, 1),
    ], ids=["aqm", "burstiness", "crosstraffic", "crossval"])
    def test_a_harness_built_simulator_releases_the_stream(self, harness):
        """Harnesses that build their own Simulator close its bundle."""
        harness()
        assert tracer_module._ambient_streams[str(self.path)][0].closed
        assert self.path.read_text()


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

    def test_disabled_run_allocates_nothing(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        bench = make_transfer("cubic", size=50 * MSS)
        assert bench.sim.obs is None
        assert bench.sender.obs is None
        bench.run()
        assert bench.transfer.completed
