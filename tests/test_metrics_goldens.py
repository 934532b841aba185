"""The flow-series collector against goldens captured from the hook-driven
collector it replaced (parent of PR 14).

``tests/golden/collector_series.json`` holds SHA-256 digests of the four
``FlowTrace`` series of six fixed-seed downloads, and per-flow bottleneck
drop counts; ``tests/golden/figure_reports.json`` the report text of
every figure harness that reads series.  The record-fed collector must
reproduce ``rtt`` / ``delivered`` and every report exactly.  ``cwnd`` /
``inflight`` may only have *gained* points — the post-loss window the old
cwnd hook never saw — one right after each ``tcp.recovery`` enter
or ``tcp.rto`` record.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import (
    fig01_motivation,
    fig09_cwnd_rtt,
    fig10_delivered,
    fig13_large_flow,
    fig16_stability_trace,
    goldens,
)
from repro.experiments.runner import run_fairness_cell, run_single_flow
from repro.net import CoDelQueue, bdp_bytes, build_dumbbell
from repro.obs import DigestSink, MemorySink, TeeSink, load_digests, tracing
from repro.obs import records as obsrec
from repro.obs import tracer as tracer_module
from repro.sim import RngRegistry, Simulator
from repro.tcp import open_transfer
from repro.workloads import (
    INTERNET_SCENARIOS,
    MB,
    FlowSpec,
    LocalTestbedConfig,
    launch_flows,
)

from tests.helpers import MSS

GOLDEN_DIR = Path(__file__).parent / "golden"
SERIES = json.loads((GOLDEN_DIR / "collector_series.json").read_text())
REPORTS = json.loads((GOLDEN_DIR / "figure_reports.json").read_text())

#: the constant 20 Mbit/s x 50 ms lab path of the series goldens
LAB_PATH = goldens.RECOVERY_PATHS["reorder"]
BUFFER_BDP = {"clean": 2.0, "droptail": 0.25}
SERIES_RUNS = [name for name in SERIES
               if name.split("/")[0] in BUFFER_BDP]


def series_digest(times, values):
    blob = json.dumps([times, values], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def golden_of(name, series):
    return (SERIES[name][series]["digest"], SERIES[name][series]["points"])


def digest_of(series):
    return (series_digest(series.times, series.values), len(series))


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SERIES_RUNS)
def test_series_match_the_old_collector(name):
    path, cc = name.split("/")
    scenario = replace(LAB_PATH, buffer_bdp=BUFFER_BDP[path])
    # The tracer keeps cwnd and loss records, to locate the added points.
    sink = MemorySink()
    kinds = frozenset({obsrec.CC_CWND, obsrec.TCP_RECOVERY, obsrec.TCP_RTO})
    result = run_single_flow(scenario, cc, 2_000_000, seed=1, collect=True,
                             obs=tracing(sink, kinds))
    assert result.completed and result.drops == SERIES[name]["drops"]
    trace = result.telemetry.flow(1)
    assert digest_of(trace.rtt) == golden_of(name, "rtt")
    assert digest_of(trace.delivered) == golden_of(name, "delivered")

    cwnd_records = sink.by_kind(obsrec.CC_CWND)
    assert trace.cwnd.times == [r.time for r in cwnd_records]
    assert trace.cwnd.values == [r.fields["cwnd"] for r in cwnd_records]
    assert trace.inflight.values == [r.fields["flight"] for r in cwnd_records]
    # Drop the cc.cwnd record that directly follows a loss record (same
    # engine event): what is left must be the old series, point for point.
    old, losses = [], 0
    for before, record in zip([None] + sink.records, sink.records):
        if record.kind != obsrec.CC_CWND:
            continue
        after_loss = before is not None and before.eid == record.eid and (
            before.kind == obsrec.TCP_RTO
            or (before.kind == obsrec.TCP_RECOVERY and before.fields["enter"]))
        if after_loss:
            losses += 1
        else:
            old.append(record)
    times = [r.time for r in old]
    assert (series_digest(times, [r.fields["cwnd"] for r in old]),
            len(old)) == golden_of(name, "cwnd")
    assert (series_digest(times, [r.fields["flight"] for r in old]),
            len(old)) == golden_of(name, "inflight")
    assert (losses > 0) == (result.drops > 0)


# ----------------------------------------------------------------------
# figure reports
# ----------------------------------------------------------------------
def _fig16_report():
    result = fig16_stability_trace.run(large_size=20 * MB, n_small=4,
                                       bottleneck_mbps=20.0, horizon=20.0)
    # Fig. 16's shape: the small flows complete while the large flow
    # keeps making progress, and the large flow completes too.
    assert result.completed_small_flows >= len(result.small_fcts) * 0.7
    assert result.large_fct is not None
    return fig16_stability_trace.format_report(result)


FIGURES = {
    "fig01": lambda: fig01_motivation.format_report(
        fig01_motivation.run(size_bytes=25 * MB, ccas=("cubic",))),
    "fig09": lambda: fig09_cwnd_rtt.format_report(
        fig09_cwnd_rtt.run(size_bytes=12 * MB)),
    "fig10": lambda: fig10_delivered.format_report(
        fig10_delivered.run(size_bytes=12 * MB)),
    "fig13": lambda: fig13_large_flow.format_report(
        fig13_large_flow.run(size_bytes=30 * MB,
                             milestones_mb=(1, 5, 15, 30))),
    "fig16": _fig16_report,
    "fairness_cell": lambda: json.loads(json.dumps(run_fairness_cell(
        rtt=0.05, buffer_bdp=1.0, cc="cubic", bottleneck_mbps=20.0,
        join_time=8.0, horizon=16.0))),
}


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_reports_match_the_old_collector(figure):
    assert FIGURES[figure]() == REPORTS[figure]


# ----------------------------------------------------------------------
# a collector next to a trace sink
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(goldens.GOLDEN_RUNS))
def test_collector_leaves_the_trace_alone(name):
    """Provenance promotion is keyed on what the trace sink keeps, so a
    subscribed collector moves neither the digest nor any (eid, peid)."""
    run = goldens.GOLDEN_RUNS[name]
    scenario = INTERNET_SCENARIOS[run.scenario]
    plain = goldens.capture_records(name)

    digest, memory = DigestSink(), MemorySink()
    result = run_single_flow(scenario, run.cc, run.size_bytes, seed=run.seed,
                             collect=True,
                             obs=tracing(TeeSink([digest, memory])))
    assert digest.digest() == load_digests(GOLDEN_DIR)[name]["digest"]
    assert [(r.eid, r.parent_eid) for r in memory.records] == \
        [(r.eid, r.parent_eid) for r in plain]
    assert len(result.telemetry.flow(1).rtt) == \
        len(memory.by_kind(obsrec.TCP_RTT))

    # ... and with a filter under which the collector's emits are the
    # first of their engine event (an ACK's tcp.rtt precedes its
    # pkt.send): an emit only subscribers see must not promote.
    kinds = frozenset({obsrec.PKT_SEND, obsrec.SUSS_DECISION})
    filtered, collecting = MemorySink(), MemorySink()
    run_single_flow(scenario, run.cc, run.size_bytes, seed=run.seed,
                    obs=tracing(filtered, kinds))
    result = run_single_flow(scenario, run.cc, run.size_bytes, seed=run.seed,
                             collect=True, obs=tracing(collecting, kinds))
    assert collecting.records == filtered.records
    assert not result.telemetry.flow(1).cwnd.empty


def test_collect_under_an_environment_tracer(monkeypatch, tmp_path):
    path = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", f"jsonl:{path}")
    scenario = INTERNET_SCENARIOS["google-tokyo/wired"]
    result = run_single_flow(scenario, "cubic", 400_000, seed=1,
                             collect=True)
    assert tracer_module._ambient_streams[str(path)][0].closed
    trace = result.telemetry.flow(1)
    assert trace.delivered.max_value() == 400_000
    assert not trace.cwnd.empty and not trace.rtt.empty


def test_collect_needs_an_observability_on_a_prebuilt_sim():
    scenario = goldens.RECOVERY_PATHS["droptail"]
    sim = Simulator(obs=None)
    net = scenario.build(sim, RngRegistry(1))
    with pytest.raises(ValueError, match="Observability"):
        run_single_flow(scenario, "cubic", 100_000, seed=1, collect=True,
                        net=net, sim=sim)


# ----------------------------------------------------------------------
# per-flow drops: the queue's count is what the old collector reported
# ----------------------------------------------------------------------
def test_droptail_flow_drops_match_the_old_collector():
    sim = Simulator()
    net = LocalTestbedConfig(bottleneck_mbps=20.0, rtts=(0.05,) * 5,
                             buffer_bdp=0.3).build(sim)
    launch_flows(sim, net, [FlowSpec(1, 4_000_000, "cubic-nohystart"),
                            FlowSpec(2, 4_000_000, "cubic", start_time=0.5)])
    sim.run(until=60.0)
    queue = net.bottleneck_queue
    golden = SERIES["flow_drops"]["droptail-two-flow"]
    assert queue.flow_drops == {int(f): n for f, n in golden.items()}
    assert queue.drops == sum(queue.flow_drops.values())


def test_codel_head_drops_are_counted_per_flow():
    rate, rtt = 2_500_000, 0.05
    sim = Simulator()
    queue = CoDelQueue(4 * bdp_bytes(rate, rtt))
    net = build_dumbbell(sim, 2, rate, [rtt, rtt], 4 * bdp_bytes(rate, rtt),
                         queue=queue)
    for fid in (1, 2):
        open_transfer(sim, net.servers[fid - 1], net.clients[fid - 1],
                      flow_id=fid, size_bytes=2000 * MSS, cc="cubic",
                      start_time=0.3 * (fid - 1))
    sim.run(until=300.0)
    golden = SERIES["flow_drops"]["codel-two-flow"]
    assert queue.flow_drops == {int(f): n for f, n in golden.items()}
    assert queue.drops == sum(queue.flow_drops.values())
