"""Per-layer metrics: read off the traced round's spans, plus isolated probes.

``layer_metrics`` turns one traced round (a :class:`seams.SpanRecorder`
and the round's outcomes) into the per-layer numbers of
``BENCHMARK.json``.  Every metric is reported for every workload; a
layer the workload bypasses reads 0, and a metric whose seam target no
longer exists reads ``None`` (``run.py`` prints it as ``null``).

A *probe* calls one layer's public function directly, a few repetitions,
median.  Each probe is reported with the workload it explains
(:data:`PROBES`) and reads 0 elsewhere.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis import SimSanitizer
from repro.campaign import ResultStore
from repro.flowsim import create_model
from repro.net import DropTailQueue, Link, Packet, PacketKind
from repro.obs import Observability
from repro.sim import Simulator
from repro.workloads.topo import build_topology, registered_specs, spf_routes

from seams import BENCH_LAYER, CALL, EVENT, HOOK, OP, Seams
from workloads import CliWarm, Outcome, Workload, download

REPS = 3
CALLS, TOTAL, SELF = 0, 1, 2
US, MS, NS = 1e6, 1e3, 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cpu_time(fn: Callable[[], Any]) -> float:
    """CPU seconds of one call: what a busy neighbour steals is not in it."""
    start = time.process_time()
    fn()
    return time.process_time() - start


def _median_time(fn: Callable[[], Any], reps: int = REPS) -> float:
    return statistics.median(_cpu_time(fn) for _ in range(reps))


# ----------------------------------------------------------------------
# metrics from the traced round
# ----------------------------------------------------------------------
def suss_fct_gain_pct(outcomes: Sequence[Outcome]) -> float:
    """100 × (1 − median FCT with SUSS / without) over the paired flows."""
    fcts: Dict[str, List[float]] = {}
    for outcome in outcomes:
        for stat in outcome.stats:
            if stat.get("fct") is not None:
                fcts.setdefault(stat.get("model", outcome.scheme),
                                []).append(stat["fct"])
    for scheme, with_suss in fcts.items():
        base = fcts.get(scheme[:-len("+suss")]) \
            if scheme.endswith("+suss") else None
        if base:
            return 100.0 * (1.0 - statistics.median(with_suss)
                            / statistics.median(base))
    return 0.0


def layer_metrics(seams: Seams, outcomes: Sequence[Outcome]
                  ) -> Dict[str, Optional[float]]:
    rec = seams.recorder
    layer_self = rec.layer_self()
    root_s = rec.total(TOTAL, kind=OP)
    stats = [s for o in outcomes for s in o.stats]
    data_pkts = sum(s.get("data_packets_sent", 0) for s in stats
                    if "model" not in s)
    retx = sum(s.get("retransmissions", 0) for s in stats
               if "model" not in s)

    def seam(name: str, value: float) -> Optional[float]:
        """``value``, or None when the seam it is read from is missing."""
        return value if seams.installed.get(name) else None

    def on_acks(group: Optional[str] = None) -> float:
        """ACK packets the senders processed (duplicates included)."""
        return rec.total(CALLS, group, name="TcpSender.on_packet")

    def per_ack(group: str) -> float:
        own = (rec.total(SELF, group, layer="cc")
               + rec.total(SELF, group, layer="core"))
        return _ratio(own, on_acks(group)) * US

    events = rec.total(CALLS, kind=EVENT)
    loop_s = rec.total(SELF, name="Simulator.run")
    net_s = layer_self.get("net", 0.0)
    tcp_s = layer_self.get("tcp", 0.0)
    cc_s = layer_self.get("cc", 0.0)
    snd = ("TcpSender.on_packet", "TcpReceiver.on_packet")
    sink_calls = rec.total(CALLS, name="JsonlSink.emit")
    sink_s = rec.total(SELF, name="JsonlSink.emit")
    suss_groups = [g for g in rec.by_group if g.endswith("+suss")
                   and g[:-len("+suss")] in rec.by_group]

    # campaign: what run_campaign returned, and the store spans
    jobs = [o for o in outcomes if "cached" in o.info]
    exec_s = sum(o.info["runtime"] for o in jobs if not o.info["cached"])
    gets = rec.total(CALLS, name="ResultStore.get")
    puts = rec.total(CALLS, name="ResultStore.put")
    store_s = (rec.total(TOTAL, name="ResultStore.get")
               + rec.total(TOTAL, name="ResultStore.put"))
    campaign_s = rec.total(TOTAL, name="run_campaign")

    sweep_s = rec.total(TOTAL, name="run_sweep")
    estimate_s = sum(e[TOTAL] for k, e in rec.entries()
                     if k[1].endswith(".estimate") and k[2] == "flowsim")
    modelled = sum(s["n"] for s in stats if "model" in s)

    return {
        "sim.events": events,
        "sim.loop_self_s": seam("Simulator.run", loop_s),
        "sim.loop_ns_per_event": seam("Simulator.run",
                                      _ratio(loop_s, events) * NS),
        "net.event_self_s": rec.total(SELF, kind=EVENT, layer="net"),
        "net.host_tx_calls": seam("Host.transmit",
                                  rec.total(CALLS, name="Host.transmit")),
        "net.host_tx_self_s": seam("Host.transmit",
                                   rec.total(SELF, name="Host.transmit")),
        "net.host_rx_self_s": seam(
            "Host.receive", rec.total(SELF, kind=CALL, name="Host.receive")),
        "net.self_share": _ratio(net_s, root_s),
        "net.us_per_data_pkt": _ratio(net_s, data_pkts) * US,
        "net.drops": sum(s.get("drops", 0) for s in stats),
        "net.router_forwards": (
            rec.total(CALLS, kind=EVENT, name="Router.receive")
            + rec.total(CALLS, kind=EVENT, name="Router.forward")),
        "tcp.on_packet_calls": seam(snd[0], sum(
            rec.total(CALLS, name=n) for n in snd)),
        "tcp.self_s": tcp_s,
        "tcp.self_share": _ratio(tcp_s, root_s),
        "tcp.sender_us_per_ack": seam(snd[0], _ratio(
            rec.total(SELF, name=snd[0]), rec.total(CALLS, name=snd[0])) * US),
        "tcp.receiver_us_per_data": seam(snd[1], _ratio(
            rec.total(SELF, name=snd[1]), rec.total(CALLS, name=snd[1])) * US),
        "tcp.retransmissions": retx,
        "tcp.rto_count": sum(s.get("rto_count", 0) for s in stats),
        "tcp.retx_share": _ratio(retx, data_pkts),
        "cc.hook_calls": seam("CongestionControl.hooks",
                              rec.total(CALLS, kind=HOOK)),
        "cc.self_s": cc_s,
        "cc.us_per_ack": seam("CongestionControl.hooks",
                              _ratio(cc_s, on_acks()) * US),
        "core.self_s": layer_self.get("core", 0.0),
        "core.event_self_s": rec.total(SELF, kind=EVENT, layer="core"),
        "core.suss_delta_us_per_ack": seam(
            "CongestionControl.hooks",
            statistics.fmean(per_ack(g) - per_ack(g[:-len("+suss")])
                             for g in suss_groups) if suss_groups else 0.0),
        "core.suss_fct_gain_pct": suss_fct_gain_pct(outcomes),
        "obs.records": sink_calls,
        "obs.sink_self_s": sink_s,
        "obs.us_per_record": _ratio(sink_s, sink_calls) * US,
        "obs.bytes_written": sum(o.info.get("trace_bytes", 0)
                                 for o in outcomes),
        "workloads.self_s": layer_self.get("workloads", 0.0),
        "workloads.cross_flows": sum(o.info.get("cross_flows", 0)
                                     for o in outcomes),
        "campaign.jobs": len(jobs),
        "campaign.exec_s": exec_s,
        "campaign.overhead_us_per_job": _ratio(
            campaign_s - exec_s - store_s, len(jobs)) * US,
        "campaign.store_gets": gets,
        "campaign.store_get_us": _ratio(
            rec.total(TOTAL, name="ResultStore.get"), gets) * US,
        "campaign.store_puts": puts,
        "campaign.store_put_us": _ratio(
            rec.total(TOTAL, name="ResultStore.put"), puts) * US,
        "campaign.hit_ratio": _ratio(
            sum(1 for o in jobs if o.info["cached"]), len(jobs)),
        "flowsim.flows": modelled,
        "flowsim.us_per_flow": _ratio(sweep_s, modelled) * US,
        "flowsim.sweep_overhead_share": seam(
            "FlowModel.estimate", _ratio(sweep_s - estimate_s, sweep_s)),
        "trace.unattributed_share": _ratio(
            layer_self.get(BENCH_LAYER, 0.0), root_s),
    }


def cli_metrics(workload: CliWarm, outcomes: Sequence[Outcome]
                ) -> Dict[str, float]:
    """``cli-warm``'s layers, from outside its child interpreters.

    Each invocation's ``--stats-json`` carries the campaign's own
    ``elapsed`` (the hit path: 112 spec hashes, the fingerprint and 112
    store gets); a fresh-interpreter probe times ``import repro.cli``;
    what is left of the op — interpreter start, argument parsing, the
    report tables, exit — is ``cli.other_ms``.
    """
    total = sum(o.stats[0]["total"] or 0 for o in outcomes)
    cached = sum(o.stats[0]["cached"] or 0 for o in outcomes)
    op_ms = statistics.median(o.info["wall_s"] for o in outcomes) * MS
    hit_ms = statistics.median(o.info["elapsed_s"] or 0.0
                               for o in outcomes) * MS
    import_ms = fresh_interpreter_ms("import repro.cli")
    store = ResultStore(workload.cache)
    hashes = [spec.job_hash for spec in workload.specs]
    get_s = _median_time(lambda: [store.get(h) for h in hashes])
    return {
        "cli.invocations": len(outcomes),
        "cli.import_ms": import_ms,
        "cli.hit_path_ms": hit_ms,
        "cli.other_ms": op_ms - import_ms - hit_ms,
        "campaign.jobs": total,
        "campaign.hit_ratio": _ratio(cached, total),
        "campaign.overhead_us_per_job": _ratio(
            hit_ms / MS * len(outcomes), total) * US,
        "campaign.store_gets": cached,
        "campaign.store_get_us": get_s / len(hashes) * US,
    }


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def fresh_interpreter_ms(statement: str) -> float:
    """Median CPU time of ``statement`` in a fresh interpreter, in ms."""
    code = ("import time; t = time.process_time(); " + statement
            + "; print(time.process_time() - t)")
    times = []
    for _ in range(REPS):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             stdout=subprocess.PIPE).stdout
        times.append(float(out))
    return statistics.median(times) * MS


def probe_sim_chain(workload: Workload) -> Dict[str, float]:
    """Schedule-and-fire cost of the bare event loop."""
    ticks = 200_000

    def chain() -> None:
        sim = Simulator()
        left = [ticks]

        def tick() -> None:
            left[0] -= 1
            if left[0]:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        if sim.events_processed != ticks:
            raise RuntimeError(f"chain fired {sim.events_processed} events")

    return {"sim.chain_ns_per_event": _median_time(chain) / ticks * NS}


def probe_net_link(workload: Workload) -> Dict[str, float]:
    """A bare ``Link`` + ``DropTailQueue`` draining MSS packets into a sink."""
    packets = 100_000

    class Sink:
        received = 0

        def receive(self, packet: Packet) -> None:
            self.received += 1

    def drain() -> None:
        sim = Simulator()
        sink = Sink()
        link = Link(sim, sink, 12_500_000.0, 0.001,
                    queue=DropTailQueue(10**9))
        for seq in range(packets):
            link.send(Packet(flow_id=1, src="a", dst="b",
                             kind=PacketKind.DATA, seq=seq, payload=1448))
        sim.run()
        if sink.received != packets:
            raise RuntimeError(f"link delivered {sink.received} packets")

    return {"net.link_us_per_pkt": _median_time(drain) / packets * US}


def probe_instrumentation(workload: Workload) -> Dict[str, float]:
    """Host-time cost of an idle ``Observability`` and of the sanitizer."""
    size = 4_000_000

    def one(make_sim: Callable[[], Any]) -> Callable[[], None]:
        def run() -> None:
            outcome = download("cubic", size, sim=make_sim())
            if not outcome.info["completed"]:
                raise RuntimeError("probe download did not complete")
        return run

    variants = {
        "plain": one(Simulator),
        "obs": one(lambda: Simulator(obs=Observability())),
        "sanitizer": one(lambda: Simulator(sanitizer=SimSanitizer())),
    }
    # Interleaved, so that a drift of the host's speed hits all three alike.
    times: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(REPS):
        for name, run in variants.items():
            times[name].append(_cpu_time(run))
    median = {name: statistics.median(t) for name, t in times.items()}
    return {
        "obs.idle_overhead_ratio": median["obs"] / median["plain"],
        "analysis.sanitizer_overhead_ratio":
            median["sanitizer"] / median["plain"],
    }


def probe_campaign(workload: Workload) -> Dict[str, float]:
    specs = workload.specs
    hash_s = _median_time(lambda: [spec.job_hash for spec in specs])
    return {
        "campaign.spec_hash_us": hash_s / len(specs) * US,
        "campaign.fingerprint_ms": fresh_interpreter_ms(
            "from repro.campaign import code_fingerprint; code_fingerprint()"),
    }


def probe_flowsim(workload: Workload) -> Dict[str, float]:
    path = workload.config.path
    sizes = [1448 * n for n in (1, 10, 100, 1_000, 10_000)]
    models = [create_model(name) for name in workload.config.models]
    each = _median_time(lambda: [m.estimate(size, path)
                                 for m in models for size in sizes])
    return {"flowsim.estimate_us": each / (len(models) * len(sizes)) * US}


def probe_topogen(workload: Workload) -> Dict[str, float]:
    specs = list(registered_specs().values())
    build = _median_time(lambda: [build_topology(Simulator(), spec)
                                  for spec in specs])
    spf = _median_time(lambda: [spf_routes(spec) for spec in specs])
    return {"topogen.build_ms": build / len(specs) * MS,
            "topogen.spf_ms": spf / len(specs) * MS}


#: workload → the probes that explain it
PROBES: Dict[str, Sequence[Callable[..., Dict[str, float]]]] = {
    "bulk-clean": (probe_sim_chain, probe_net_link, probe_instrumentation),
    "cli-warm": (probe_campaign,),
    "flowsim-fleet": (probe_flowsim,),
    "topo-cross": (probe_topogen,),
}

PROBE_METRICS = (
    "sim.chain_ns_per_event", "net.link_us_per_pkt",
    "obs.idle_overhead_ratio", "analysis.sanitizer_overhead_ratio",
    "campaign.spec_hash_us", "campaign.fingerprint_ms",
    "flowsim.estimate_us", "topogen.build_ms", "topogen.spf_ms")

CLI_METRICS = ("cli.invocations", "cli.import_ms", "cli.hit_path_ms",
               "cli.other_ms")


def run_probes(workload: Workload) -> Dict[str, float]:
    out = dict.fromkeys(PROBE_METRICS + CLI_METRICS, 0.0)
    for probe in PROBES.get(workload.name, ()):
        out.update(probe(workload))
    return out
