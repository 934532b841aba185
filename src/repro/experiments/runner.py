"""Experiment execution: single-flow and multi-flow scenario runs.

Mirrors the paper's methodology (Section 6.1): each measurement downloads
a file over a scenario path, repeated for N iterations with different
random seeds (seeds drive jitter and bandwidth-variation streams), and the
kernel-log-style telemetry is collected for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.scheduler import collect_values, run_campaign
from repro.campaign.spec import single_flow_job
from repro.campaign.store import ResultStore
from repro.metrics.collector import FlowCollector
from repro.metrics.summary import Summary, summarize
from repro.net.topology import Dumbbell
from repro.obs.profile import global_profiler
from repro.obs.runtime import RunTelemetry
from repro.obs.tracer import Observability
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connection import Transfer, open_transfer
from repro.workloads.flows import FlowSpec, launch_flows
from repro.workloads.scenarios import LocalTestbedConfig, PathScenario
from repro.workloads.topo import build_topology, place_cross_traffic, resolve_topo


@dataclass
class FlowResult:
    """Outcome of one single-flow run."""

    scenario: str
    cc: str
    size_bytes: int
    seed: int
    fct: Optional[float]
    completed: bool
    retransmissions: int
    rto_count: int
    data_packets_sent: int
    drops: int
    telemetry: Optional[FlowCollector] = None
    transfer: Optional[Transfer] = None

    @property
    def loss_rate(self) -> float:
        if self.data_packets_sent == 0:
            return 0.0
        return self.drops / self.data_packets_sent


def _new_sim(obs: Optional[Observability], collect: bool = False) -> Simulator:
    """A simulator carrying ``obs``, else — for a collecting run — a
    bundle for the collector (with the installed profiler, if any), else
    the default.  Chosen first, built once: what a simulator is
    instrumented with is fixed at construction."""
    if obs is None and collect:
        obs = Observability(profiler=global_profiler())
    return Simulator() if obs is None else Simulator(obs=obs)


def end_run(sim: Simulator) -> None:
    """The epilogue every harness run shares: a sanitized run must end
    with every packet it sent delivered, dropped or still in flight."""
    if sim.sanitizer is not None:
        sim.sanitizer.verify_conservation(sim.pending_events)


def _deadline(scenario: PathScenario, size_bytes: int) -> float:
    """Generous wall-clock bound for a download on this path."""
    ideal = size_bytes / scenario.btl_bw
    return 60.0 + 40.0 * ideal + 200.0 * scenario.rtt


def run_single_flow(scenario: PathScenario, cc: str, size_bytes: int,
                    seed: int = 0, collect: bool = False,
                    keep_transfer: bool = False,
                    delayed_ack: bool = False,
                    ecn: bool = False,
                    net: Optional[Dumbbell] = None,
                    sim: Optional[Simulator] = None,
                    obs: Optional[Observability] = None) -> FlowResult:
    """Download ``size_bytes`` over ``scenario`` with algorithm ``cc``.

    A pre-built ``net``/``sim`` pair may be supplied to run over a
    customised topology (e.g. a CoDel bottleneck) while keeping the
    scenario's bookkeeping.  ``obs`` wires an explicit observability
    bundle into the simulator (the caller owns its sinks and closes
    them); when omitted, the simulator traces nothing and carries only
    an installed global profiler, if any.  ``collect`` subscribes a
    :class:`FlowCollector` to the simulator's bundle and returns it as
    ``telemetry``; a pre-built ``sim`` must then carry one.
    """
    if (net is None) != (sim is None):
        raise ValueError("supply both net and sim, or neither")
    if sim is None:
        sim = _new_sim(obs, collect)
        rng = RngRegistry(seed)
        net = scenario.build(sim, rng)
    elif collect and sim.obs is None:
        raise ValueError("collect=True needs a sim built with an "
                         "Observability (sim.obs is None)")
    telemetry = FlowCollector(sim.obs) if collect else None
    transfer = open_transfer(sim, net.servers[0], net.clients[0], flow_id=1,
                             size_bytes=size_bytes, cc=cc,
                             delayed_ack=delayed_ack, ecn=ecn)
    sim.run(until=_deadline(scenario, size_bytes))
    end_run(sim)
    sender = transfer.sender
    return FlowResult(
        scenario=scenario.name, cc=cc, size_bytes=size_bytes, seed=seed,
        fct=transfer.fct, completed=transfer.completed,
        retransmissions=sender.retransmissions, rto_count=sender.rto_count,
        data_packets_sent=sender.data_packets_sent,
        drops=net.bottleneck_queue.flow_drops.get(1, 0),
        telemetry=telemetry,
        transfer=transfer if keep_transfer else None)


def run_topo_flow(scenario, cc: str, size_bytes: int, seed: int = 0,
                  cross_load: float = 1.0, cross_cc: str = "cubic",
                  obs: Optional[Observability] = None) -> Dict[str, Any]:
    """One seeded foreground download over a topogen scenario.

    ``scenario`` is a registered name, a :class:`TopologySpec`, or its
    canonical dict (how campaign jobs ship it).  The spec's declared
    cross-traffic plans are placed with their loads scaled by
    ``cross_load`` (0 disables them), then the foreground flow runs on
    the spec's first flow path.  Returns a JSON-serialisable dict so the
    run doubles as the ``topo_flow`` campaign job.
    """
    spec = resolve_topo(scenario)
    sim = _new_sim(obs)
    rng = RngRegistry(seed)
    built = build_topology(sim, spec, rng)
    flow = spec.flows[0]
    bottleneck = built.bottleneck_link(flow.server, flow.client)
    rtt = built.path_rtt(flow.server, flow.client)
    generators = place_cross_traffic(built, rng, load_scale=cross_load,
                                     cc=cross_cc)
    transfer = open_transfer(sim, built.hosts[flow.server],
                             built.hosts[flow.client], flow_id=1,
                             size_bytes=size_bytes, cc=cc)
    # Cross traffic steals a load-dependent share of the bottleneck, so
    # the deadline scales the ideal transfer time by the worst-case
    # residual share on top of run_single_flow's generous envelope.
    total_load = min(sum(p.load for p in spec.cross_traffic) * cross_load,
                     0.9)
    ideal = size_bytes / bottleneck.bandwidth.mean_rate()
    deadline = 60.0 + 40.0 * ideal / (1.0 - total_load) + 200.0 * rtt
    # The cross-traffic generators never drain on their own, so advance
    # the clock in slices and stop as soon as the foreground flow is
    # done (slicing run() does not change event order, only how far the
    # clock is pushed past completion).
    step = max(8.0 * rtt, 0.25)
    while not transfer.completed and sim.now < deadline:
        sim.run(until=min(sim.now + step, deadline))
    for generator in generators:
        generator.stop()
    end_run(sim)
    sender = transfer.sender
    drops = bottleneck.queue.flow_drops.get(1, 0)
    return {
        "scenario": spec.name,
        "scenario_class": spec.scenario_class,
        "topo_hash": spec.content_hash,
        "cc": cc,
        "size_bytes": int(size_bytes),
        "seed": int(seed),
        "cross_load": float(cross_load),
        "rtt": rtt,
        "fct": transfer.fct,
        "completed": transfer.completed,
        "retransmissions": sender.retransmissions,
        "rto_count": sender.rto_count,
        "data_packets_sent": sender.data_packets_sent,
        "drops": drops,
        "loss_rate": (drops / sender.data_packets_sent
                      if sender.data_packets_sent else 0.0),
        "cross_flows": sum(len(g.flows) for g in generators),
        "cross_flows_completed": sum(g.completed_flows for g in generators),
    }


def run_flow_campaign(scenario: PathScenario, cc: str, size_bytes: int,
                      iterations: int, base_seed: int = 0, *,
                      jobs: int = 1, store: Optional[ResultStore] = None,
                      telemetry: Optional[RunTelemetry] = None,
                      timeout: Optional[float] = None,
                      retries: int = 2) -> List[Dict[str, Any]]:
    """The seeded-iteration loop as a campaign: one job per seed.

    Returns the per-seed result dicts in seed order; raises if a flow did
    not complete within its deadline (seeds identify the culprit).
    """
    specs = [single_flow_job(scenario, cc, size_bytes, seed=base_seed + i)
             for i in range(iterations)]
    results = run_campaign(specs, jobs=jobs, store=store, timeout=timeout,
                           retries=retries, telemetry=telemetry)
    values = collect_values(results)
    for value in values:
        if not value["completed"]:
            raise RuntimeError(
                f"flow did not complete: {scenario.name} cc={cc} "
                f"size={size_bytes} seed={value['seed']}")
    return values


def fct_summary(scenario: PathScenario, cc: str, size_bytes: int,
                iterations: int, base_seed: int = 0, *,
                jobs: int = 1, store: Optional[ResultStore] = None,
                telemetry: Optional[RunTelemetry] = None) -> Summary:
    """Mean/std FCT over ``iterations`` seeded runs (paper: 50 iterations)."""
    values = run_flow_campaign(scenario, cc, size_bytes, iterations,
                               base_seed, jobs=jobs, store=store,
                               telemetry=telemetry)
    return summarize([value["fct"] for value in values])


def loss_rate_summary(scenario: PathScenario, cc: str, size_bytes: int,
                      iterations: int, base_seed: int = 0, *,
                      jobs: int = 1, store: Optional[ResultStore] = None,
                      telemetry: Optional[RunTelemetry] = None) -> Summary:
    """Mean/std packet-loss rate over seeded runs.

    Like :func:`fct_summary`, incomplete flows raise instead of silently
    contributing a partial-transfer loss rate to the average.
    """
    values = run_flow_campaign(scenario, cc, size_bytes, iterations,
                               base_seed, jobs=jobs, store=store,
                               telemetry=telemetry)
    return summarize([value["loss_rate"] for value in values])


def sweep_summaries(scenario: PathScenario, ccs: Sequence[str],
                    sizes: Sequence[int], iterations: int,
                    base_seed: int = 0, *, jobs: int = 1,
                    store: Optional[ResultStore] = None,
                    telemetry: Optional[RunTelemetry] = None
                    ) -> Dict[Tuple[str, int], Summary]:
    """FCT summaries for every (cc, size) pair, fanned out as one campaign.

    Flattening the whole sweep into a single campaign keeps every worker
    busy across cell boundaries instead of synchronising per cell.
    """
    combos = [(cc, size) for size in sizes for cc in ccs]
    specs = [single_flow_job(scenario, cc, size, seed=base_seed + i)
             for cc, size in combos for i in range(iterations)]
    results = run_campaign(specs, jobs=jobs, store=store,
                           telemetry=telemetry)
    values = collect_values(results)
    summaries: Dict[Tuple[str, int], Summary] = {}
    for slot, (cc, size) in enumerate(combos):
        chunk = values[slot * iterations:(slot + 1) * iterations]
        for value in chunk:
            if not value["completed"]:
                raise RuntimeError(
                    f"flow did not complete: {scenario.name} cc={cc} "
                    f"size={size} seed={value['seed']}")
        summaries[(cc, size)] = summarize([v["fct"] for v in chunk])
    return summaries


@dataclass
class LocalRun:
    """Outcome of one multi-flow local-testbed run."""

    sim: Simulator
    net: Dumbbell
    transfers: Dict[int, Transfer]
    #: the series collector; None when the run was not collecting
    telemetry: Optional[FlowCollector]

    def fct_of(self, flow_id: int) -> Optional[float]:
        return self.transfers[flow_id].fct


def run_local_testbed(config: LocalTestbedConfig, specs: Sequence[FlowSpec],
                      until: float, seed: int = 0,
                      collect: bool = True) -> LocalRun:
    """Run a multi-flow workload on the paper's dumbbell testbed."""
    sim = _new_sim(None, collect)
    rng = RngRegistry(seed)
    net = config.build(sim, rng)
    telemetry = FlowCollector(sim.obs) if collect else None
    transfers = launch_flows(sim, net, specs)
    sim.run(until=until)
    end_run(sim)
    return LocalRun(sim=sim, net=net, transfers=transfers,
                    telemetry=telemetry)


def run_fairness_cell(rtt: float, buffer_bdp: float, cc: str,
                      bottleneck_mbps: float = 50.0, join_time: float = 16.0,
                      horizon: float = 40.0, seed: int = 0,
                      recovery_threshold: float = 0.95,
                      window: float = 2.0) -> Dict[str, Any]:
    """One Fig. 15 fairness cell: four staggered flows plus a late joiner.

    Returns a JSON-serialisable dict so the run can double as a campaign
    job (``fairness_cell`` kind): the Jain-index timeline, the minimum
    index after the fifth flow joins, and the recovery time back above
    ``recovery_threshold`` (``None`` when fairness never recovers within
    the horizon).  :mod:`repro.experiments.fig15_fairness` wraps the same
    dict into its report cells.
    """
    from repro.metrics.fairness import fairness_over_time

    config = LocalTestbedConfig(bottleneck_mbps=bottleneck_mbps,
                                rtts=(rtt,) * 5, buffer_bdp=buffer_bdp)
    bulk = int(horizon * config.btl_bw)
    specs = [FlowSpec(flow_id=i + 1, size_bytes=bulk, cc=cc,
                      start_time=2.0 * i) for i in range(4)]
    specs.append(FlowSpec(flow_id=5, size_bytes=bulk, cc=cc,
                          start_time=join_time))
    result = run_local_testbed(config, specs, until=horizon, seed=seed)
    delivered = {fid: result.telemetry.flow(fid).delivered
                 for fid in range(1, 6)}
    points = fairness_over_time(delivered, t_start=join_time - window,
                                t_end=horizon, window=window, step=0.25)
    recovery: Optional[float] = None
    dipped = False
    post_join = []
    for t, f in points:
        if t < join_time:
            continue
        post_join.append(f)
        if f < recovery_threshold:
            dipped = True
        elif dipped and recovery is None:
            recovery = t - join_time
    return {
        "rtt": rtt,
        "buffer_bdp": buffer_bdp,
        "cc": cc,
        "seed": seed,
        "join_time": join_time,
        "horizon": horizon,
        "fairness": [[t, f] for t, f in points],
        "min_fairness_after_join": min(post_join) if post_join else 1.0,
        "recovery_time": recovery,
    }
