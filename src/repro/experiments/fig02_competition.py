"""Fig. 2 — a new flow competing against four established flows.

Local dumbbell testbed: four flows share the 50 Mbps bottleneck; a fifth
flow joins later.  With CUBIC the newcomer struggles to reach its fair
share (early losses end slow start prematurely); BBR's loss tolerance lets
it converge.  The measurement is the newcomer's goodput trajectory and its
time to reach a fraction of the fair share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import render_table
from repro.experiments.runner import run_local_testbed
from repro.metrics.timeseries import TimeSeries
from repro.core.units import MB, MBPS, BytesPerSec, Seconds
from repro.workloads.flows import FlowSpec
from repro.workloads.scenarios import LocalTestbedConfig

#: goodput-averaging window for trajectory points (seconds)
GOODPUT_WINDOW = 1.0


@dataclass
class Fig2Result:
    cc: str
    fair_share: BytesPerSec                 # per flow (bottleneck / 5)
    newcomer_goodput: List[Tuple[Seconds, BytesPerSec]]   # (t since join, rate)
    time_to_fair_share: Optional[Seconds]   # after join, or None


def run_one(cc: str, join_time: Seconds = 20.0, horizon: Seconds = 50.0,
            bottleneck_mbps: float = 50.0, rtt: Seconds = 0.050,
            buffer_bdp: float = 2.0, seed: int = 0,
            share_fraction: float = 0.8) -> Fig2Result:
    """Run the five-flow competition for one CCA (all flows use ``cc``)."""
    config = LocalTestbedConfig(bottleneck_mbps=bottleneck_mbps,
                                rtts=(rtt,) * 5, buffer_bdp=buffer_bdp)
    bulk = int(horizon * config.btl_bw)  # enough data to never finish
    specs = [FlowSpec(flow_id=i + 1, size_bytes=bulk, cc=cc,
                      start_time=2.0 * i) for i in range(4)]
    specs.append(FlowSpec(flow_id=5, size_bytes=bulk, cc=cc,
                          start_time=join_time))
    run_result = run_local_testbed(config, specs, until=horizon, seed=seed)

    delivered = run_result.telemetry.flow(5).delivered
    fair_share = config.btl_bw / 5.0
    trajectory: List[Tuple[float, float]] = []
    time_to_share: Optional[float] = None
    t = join_time + GOODPUT_WINDOW
    while t <= horizon:
        goodput = delivered.rate(t - GOODPUT_WINDOW, t)
        trajectory.append((t - join_time, goodput))
        if time_to_share is None and goodput >= share_fraction * fair_share:
            time_to_share = t - join_time
        t += 0.5
    return Fig2Result(cc=cc, fair_share=fair_share,
                      newcomer_goodput=trajectory,
                      time_to_fair_share=time_to_share)


def run(ccas: Tuple[str, ...] = ("cubic", "bbr"),
        **kwargs) -> Dict[str, Fig2Result]:
    return {cc: run_one(cc, **kwargs) for cc in ccas}


def format_report(results: Dict[str, Fig2Result]) -> str:
    rows = []
    for cc, r in results.items():
        reached = ("never (within horizon)" if r.time_to_fair_share is None
                   else f"{r.time_to_fair_share:.1f} s")
        final = r.newcomer_goodput[-1][1] if r.newcomer_goodput else 0.0
        rows.append([cc, r.fair_share / MBPS, final / MBPS, reached])
    return render_table(
        ["cca", "fair share (Mbps)", "newcomer final (Mbps)",
         "time to 80% share"], rows,
        title="Fig. 2 — new flow joining four established flows")
