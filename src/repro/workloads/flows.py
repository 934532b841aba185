"""Flow specifications and launch helpers.

A :class:`FlowSpec` describes one download (size, congestion control,
start time); :func:`launch_flows` instantiates specs onto a built dumbbell,
one spec per server/client pair.  Helpers build the paper's recurring
multi-flow patterns: staggered joiners (Figs. 2 and 15) and the
large-flow-vs-small-flows stability workload (Fig. 16, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.units import MB, Bytes, Seconds
from repro.net.topology import Dumbbell
from repro.sim.engine import Simulator
from repro.tcp.connection import Transfer, open_transfer


@dataclass(frozen=True)
class FlowSpec:
    """One download to run in a scenario."""

    flow_id: int
    size_bytes: Bytes
    cc: str
    start_time: Seconds = 0.0
    pair_index: Optional[int] = None  # which server/client pair; default flow order


def launch_flows(sim: Simulator, net: Dumbbell,
                 specs: Sequence[FlowSpec]) -> Dict[int, Transfer]:
    """Create and schedule every spec'd transfer on the dumbbell."""
    transfers: Dict[int, Transfer] = {}
    for order, spec in enumerate(specs):
        pair = spec.pair_index if spec.pair_index is not None else order
        if not 0 <= pair < len(net.servers):
            raise ValueError(f"spec {spec.flow_id} wants pair {pair}, "
                             f"but the network has {len(net.servers)} pairs")
        transfers[spec.flow_id] = open_transfer(
            sim, net.servers[pair], net.clients[pair], spec.flow_id,
            spec.size_bytes, spec.cc, start_time=spec.start_time)
    return transfers


def staggered_joiners(n_flows: int, size_bytes: Bytes, cc: str,
                      interval: Seconds = 2.0, first_start: Seconds = 0.0
                      ) -> List[FlowSpec]:
    """Flows starting ``interval`` seconds apart (Fig. 2 / Fig. 15 pattern)."""
    return [FlowSpec(flow_id=i + 1, size_bytes=size_bytes, cc=cc,
                     start_time=first_start + i * interval)
            for i in range(n_flows)]


def stability_workload(large_size: Bytes, large_cc: str, small_size: Bytes,
                       small_cc: str, n_small: int = 12,
                       small_interval: Seconds = 2.0,
                       small_first_start: Seconds = 2.0) -> List[FlowSpec]:
    """Fig. 16 / Table 1: one large flow plus sequential small flows.

    The large flow is flow 1 on pair 0; small flows are numbered from 2 and
    cycle over the remaining pairs (the local testbed has five pairs, so
    twelve small flows reuse pairs 1-4 in turn, each pair keeping its own
    RTT as in the paper's figure).
    """
    specs = [FlowSpec(flow_id=1, size_bytes=large_size, cc=large_cc,
                      start_time=0.0, pair_index=0)]
    for i in range(n_small):
        specs.append(FlowSpec(
            flow_id=i + 2, size_bytes=small_size, cc=small_cc,
            start_time=small_first_start + i * small_interval,
            pair_index=1 + (i % 4)))
    return specs
