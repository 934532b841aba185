"""Topogen scenarios as workloads — the seam the campaign layer uses.

The layering DAG lets ``campaign`` import ``workloads`` but not ``net``,
so this module re-exports the :mod:`repro.net.topogen` surface the job
builders need (spec resolution, the registered catalogue) and adds the
workload-side glue: launching a spec's foreground flows on a built
topology, mirroring :func:`repro.workloads.flows.launch_flows` for
dumbbells.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Union

from repro.net.topogen import (  # noqa: F401  (re-exported seam)
    TOPO_SCENARIOS,
    BuiltTopology,
    TopologySpec,
    build_topology,
    get_topo_scenario,
    registered_specs,
    routing_table_json,
    spf_routes,
)
from repro.sim.engine import Simulator
from repro.tcp.connection import Transfer, open_transfer
from repro.workloads.flows import FlowSpec
from repro.workloads.mixes import MIXES, MixTraffic, place_cross_traffic  # noqa: F401


def resolve_topo(scenario: Union[str, TopologySpec, Mapping]) -> TopologySpec:
    """A registered name, a spec object, or a canonical dict -> spec."""
    if isinstance(scenario, TopologySpec):
        return scenario
    if isinstance(scenario, str):
        return get_topo_scenario(scenario)
    return TopologySpec.from_dict(scenario)


def launch_topo_flows(sim: Simulator, built: BuiltTopology,
                      specs: Sequence[FlowSpec]) -> Dict[int, Transfer]:
    """Schedule every spec'd transfer on the topology's flow paths.

    ``pair_index`` selects which of the spec's declared
    :class:`~repro.net.topogen.spec.FlowPath` pairs carries the flow
    (defaulting to spec order, like the dumbbell launcher).
    """
    paths = built.spec.flows
    transfers: Dict[int, Transfer] = {}
    for order, spec in enumerate(specs):
        pair = spec.pair_index if spec.pair_index is not None else order
        if not 0 <= pair < len(paths):
            raise ValueError(
                f"spec {spec.flow_id} wants flow path {pair}, but "
                f"{built.spec.name} declares {len(paths)} flow paths")
        path = paths[pair]
        transfers[spec.flow_id] = open_transfer(
            sim, built.hosts[path.server], built.hosts[path.client],
            spec.flow_id, spec.size_bytes, spec.cc,
            start_time=spec.start_time)
    return transfers
