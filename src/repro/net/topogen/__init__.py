"""Declarative topology/scenario generation beyond the dumbbell.

``repro.net.topogen`` turns a pure-data :class:`~repro.net.topogen.spec.TopologySpec`
— nodes, directed links with rate/delay/jitter/loss/queue discipline,
foreground flow endpoints, and cross-traffic placement — into a built
network of :class:`~repro.net.node.Host`/:class:`~repro.net.node.Router`
objects with forwarding tables computed by deterministic link-state SPF
(:mod:`~repro.net.topogen.routing`).  Specs are content-hashable and
JSON-round-trippable, so they embed by value into campaign
:class:`~repro.campaign.spec.JobSpec` params and cache like any other
job input.

Builders (:mod:`~repro.net.topogen.builders`) cover the scenario
classes the SUSS evaluation bed needs: parking-lot chains,
multi-bottleneck paths, routed multi-path meshes, and LFN/satellite
profiles where slow-start dominates.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "BuiltTopology": "build",
    "CrossTrafficPlan": "spec",
    "FlowPath": "spec",
    "LinkSpec": "spec",
    "NodeSpec": "spec",
    "SCENARIO_CLASSES": "builders",
    "TOPO_SCENARIOS": "builders",
    "TopologySpec": "spec",
    "build_topology": "build",
    "get_topo_scenario": "builders",
    "lfn_satellite": "builders",
    "mesh_diamond": "builders",
    "multi_bottleneck": "builders",
    "parking_lot": "builders",
    "registered_specs": "builders",
    "routing_table_json": "routing",
    "spf_routes": "routing",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
