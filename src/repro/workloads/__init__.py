"""Workloads: flow specs, launch helpers, and the paper's scenario catalogue."""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "MB": "flows",
    "FlowSpec": "flows",
    "launch_flows": "flows",
    "stability_workload": "flows",
    "staggered_joiners": "flows",
    "FIG9_SCENARIO": "scenarios",
    "FIG11_SCENARIOS": "scenarios",
    "FIG13_SCENARIO": "scenarios",
    "FIG14_SCENARIO": "scenarios",
    "INTERNET_SCENARIOS": "scenarios",
    "LINK_NAMES": "scenarios",
    "LINK_TYPES": "scenarios",
    "MBPS": "scenarios",
    "SERVER_NAMES": "scenarios",
    "SERVERS": "scenarios",
    "LocalTestbedConfig": "scenarios",
    "PathScenario": "scenarios",
    "get_scenario": "scenarios",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
