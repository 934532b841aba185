"""Network substrate: packets, queues, links, nodes, topologies, impairments."""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "Link": "link",
    "BandwidthProfile": "netem",
    "ConstantBandwidth": "netem",
    "SteppedBandwidth": "netem",
    "RandomWalkBandwidth": "netem",
    "JitterModel": "netem",
    "LossModel": "netem",
    "Host": "node",
    "Router": "node",
    "Packet": "packet",
    "PacketKind": "packet",
    "DEFAULT_MSS": "packet",
    "HEADER_BYTES": "packet",
    "DropTailQueue": "queue",
    "CoDelQueue": "queue",
    "Dumbbell": "topology",
    "bdp_bytes": "topology",
    "build_dumbbell": "topology",
    "build_path": "topology",
    "BOTTLENECK_PROP_DELAY": "topology",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
