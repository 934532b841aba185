"""Discrete-event simulation core: event loop, timers, seeded RNG streams."""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "EventRef": "engine",
    "SimulationError": "engine",
    "Simulator": "engine",
    "event_cancelled": "engine",
    "event_eid": "engine",
    "event_fired": "engine",
    "event_origin_eid": "engine",
    "event_parent_eid": "engine",
    "event_time": "engine",
    "RngRegistry": "rng",
    "derive_seed": "rng",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
