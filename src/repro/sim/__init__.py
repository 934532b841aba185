"""Discrete-event simulation core: event loop, timers, seeded RNG streams."""

from repro.sim.engine import (
    EventRef,
    SimulationError,
    Simulator,
    event_cancelled,
    event_eid,
    event_fired,
    event_origin_eid,
    event_parent_eid,
    event_time,
)
from repro.sim.process import Process, spawn
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "EventRef",
    "SimulationError",
    "Simulator",
    "event_cancelled",
    "event_eid",
    "event_fired",
    "event_origin_eid",
    "event_parent_eid",
    "event_time",
    "Process",
    "spawn",
    "RngRegistry",
    "derive_seed",
]
