"""The tracer and the per-run :class:`Observability` bundle.

``Observability`` is what a :class:`repro.sim.engine.Simulator` carries
as ``sim.obs``, and :meth:`Observability.emit` is the one probe the
stack reports a happening through.  A kind has a consumer when the
tracer keeps it (records → sink) or something subscribed to it (the
figure collector of :mod:`repro.metrics.collector` does); components
resolve that once per kind where they cache ``sim.obs``
(:meth:`Observability.gate`), so a site nobody listens to is one
pointer test and evaluates no arguments (DESIGN.md §7).  The bundle
optionally carries a profiler.

Tracing is the caller's choice: ``Simulator(obs=tracing(sink, kinds))``
in code, ``repro trace --out PATH --kinds ...`` for one download.  The
sinks are in :mod:`repro.obs.sinks`; the caller owns and closes them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set

from repro.obs import profile as _profile
from repro.obs.records import TraceRecord
from repro.obs.sinks import TraceSink

#: ``callback(time, flow, fields)``, see :meth:`Observability.subscribe`
Subscriber = Callable[[float, int, Dict[str, Any]], None]


class Tracer:
    """Routes records of enabled kinds into a sink."""

    __slots__ = ("sink", "kinds")

    def __init__(self, sink: TraceSink,
                 kinds: Optional[FrozenSet[str]] = None) -> None:
        self.sink = sink
        #: None means "all kinds"
        self.kinds = kinds

    def wants(self, kind: str) -> bool:
        return self.kinds is None or kind in self.kinds

    def close(self) -> None:
        self.sink.close()


class Observability:
    """Per-run bundle: tracer + subscribers + profiler.

    ``provenance`` is the causal-context source — duck-typed as anything
    with ``current_eid`` / ``_sched_origin`` integer attributes.
    :class:`repro.sim.engine.Simulator` binds itself here on
    construction, so every record emitted during an engine event carries
    ``(eid, parent_eid)`` where ``parent_eid`` is the nearest
    *record-emitting* causal ancestor; after the first *traced* emit the
    current event is promoted (``_sched_origin`` becomes its own eid) to
    be the origin of everything it schedules, which keeps chains
    walkable across silent plumbing events.  The pre-promotion origin is
    cached here (``_origin_peid``) so later records of the same event
    still stamp the ancestor, not the event itself — all records of one
    event agree on their parent.  Only a traced emit promotes, so
    attaching a subscriber cannot move a trace.  With no provenance bound
    (e.g. campaign-side emission outside any simulation) records carry
    the root context ``(0, 0)``.
    """

    __slots__ = ("tracer", "profiler", "provenance",
                 "_origin_peid", "_subscribers", "_gated_off")

    def __init__(self, tracer: Optional[Tracer] = None,
                 profiler: Optional[_profile.EventProfiler] = None,
                 provenance: Optional[Any] = None) -> None:
        self.tracer = tracer
        self.profiler = profiler
        self.provenance = provenance
        self._origin_peid = 0
        self._subscribers: Dict[str, List[Subscriber]] = {}
        #: kinds a component already resolved to "nobody listens"
        self._gated_off: Set[str] = set()

    def subscribe(self, kind: str, callback: Subscriber) -> None:
        """Call ``callback(time, flow, fields)`` on every emit of ``kind``.

        Subscribe before building the components that emit ``kind``:
        they resolve :meth:`gate` once, at construction.
        """
        if kind in self._gated_off:
            raise RuntimeError(
                f"subscribing to {kind!r} after a component that emits it "
                f"was built with nobody listening; subscribe first")
        self._subscribers.setdefault(kind, []).append(callback)

    def wants(self, kind: str) -> bool:
        """True when the tracer keeps ``kind`` or something subscribed."""
        return kind in self._subscribers or (
            self.tracer is not None and self.tracer.wants(kind))

    def gate(self, kind: str) -> Optional["Observability"]:
        """This bundle if ``kind`` has a consumer, else None — what a
        component stores per emitting site."""
        if self.wants(kind):
            return self
        self._gated_off.add(kind)
        return None

    def emit(self, time: float, kind: str, flow: int = -1,
             **fields: Any) -> None:
        """Report one happening: a :class:`TraceRecord` to the tracer if
        it keeps this kind, ``(time, flow, fields)`` to the kind's
        subscribers; a cheap no-op with neither."""
        tracer = self.tracer
        if tracer is not None and (tracer.kinds is None
                                   or kind in tracer.kinds):
            prov = self.provenance
            eid = 0 if prov is None else prov.current_eid
            peid = 0
            if eid != 0:
                origin = prov._sched_origin
                if origin != eid:
                    # First record of this event: remember its true
                    # origin for the rest of the event, then promote —
                    # events it schedules from here on cite it as their
                    # origin.  (origin == eid can only mean "already
                    # promoted": an event's inherited origin always
                    # predates its own eid.)
                    self._origin_peid = origin
                    prov._sched_origin = eid
                peid = self._origin_peid
            tracer.sink.emit(TraceRecord(time, kind, flow, fields, eid, peid))
        subscribers = self._subscribers.get(kind)
        if subscribers is not None:
            for callback in subscribers:
                callback(time, flow, fields)

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def tracing(sink: TraceSink, kinds: Optional[FrozenSet[str]] = None,
            profiler: Optional[_profile.EventProfiler] = None
            ) -> Observability:
    """Shorthand: an Observability tracing into ``sink``."""
    return Observability(tracer=Tracer(sink, kinds), profiler=profiler)
