"""Reference event engine: the differential oracle for ``repro.sim.engine``.

This is the readable heap loop the shipped array/closure engine replaced:
one ``(when, eid, handle)`` tuple per event on a binary heap, explicit
pending/processed counters, plain attributes for the clock and the
provenance pair.  It is deliberately slow and obvious.  The shipped
:class:`repro.sim.Simulator` must agree with it event for event — clock,
eids, provenance, FIFO ties, counters, error messages, sanitizer and
profiler hook order — which ``tests/test_engine_equivalence.py`` and the
two-param ``backend`` fixture of ``tests/test_sim_engine.py`` hold it to.

It reads no environment variable and takes no backend argument: hooks
are what the caller passes (``None`` by default).  Handles are the same
seven-field list records the shipped engine returns, so the
``repro.sim.event_*`` readers work on them unchanged.
"""

import heapq
import itertools
import math

from repro.sim import SimulationError, Simulator


class ReferenceSimulator:
    """Object-per-event heap loop with the public API of ``Simulator``."""

    def __init__(self, sanitizer=None, obs=None):
        self._now = 0.0
        self._heap = []
        # eid 0 is the root context, so event ids start at 1; the counter
        # doubles as the same-instant FIFO tie-break.
        self._counter = itertools.count(1)
        self._running = False
        self._processed = 0
        self._pending = 0
        self.current_eid = 0
        self._sched_origin = 0
        self.sanitizer = sanitizer
        self.obs = obs
        if obs is not None:
            obs.provenance = self

    @property
    def now(self):
        return self._now

    @property
    def events_processed(self):
        return self._processed

    @property
    def pending_events(self):
        return self._pending

    # ------------------------------------------------------------------
    def schedule(self, delay, callback, *args):
        if not math.isfinite(delay):
            shown = "NaN" if math.isnan(delay) else repr(delay)
            raise SimulationError(
                f"invalid delay: {shown} is not a finite time")
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, when, callback, *args):
        if not math.isfinite(when):
            shown = "NaN" if math.isnan(when) else repr(when)
            raise SimulationError(
                f"invalid target time: {shown} is not a finite time")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self._now})")
        eid = next(self._counter)
        handle = [when, eid, 0, callback, args,
                  self.current_eid, self._sched_origin]
        heapq.heappush(self._heap, (when, eid, handle))
        self._pending += 1
        return handle

    def cancel_event(self, handle):
        if handle[2] == 0:
            handle[2] = 2
            self._pending -= 1

    def event_pending(self, handle):
        return handle[2] == 0

    # ------------------------------------------------------------------
    def _fire(self, when, handle, profiler):
        if self.sanitizer is not None:
            self.sanitizer.note_fire(when)
        self._now = when
        handle[2] = 1
        self._pending -= 1
        self._processed += 1
        self.current_eid = handle[1]
        self._sched_origin = handle[6]
        if profiler is None:
            handle[3](*handle[4])
        else:
            profiler.fire(handle[3], handle[4])

    def run(self, until=None):
        if until != until:
            raise SimulationError(
                f"invalid run bound until={until!r}: NaN is not a time")
        if until is not None and math.isinf(until):
            raise SimulationError(
                f"invalid run bound until={until!r}: not a finite time")
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        profiler = self.obs.profiler if self.obs is not None else None
        heap = self._heap
        try:
            while heap:
                when, _, handle = heap[0]
                if handle[2] == 2:
                    heapq.heappop(heap)
                    continue
                if until is not None and when > until:
                    break
                heapq.heappop(heap)
                self._fire(when, handle, profiler)
        finally:
            self._running = False
            self.current_eid = 0
            self._sched_origin = 0
        if until is not None and self._now < until:
            self._now = until

    def clear(self):
        for _, _, handle in self._heap:
            if handle[2] == 0:
                handle[2] = 2
        self._heap.clear()
        self._pending = 0


#: The pair every differential test iterates over.  The keys are the
#: historical parameter ids of the ``backend`` fixtures ("classic" is
#: the oracle, "fast" the shipped engine), kept so test ids stay stable.
ENGINES = {"classic": ReferenceSimulator, "fast": Simulator}
