"""Discrete-event simulation engine.

Everything else in the repository (links, routers, TCP endpoints,
experiment harnesses) schedules work through a :class:`Simulator`
instance, which guarantees:

* events fire in non-decreasing time order;
* events scheduled for the same instant fire in scheduling order (FIFO),
  which makes runs fully deterministic for a fixed seed;
* cancelled events are skipped without disturbing the ordering of the rest.

There is one engine and no switch that selects another.  The readable
object-per-event heap loop it replaced lives on as
``tests/reference_engine.py``, the differential oracle: the shipped
engine must match it event for event — clock, eids, provenance, FIFO
ties, error messages — on random schedule/cancel programs and digest
for digest on a seed × scenario × CC matrix
(``tests/test_engine_equivalence.py``).

Layout
------
* **Plain-list event records** ``[when, eid, status, callback, args,
  parent_eid, origin_eid]`` (:data:`EventRef`) serve as both the heap
  entry and the handle returned to callers.  ``heapq`` compares lists in
  C: ``when`` first, then the unique monotonic ``eid`` — the FIFO
  tie-break — and never reaches the non-comparable elements.  A list
  subclass with ``cancel()``/``pending`` methods was measured ~2× slower
  per event than plain lists (generic ``type.__call__`` construction),
  which is why cancellation lives on the simulator
  (:meth:`Simulator.cancel_event` / :meth:`Simulator.event_pending`) and
  the ``event_*`` functions below read the record's fields.
* **Closure core.** The hot operations (``schedule``, ``schedule_at``,
  ``cancel_event``, the run loop, …) are built by
  :meth:`Simulator._install` as closures over shared nonlocal cells
  (clock, eid source, provenance pair).  Cell access compiles to
  ``LOAD_DEREF``/``STORE_DEREF`` — faster than ``self`` attribute access
  — and assigning the closures as *instance* attributes skips
  bound-method creation on every call.  :meth:`Simulator.run` itself is
  an ordinary method (called once per run, not per event) that delegates
  to the installed loop.  The clock alone lives twice: the loops store
  :attr:`Simulator.now` beside their cell on every event, so a read from
  outside is one attribute load, not a property over a getter.
* **Single-slot fast path.** The schedule-one-fire-one pattern (chained
  timers) never touches the heap: one record is parked in a ``slot``
  cell; the pop side compares ``heap[0] < slot`` (a C list comparison,
  FIFO-safe because eids are unique) to pick the true minimum.  Neither
  link serialisation nor the RTO re-arm is such an event any more: a
  link computes a packet's departure when it starts it and schedules
  only the arrival (``repro.net.link``), and an ACK moves the sender's
  RTO deadline without touching its engine record (``repro.tcp.sender``).
* **Derived counters.** ``pending_events`` / ``events_processed`` are
  derived from the eid high-water mark, heap length, and two
  cancellation counters, so the per-event loop maintains *no* counters
  at all.  Both remain O(1) reads.
* **One run loop, one scheduling pair.** Every run — plain, sanitized
  or profiled — takes the same loop (a missing bound is +∞ to it, and
  only a bounded run pushes the clock on to its bound).  The hooks cost
  two pointer tests per event: ``note_fire`` when a sanitizer is
  attached, ``profiler.fire`` when the bundle carries a profiler
  (resolved once per ``run()``).  ``schedule`` / ``schedule_at`` refuse
  NaN, ±inf and the past on every run, sanitizer or not.  A bare chained
  tick costs ≈ 255 ns/event (CPython 3.11.7, 2-core x86-64, best of
  9 × 2·10^5 ticks); an event of a 20 MB download costs ≈ 2.5 µs end to
  end.  What a simulator is instrumented with is fixed when it is built
  (links, hosts and senders resolve their gates from it at *their*
  construction), and ``run()`` refuses to go on if ``now``,
  ``sanitizer`` or ``obs`` was assigned over.

An explicit preallocated free-list for event records was evaluated and
rejected: records double as caller-visible handles, so recycling a fired
record while a caller still holds it would alias two events onto one
handle (``event_pending`` would lie).  CPython's small-list free-list
already makes the allocation ~40 ns; correctness wins.

Causal provenance
-----------------
Every scheduled event is assigned a monotonically increasing *event id*
(``eid``, starting at 1; 0 is the root context outside any event) and
remembers the eid of the event during whose execution it was scheduled
(:func:`event_parent_eid`).  In addition each event inherits,
through :meth:`Simulator.schedule`, the eid of its nearest ancestor
event that emitted at least one trace record (its *origin*): the
observability layer stamps ``(current_eid, origin)`` onto every
:class:`~repro.obs.records.TraceRecord` and then promotes the current
event to be the origin of everything it schedules from then on.  The
result is that a record's ``parent_eid`` always names an event with
records *in the same trace*, so a SUSS decision can be walked back
through the ACK that clocked it — across silent plumbing events such as
router forwarding and link wakes — to the data send that provoked the
ACK.  (A packet that waits in a link queue is started by a wake some
other packet's send armed; ``Link`` carries the packet's own origin
across the wait, so the walk still ends at *its* send.)  Because
eids are assigned in scheduling order, they are as deterministic as the
event stream itself (``jobs=1`` and ``jobs=N`` campaign runs agree
event for event, eids included).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.analysis.sanitize import SimSanitizer, from_env
from repro.core.units import Seconds
from repro.obs.profile import global_profiler
from repro.obs.runtime import add_engine_events
from repro.obs.tracer import Observability

#: constructor sentinel: "no sanitizer/obs argument given" — the
#: sanitizer then follows ``REPRO_SANITIZE`` and the bundle carries the
#: installed global profiler, if any.  Passing sanitizer=None or
#: obs=None explicitly opts out even in instrumented runs (unit tests
#: that drive links directly, bypassing Host.transmit accounting).
_DEFAULT: Any = object()

#: A scheduled event — the heap entry and the handle ``schedule``
#: returns: ``[when, eid, status, callback, args, parent_eid,
#: origin_eid]``; status 0 pending / 1 fired / 2 cancelled.  A record
#: stays valid after the event fires; cancelling a fired event is a
#: harmless no-op so callers do not need to track firing themselves.
EventRef = list


class SimulationError(ValueError):
    """Raised for invalid uses of the simulation engine.

    Subclasses :class:`ValueError` because the most common instance —
    an invalid delay or target time — is an argument error.
    """


_INF = float("inf")


def _raise_bad_delay(delay: Any) -> None:
    # NaN would poison the heap ordering silently; ±inf would park the
    # event, and the clock after it, beyond every finite time.
    if not -_INF < delay < _INF:
        shown = "NaN" if delay != delay else repr(delay)
        raise SimulationError(f"invalid delay: {shown} is not a finite time")
    raise SimulationError(f"cannot schedule into the past (delay={delay})")


def _raise_bad_when(when: Any, now: float) -> None:
    if not -_INF < when < _INF:
        shown = "NaN" if when != when else repr(when)
        raise SimulationError(
            f"invalid target time: {shown} is not a finite time")
    raise SimulationError(
        f"cannot schedule into the past (when={when}, now={now})"
    )


def _raise_bad_until(until: Any) -> None:
    if until != until:  # NaN: ``when > until`` would never stop the loop
        raise SimulationError(
            f"invalid run bound until={until!r}: NaN is not a time")
    # ±inf: the clock would be pushed to the bound, and every later
    # schedule() would land there.
    raise SimulationError(
        f"invalid run bound until={until!r}: not a finite time")


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()

    The clock starts at ``0.0`` and only advances when :meth:`run`
    processes events.  ``schedule`` / ``schedule_at`` return an
    :data:`EventRef`; cancel or poll it with ``cancel_event``
    (idempotent) / ``event_pending``.  ``clear()`` drops all pending
    events, leaving the clock where it is.

    Three plain attributes are the engine's to write and everyone's to
    read: ``now``, the simulation time in seconds; ``sanitizer``, the
    runtime invariant checker (default: per ``REPRO_SANITIZE``); ``obs``,
    the observability bundle (default: none, or one carrying the
    installed global profiler).  Tracing is the caller's:
    ``Simulator(obs=tracing(sink))``.  With either None every hook site
    is a single pointer test.  Both are fixed at construction.
    """

    def __init__(self, sanitizer: Optional[SimSanitizer] = _DEFAULT,
                 obs: Optional[Observability] = _DEFAULT) -> None:
        self._heap: List[EventRef] = []
        self.now: Seconds = 0.0
        self.sanitizer = from_env() if sanitizer is _DEFAULT else sanitizer
        if obs is _DEFAULT:
            profiler = global_profiler()
            obs = None if profiler is None else Observability(
                profiler=profiler)
        self.obs = obs
        if self.obs is not None:
            # Bind this engine as the bundle's provenance source so every
            # record it emits carries (eid, parent_eid).  The attribute is
            # duck-typed — obs stays a dependency-free leaf layer.
            self.obs.provenance = self
        self._install()

    # ------------------------------------------------------------------
    # closure factory
    # ------------------------------------------------------------------
    def _install(self) -> None:
        """Build the hot closures, once, around a fresh engine state.

        All mutable engine state lives in the nonlocal cells below.
        ``eid_src`` starts at 0 because eid 0 is the root context; it
        doubles as the same-instant FIFO tie-break.
        ``cur_eid`` / ``cur_origin`` are the provenance pair: the
        executing event's eid and the origin newly scheduled events
        inherit (the executing event's nearest record-emitting ancestor
        until it emits its first record, its own eid afterwards —
        ``Observability.emit`` performs that promotion through the
        ``_sched_origin`` property).  Every write to the ``now`` cell is
        paired with one to ``self.now``, which the rest of the stack reads.
        """
        heap = self._heap
        san = self.sanitizer
        obs = self.obs
        now = self.now
        eid_src = cancelled_q = cancelled_total = cur_eid = cur_origin = 0
        slot: Optional[EventRef] = None
        running = False

        def check_untouched() -> None:
            """Per ``run()``, not per event: the public
            attributes still hold the very objects the engine put there
            (a clock write stores one float in both places)."""
            for name, mine in (("now", now), ("sanitizer", san), ("obs", obs)):
                if getattr(self, name) is not mine:
                    raise SimulationError(
                        f"Simulator.{name} was assigned from outside: the "
                        "clock is the engine's to write, and sanitizer / obs "
                        "are fixed when a simulator is built — pass them to "
                        "Simulator(...)")

        # -------------------------------------------------- scheduling
        def schedule(delay: Seconds, callback: Callable[..., None],
                     *args: Any) -> EventRef:
            nonlocal eid_src, slot
            if not 0.0 <= delay < _INF:  # False for NaN, inf and the past
                _raise_bad_delay(delay)
            eid_src = eid = eid_src + 1
            rec = [now + delay, eid, 0, callback, args, cur_eid, cur_origin]
            if slot is None:
                slot = rec
            else:
                heappush(heap, rec)
            return rec

        def schedule_at(when: Seconds, callback: Callable[..., None],
                        *args: Any) -> EventRef:
            nonlocal eid_src, slot
            if not now <= when < _INF:  # False for NaN, inf and the past
                _raise_bad_when(when, now)
            eid_src = eid = eid_src + 1
            rec = [when, eid, 0, callback, args, cur_eid, cur_origin]
            if slot is None:
                slot = rec
            else:
                heappush(heap, rec)
            return rec

        # -------------------------------------------------- cancellation
        def cancel_event(rec: EventRef) -> None:
            nonlocal cancelled_q, cancelled_total
            if rec[2] == 0:
                rec[2] = 2
                cancelled_q += 1
                cancelled_total += 1

        def event_pending(rec: EventRef) -> bool:
            return rec[2] == 0

        # -------------------------------------------------- execution
        def run(until: Optional[Seconds]) -> None:
            nonlocal now, slot, cur_eid, cur_origin, cancelled_q, running
            if running:
                raise SimulationError("Simulator.run is not reentrant")
            check_untouched()
            running = True
            # Both hooks are locals of the loop: one pointer test each per
            # event, and the profiler is resolved once per run().
            sanitizer = san
            profiler = None if obs is None else obs.profiler
            # No bound means +inf: one loop serves both, and only a
            # bounded run pushes the clock on to its bound.
            bound = _INF if until is None else until
            try:
                while True:
                    s = slot
                    if s is not None:
                        if heap and heap[0] < s:
                            rec = heap[0]
                            from_heap = True
                        else:
                            rec = s
                            from_heap = False
                    elif heap:
                        rec = heap[0]
                        from_heap = True
                    else:
                        break
                    if rec[2]:
                        # Cancelled entries are discarded before the
                        # bound check, exactly like the reference loop.
                        if from_heap:
                            heappop(heap)
                        else:
                            slot = None
                        cancelled_q -= 1
                        continue
                    when = rec[0]
                    if when > bound:
                        break
                    if from_heap:
                        heappop(heap)
                    else:
                        slot = None
                    if sanitizer is not None:
                        sanitizer.note_fire(when)
                    self.now = now = when
                    rec[2] = 1
                    cur_eid = rec[1]
                    cur_origin = rec[6]
                    if profiler is None:
                        rec[3](*rec[4])
                    else:
                        profiler.fire(rec[3], rec[4])
            finally:
                running = False
                cur_eid = 0
                cur_origin = 0
            if until is not None and now < until:
                self.now = now = until

        def clear() -> None:
            nonlocal slot, cancelled_q, cancelled_total
            # Mark dropped records cancelled so handles report the truth
            # and a later cancel_event() cannot skew the counters.
            newly = 0
            for rec in heap:
                if rec[2] == 0:
                    rec[2] = 2
                    newly += 1
            if slot is not None:
                if slot[2] == 0:
                    slot[2] = 2
                    newly += 1
                slot = None
            heap.clear()
            cancelled_total += newly
            cancelled_q = 0

        # -------------------------------------------------- state bridge
        def _get_cur_eid() -> int:
            return cur_eid

        def _get_origin() -> int:
            return cur_origin

        def _set_origin(value: int) -> None:
            nonlocal cur_origin
            cur_origin = value

        def _get_pending() -> int:
            return len(heap) + (slot is not None) - cancelled_q

        def _get_processed() -> int:
            return (eid_src - cancelled_total
                    - (len(heap) + (slot is not None) - cancelled_q))

        # Closures are assigned as *instance* attributes: calls skip both
        # the descriptor protocol and bound-method creation.
        self.schedule = schedule
        self.schedule_at = schedule_at
        self.cancel_event = cancel_event
        self.event_pending = event_pending
        self._run = run
        self.clear = clear
        self._get_cur_eid = _get_cur_eid
        self._get_origin = _get_origin
        self._set_origin = _set_origin
        self._get_pending = _get_pending
        self._get_processed = _get_processed

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[Seconds] = None) -> None:
        """Run until the queue drains or ``until`` is reached.

        ``until`` is an absolute simulation time; events at exactly ``until``
        still fire.  When the run stops because of ``until``, the clock is
        advanced to ``until`` even if no event fired there, so repeated
        ``run(until=...)`` calls behave like a progressing wall clock.
        A bound that is not finite is refused before any event fires.
        """
        if until is not None and not -_INF < until < _INF:
            _raise_bad_until(until)
        before = self._get_processed()
        try:
            self._run(until)
        finally:
            # One process-counter add per run(), not per event: run-level
            # telemetry sees engine throughput at zero hot-loop cost.
            add_engine_events(self._get_processed() - before)

    # ------------------------------------------------------------------
    # read-only views of the closure cells
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far (cancelled ones excluded)."""
        return self._get_processed()

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled entries excluded).

        O(1), not a heap scan — monitoring code may poll this in hot loops.
        """
        return self._get_pending()

    @property
    def current_eid(self) -> int:
        """eid of the currently executing event (0 outside any event)."""
        return self._get_cur_eid()

    @property
    def _sched_origin(self) -> int:
        # Property (not a plain attribute) so Observability.emit's
        # promotion write lands in the closure cell the schedule/run
        # closures actually read.
        return self._get_origin()

    @_sched_origin.setter
    def _sched_origin(self, value: int) -> None:
        self._set_origin(value)


# ----------------------------------------------------------------------
# event record introspection
# ----------------------------------------------------------------------
def event_time(handle: EventRef) -> Seconds:
    """Scheduled fire time of an event."""
    return handle[0]


def event_eid(handle: EventRef) -> int:
    """Engine-assigned event id (monotonic, unique within one Simulator)."""
    return handle[1]


def event_parent_eid(handle: EventRef) -> int:
    """eid of the event whose callback scheduled this one (0 = root)."""
    return handle[5]


def event_origin_eid(handle: EventRef) -> int:
    """eid of the nearest record-emitting ancestor event (0 = root)."""
    return handle[6]


def event_fired(handle: EventRef) -> bool:
    """True once the event's callback has run."""
    return handle[2] == 1


def event_cancelled(handle: EventRef) -> bool:
    """True once the event has been cancelled."""
    return handle[2] == 2
