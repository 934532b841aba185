"""Differential equivalence: the shipped engine against its reference oracle.

``repro.sim.engine.Simulator`` (array records, closure core, slot fast
path) promises the exact behaviour of the readable heap loop it replaced,
which survives as ``tests/reference_engine.py``.  This suite is the proof:

* a seed x scenario x CC matrix runs every configuration on both engines
  and compares full-trace SHA-256 digests (eids included);
* hypothesis property tests mirror random programs on both engines —
  nested ``schedule`` / ``schedule_at``, ``cancel_event`` and ``clear()``
  from inside callbacks, ``run()`` / ``run(until)`` interleaved, raising
  callbacks — comparing clock, eid, pending and
  processed after every step, and check heap invariants (non-decreasing
  fire order, FIFO at equal times, cancel-then-pop skips);
* sanitizer rules and ``repro explain`` causal chains behave identically
  on both engines.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitize import SanitizeError, SimSanitizer, from_env
from repro.experiments import goldens
from repro.experiments.runner import run_single_flow
from repro.obs.causal import CausalIndex, explain_event
from repro.obs.profile import EventProfiler
from repro.obs.sinks import DigestSink, MemorySink
from repro.obs.tracer import Observability, Tracer
from repro.sim import RngRegistry, SimulationError, Simulator
from repro.workloads import INTERNET_SCENARIOS
from tests.reference_engine import ENGINES

SEEDS = (1, 2, 3)
#: clean short-RTT wired path; jittery varying-bandwidth wifi; long-RTT 4g
SCENARIOS = ("google-tokyo/wired", "nz-campus/wifi", "oracle-london/4g")
CCS = ("reno", "cubic", "cubic+suss")
SIZE_BYTES = 150_000


def _download(backend, scenario, cc, size, seed, sink, sanitizer=None):
    """One fixed-seed download on ``backend`` tracing into ``sink``.

    The reference engine reads no environment, so both sides are handed
    their hooks explicitly; the topology goes in through
    ``run_single_flow``'s ``net=`` / ``sim=`` pair.
    """
    obs = Observability(tracer=Tracer(sink))
    sim = ENGINES[backend](sanitizer=sanitizer, obs=obs)
    net = scenario.build(sim, RngRegistry(seed))
    result = run_single_flow(scenario, cc, size, seed=seed, net=net, sim=sim)
    obs.close()
    assert result.completed, f"{scenario.name}/{cc}/seed={seed} did not finish"
    return result


def _capture(backend, scenario, cc, seed):
    """Digest + run facts of one matrix cell (sanitized when the suite
    runs under ``REPRO_SANITIZE=1``, so the hook order is compared too)."""
    sink = DigestSink()
    result = _download(backend, INTERNET_SCENARIOS[scenario], cc, SIZE_BYTES,
                       seed, sink, sanitizer=from_env())
    return {
        "digest": sink.digest(),
        "records": sink.records,
        "fct": result.fct,
        "retransmissions": result.retransmissions,
        "data_packets": result.data_packets_sent,
    }


class TestDifferentialMatrix:
    """Golden-trace byte-identity across seed x scenario x CC."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("cc", CCS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_classic_and_fast_traces_are_byte_identical(
            self, scenario, cc, seed):
        classic = _capture("classic", scenario, cc, seed)
        fast = _capture("fast", scenario, cc, seed)
        # The digest covers every record's time, eid, peid, and payload —
        # equality here is byte-identity of the full JSONL trace.
        assert fast == classic

    def test_matrix_is_large_enough(self):
        """The acceptance floor: >= 3 seeds x 3 scenarios x 3 CCs."""
        assert len(SEEDS) >= 3 and len(SCENARIOS) >= 3 and len(CCS) >= 3


class TestExplainChainEquivalence:
    """``repro explain`` causal chains are engine-independent."""

    def test_explain_chain_identical_on_committed_golden(self):
        run = goldens.GOLDEN_RUNS["cubic+suss"]
        chains = {}
        for backend in ENGINES:
            sink = MemorySink()
            _download(backend, INTERNET_SCENARIOS[run.scenario], run.cc,
                      run.size_bytes, run.seed, sink)
            index = CausalIndex(sink.records)
            # A mid-trace event with a real ancestry, not a root emission.
            eid = max(index._by_eid)
            mid = sorted(index._by_eid)[len(index._by_eid) // 2]
            chains[backend] = (explain_event(index, mid),
                              explain_event(index, eid))
        assert chains["fast"] == chains["classic"]
        assert chains["fast"][0]["found"]
        assert chains["fast"][0]["complete"]

    def test_fast_capture_matches_committed_digest(self):
        """The committed goldens were captured on the heap-loop engine;
        the shipped one must still reproduce them bit-for-bit."""
        from repro.obs.golden import load_digests
        index = load_digests(goldens.DEFAULT_GOLDEN_DIR)
        assert goldens.capture_digest("cubic") == index["cubic"]["digest"]


# ----------------------------------------------------------------------
# hypothesis: random programs mirrored on both engines
# ----------------------------------------------------------------------
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"),
                  st.floats(min_value=0.0, max_value=10.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    ),
    min_size=1, max_size=40)

#: delays drawn partly from a small grid so same-instant FIFO ties are common
_delay = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                   st.floats(min_value=0.0, max_value=5.0,
                             allow_nan=False, allow_infinity=False))
#: what a fired callback does: nothing, raise, cancel some earlier handle,
#: ``clear()``, or schedule further callbacks (relative or absolute)
_action = st.recursive(
    st.one_of(st.just(("noop",)), st.just(("raise",)), st.just(("clear",)),
              st.tuples(st.just("cancel"), st.integers(0, 40))),
    lambda inner: st.one_of(
        st.tuples(st.just("sched"), _delay, inner),
        st.tuples(st.just("sched_at"), _delay, inner),
        st.tuples(st.just("both"), inner, inner)),
    max_leaves=6)
_program = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _delay, _action),
        st.tuples(st.just("sched_at"), _delay, _action),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.just(("clear",)),
        st.just(("run",)),
        st.tuples(st.just("run_until"), _delay),
    ),
    min_size=1, max_size=25)


class _Boom(Exception):
    """Raised by a fuzzed callback; the driver catches it and carries on."""


def _execute(engine, program, sanitizer, obs=None):
    """Interpret ``program`` on a fresh ``engine``; return everything
    observable: each firing, and the full engine + handle state after
    every top-level step."""
    sim = engine(sanitizer=sanitizer, obs=obs)
    log, handles, tags = [], [], itertools.count()

    def perform(action):
        kind = action[0]
        if kind == "sched":
            handles.append(
                sim.schedule(action[1], fire, next(tags), action[2]))
        elif kind == "sched_at":
            handles.append(sim.schedule_at(
                sim.now + action[1], fire, next(tags), action[2]))
        elif kind == "both":
            perform(action[1])
            perform(action[2])
        elif kind == "cancel" and handles:
            sim.cancel_event(handles[action[1] % len(handles)])
        elif kind == "clear":
            sim.clear()
        elif kind == "raise":
            raise _Boom

    def fire(tag, action):
        log.append(("fire", tag, sim.now, sim.current_eid,
                    sim.pending_events, sim.events_processed))
        perform(action)

    for op in program:
        try:
            if op[0] == "run":
                sim.run()
            elif op[0] == "run_until":
                sim.run(until=sim.now + op[1])
            else:
                perform(op)
        except _Boom:
            log.append("boom")
        log.append((sim.now, sim.current_eid, sim.pending_events,
                    sim.events_processed,
                    [h[:3] + h[5:] for h in handles],
                    [sim.event_pending(h) for h in handles]))
    return log


class TestHeapProperties:
    @settings(max_examples=60, deadline=None)
    @given(program=_ops)
    def test_random_programs_fire_identically(self, program):
        """Both engines fire the same callbacks in the same order at the
        same clock values for any schedule/cancel program."""
        logs = []
        for engine in ENGINES.values():
            sim = engine(sanitizer=None, obs=None)
            log = []
            handles = []
            for i, (op, arg) in enumerate(program):
                if op == "sched":
                    handles.append(
                        sim.schedule(arg, lambda s=sim, i=i: log.append(
                            (i, s.now, s.current_eid))))
                elif handles:
                    sim.cancel_event(handles[arg % len(handles)])
            sim.run()
            log.append(("end", sim.now, sim.events_processed,
                        sim.pending_events))
            logs.append(log)
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("sanitized, profiled",
                             [(False, False), (True, False), (False, True)],
                             ids=["False", "True", "profiled"])
    @settings(max_examples=400, deadline=None)
    @given(program=_program)
    def test_fuzzed_programs_leave_identical_state(self, sanitized, profiled,
                                                   program):
        """Nested scheduling, cancel and ``clear()`` from inside callbacks,
        ``run()`` / ``run(until)`` interleaved, and callbacks that raise:
        clock, eids, provenance, handle status and both counters agree
        after every step.  All three legs run the one loop: plain, with
        ``note_fire`` on every event, and with every callback dispatched
        through ``profiler.fire``; each hook sees every fired event once."""
        logs = []
        for engine in ENGINES.values():
            sanitizer = SimSanitizer() if sanitized else None
            profiler = EventProfiler() if profiled else None
            obs = None if profiler is None else Observability(
                profiler=profiler)
            log = _execute(engine, program, sanitizer, obs)
            fired = sum(entry[0] == "fire" for entry in log)
            if sanitizer is not None:
                assert sanitizer.events_checked == fired
            if profiler is not None:
                assert profiler.events == fired
            logs.append(log)
        assert logs[0] == logs[1]

    @settings(max_examples=40, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=30))
    def test_fire_order_is_non_decreasing_and_fifo(self, times):
        """Fire times never decrease; equal times fire in schedule order."""
        for backend, engine in ENGINES.items():
            sim = engine(sanitizer=None, obs=None)
            fired = []
            for i, t in enumerate(times):
                sim.schedule(t, lambda t=t, i=i: fired.append((t, i)))
            sim.run()
            assert fired == sorted(fired), backend

    @settings(max_examples=40, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=30),
           data=st.data())
    def test_cancelled_events_are_skipped(self, times, data):
        """Cancel-then-pop: cancelled events never fire, on either engine."""
        doomed = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(times) - 1), min_size=1))
        for backend, engine in ENGINES.items():
            sim = engine(sanitizer=None, obs=None)
            fired = []
            handles = [sim.schedule(t, fired.append, i)
                       for i, t in enumerate(times)]
            for i in doomed:
                sim.cancel_event(handles[i])
            sim.run()
            assert set(fired) == set(range(len(times))) - doomed, backend
            assert sim.pending_events == 0, backend


# ----------------------------------------------------------------------
# the clock, the sanitizer and the bundle are attributes of the engine
# ----------------------------------------------------------------------
def _clock_walk(engine, sanitizer):
    """Every place the clock is written, read through ``sim.now``: inside
    callbacks, after a bounded run pushes it on to its bound, after a
    bound an event sits on, after ``clear()``, after a raising callback
    under an unbounded and a bounded run."""
    sim = engine(sanitizer=sanitizer, obs=None)
    seen = []

    def read(tag):
        seen.append((tag, sim.now))

    def nested():
        read("outer")
        sim.schedule(0.25, read, "inner")
        sim.schedule_at(sim.now, read, "same instant")

    def boom():
        read("before boom")
        raise _Boom

    sim.schedule(1.0, nested)
    sim.schedule(2.0, read, "two")
    sim.schedule(3.0, boom)
    sim.schedule(4.0, read, "four")
    sim.schedule(9.0, read, "dropped by clear")
    read("fresh")
    sim.run(until=0.5)
    read("pushed to 0.5 with nothing fired")
    sim.run(until=1.5)
    read("pushed past the last event fired")
    sim.run(until=2.0)
    read("stopped on a bound an event sits on")
    try:
        sim.run()
    except _Boom:
        read("after a raising callback under run")
    sim.schedule(0.0, boom)
    try:
        sim.run(until=3.5)
    except _Boom:
        read("after a raising callback under a bounded run")
    sim.run(until=4.0)
    read("after the bound")
    sim.clear()
    read("after clear")
    sim.run(until=20.0)
    read("pushed on with an empty queue")
    sim.run()
    read("after an empty run")
    return seen


class TestEngineAttributes:
    @pytest.mark.parametrize("sanitized", [False, True])
    def test_the_clock_reads_the_same_everywhere(self, sanitized):
        """The shipped loop writes ``sim.now`` beside its cell, with a
        sanitizer attached or not."""
        fast, classic = (
            _clock_walk(engine, SimSanitizer() if sanitized else None)
            for engine in (ENGINES["fast"], ENGINES["classic"]))
        assert fast == classic
        assert [when for _, when in fast] == [
            0.0, 0.5, 1.0, 1.0, 1.25, 1.5, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0,
            4.0, 4.0, 4.0, 20.0, 20.0]

    def test_they_are_plain_instance_attributes(self):
        """One attribute load per read — not a property over a getter."""
        sanitizer, obs = SimSanitizer(), Observability()
        sim = Simulator(sanitizer=sanitizer, obs=obs)
        for name, value in (("now", 0.0), ("sanitizer", sanitizer),
                            ("obs", obs)):
            assert vars(sim)[name] is getattr(sim, name)
            assert getattr(sim, name) == value
            assert not hasattr(Simulator, name)
        assert obs.provenance is sim

    @pytest.mark.parametrize("name, value", [
        ("now", 5.0), ("now", math.nan), ("sanitizer", SimSanitizer()),
        ("sanitizer", None), ("obs", Observability()), ("obs", None)])
    @pytest.mark.parametrize("drive", ["run", "run_until"])
    def test_an_outside_assignment_is_reported_by_the_next_run(
            self, name, value, drive):
        """The clock is the engine's to write, and what a simulator is
        instrumented with is fixed when it is built (links, hosts and
        senders resolved their gates from it at *their* construction)."""
        from repro.sim import SimulationError

        sim = Simulator(sanitizer=SimSanitizer(), obs=Observability())
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=1.0)
        was = getattr(sim, name)
        setattr(sim, name, value)
        with pytest.raises(SimulationError, match=rf"Simulator\.{name} "):
            {"run": sim.run,
             "run_until": lambda: sim.run(until=9.0)}[drive]()
        assert fired == [1]                 # refused before anything fired
        setattr(sim, name, was)             # put back: the engine carries on
        sim.run()
        assert fired == [1, 2] and sim.now == 2.0


# ----------------------------------------------------------------------
# sanitizer + error paths on the shipped engine
# ----------------------------------------------------------------------
class TestNonFiniteTimes:
    @pytest.mark.parametrize("sanitized", [False, True],
                             ids=["plain", "sanitized"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("method, what", [("schedule", "delay"),
                                              ("schedule_at", "target time")],
                             ids=["schedule", "schedule_at"])
    @pytest.mark.parametrize("backend", list(ENGINES))
    def test_refused_by_the_engine(self, backend, method, what, value,
                                   sanitized):
        """Causality (SAN001) is the engine's refusal on every run, with
        or without a sanitizer: the same ``SimulationError`` on both
        engines, nothing queued, and the engine carries on."""
        sim = ENGINES[backend](
            sanitizer=SimSanitizer() if sanitized else None, obs=None)
        with pytest.raises(SimulationError) as excinfo:
            getattr(sim, method)(value, lambda: None)
        shown = "NaN" if value != value else repr(value)
        assert str(excinfo.value) == \
            f"invalid {what}: {shown} is not a finite time"
        assert sim.pending_events == 0
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.run()
        assert fired == [1] and sim.now == 1.0


class TestSanitizedFastBackend:
    def test_san001_fires_through_fast_schedule(self):
        """The shipped engine with a sanitizer refuses an infinite time
        at ``schedule_at`` with its own error and queues nothing."""
        san = SimSanitizer()
        sim = Simulator(sanitizer=san)
        with pytest.raises(SimulationError,
                           match="invalid target time: inf is not a finite"):
            sim.schedule_at(math.inf, lambda: None)
        assert sim.pending_events == 0 and san.events_checked == 0

    def test_sanitized_transfer_identical_across_backends(self):
        """SAN002-005 hooks run on every event; a clean sanitized run
        must pass and trace identically on both engines."""
        runs = {}
        for backend in ENGINES:
            sink = DigestSink()
            result = _download(backend,
                               INTERNET_SCENARIOS["google-tokyo/wired"],
                               "cubic+suss", 120_000, 5, sink,
                               sanitizer=SimSanitizer())
            runs[backend] = (sink.digest(), sink.records, result.fct)
        assert runs["fast"] == runs["classic"]
        assert runs["fast"][1] > 0

    def test_broken_cwnd_caught_under_fast(self, monkeypatch):
        from .helpers import MSS, make_transfer
        from .test_analysis_sanitize import _BrokenCwndCC
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        bench = make_transfer(cc=_BrokenCwndCC(), size=50 * MSS)
        assert type(bench.sim) is Simulator
        with pytest.raises(SanitizeError, match="SAN004"):
            bench.run()
