"""Unit tests for the discrete-event engine.

Most classes are parametrized through the ``backend`` fixture over the
shipped :class:`repro.sim.Simulator` (``fast``) and the test-only
differential oracle ``tests/reference_engine.py`` (``classic``): the
oracle is held to the full public API, not just to golden traces.
Handle state is inspected through ``sim.cancel_event`` /
``sim.event_pending`` and the module-level ``event_*`` readers.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    SimulationError,
    Simulator,
    event_cancelled,
    event_eid,
    event_fired,
    event_origin_eid,
    event_parent_eid,
    event_time,
)
from tests.reference_engine import ENGINES


@pytest.fixture(params=list(ENGINES))
def backend(request):
    return request.param


def make_sim(backend, **hooks):
    return ENGINES[backend](**hooks)


class TestOneEngine:
    """What ``benchmarks/perf`` relies on: one class, ``run`` on the class."""

    def test_simulator_is_its_own_class_with_run_on_it(self):
        sim = Simulator(sanitizer=None, obs=None)
        assert type(sim) is Simulator
        assert Simulator.__module__ == "repro.sim.engine"
        assert "run" in vars(Simulator) and "run" not in vars(sim)

    def test_no_engine_selector_argument(self):
        with pytest.raises(TypeError):
            Simulator(**{"backend": "fast"})


class TestScheduling:
    def test_clock_starts_at_zero(self, backend):
        assert make_sim(backend).now == 0.0

    def test_single_event_fires_at_time(self, backend):
        sim = make_sim(backend)
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_events_fire_in_time_order(self, backend):
        sim = make_sim(backend)
        order = []
        for delay in [3.0, 1.0, 2.0]:
            sim.schedule(delay, order.append, delay)
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_events_fire_fifo(self, backend):
        sim = make_sim(backend)
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_zero_delay_event_fires(self, backend):
        sim = make_sim(backend)
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_negative_delay_rejected(self, backend):
        with pytest.raises(SimulationError):
            make_sim(backend).schedule(-0.1, lambda: None)

    def test_negative_delay_is_value_error(self, backend):
        """SimulationError doubles as ValueError for plain callers."""
        with pytest.raises(ValueError):
            make_sim(backend).schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self, backend):
        with pytest.raises(SimulationError, match="NaN"):
            make_sim(backend).schedule(float("nan"), lambda: None)

    def test_nan_time_rejected(self, backend):
        with pytest.raises(SimulationError, match="NaN"):
            make_sim(backend).schedule_at(float("nan"), lambda: None)

    def test_schedule_at_past_rejected(self, backend):
        sim = make_sim(backend)
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_callback_args_passed(self, backend):
        sim = make_sim(backend)
        got = []
        sim.schedule(0.5, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_events_scheduled_during_run_fire(self, backend):
        sim = make_sim(backend)
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestErrorPathParity:
    """The engine and its oracle raise the same types with the same messages."""

    def _error_for(self, build):
        errors = {}
        for backend in ENGINES:
            sim = make_sim(backend, sanitizer=None, obs=None)
            with pytest.raises(SimulationError) as excinfo:
                build(sim)
            errors[backend] = str(excinfo.value)
        return errors

    def test_nan_delay_message_identical(self):
        errors = self._error_for(
            lambda sim: sim.schedule(float("nan"), lambda: None))
        assert errors["classic"] == errors["fast"]

    def test_negative_delay_message_identical(self):
        errors = self._error_for(
            lambda sim: sim.schedule(-2.5, lambda: None))
        assert errors["classic"] == errors["fast"]

    def test_nan_time_message_identical(self):
        errors = self._error_for(
            lambda sim: sim.schedule_at(float("nan"), lambda: None))
        assert errors["classic"] == errors["fast"]

    def test_past_time_message_identical(self):
        def build(sim):
            sim.schedule(3.0, lambda: None)
            sim.run()
            sim.schedule_at(1.0, lambda: None)

        errors = self._error_for(build)
        assert errors["classic"] == errors["fast"]

    def test_schedule_after_run_completes(self, backend):
        """The clock stays at the final event; future times remain legal,
        earlier times are SimulationError on both engines."""
        sim = make_sim(backend)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        fired = []
        sim.schedule(1.0, fired.append, "late")  # relative: always fine
        with pytest.raises(SimulationError, match="into the past"):
            sim.schedule_at(4.0, lambda: None)
        sim.run()
        assert fired == ["late"] and sim.now == 6.0

    def test_run_not_reentrant_parity(self):
        for backend in ENGINES:
            sim = make_sim(backend)

            def reenter():
                with pytest.raises(SimulationError, match="not reentrant"):
                    sim.run()

            sim.schedule(1.0, reenter)
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, backend):
        sim = make_sim(backend)
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        sim.cancel_event(handle)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self, backend):
        sim = make_sim(backend)
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel_event(handle)  # should not raise
        assert event_fired(handle)

    def test_pending_transitions(self, backend):
        sim = make_sim(backend)
        handle = sim.schedule(1.0, lambda: None)
        assert sim.event_pending(handle)
        sim.run()
        assert not sim.event_pending(handle)
        assert event_fired(handle)

    def test_cancelled_accessor(self, backend):
        sim = make_sim(backend)
        handle = sim.schedule(1.0, lambda: None)
        assert not event_cancelled(handle)
        sim.cancel_event(handle)
        assert event_cancelled(handle) and not event_fired(handle)

    def test_cancel_one_of_many(self, backend):
        sim = make_sim(backend)
        fired = []
        handles = [sim.schedule(float(i + 1), fired.append, i)
                   for i in range(4)]
        sim.cancel_event(handles[2])
        sim.run()
        assert fired == [0, 1, 3]


class TestRunControl:
    def test_run_until_stops_and_advances_clock(self, backend):
        sim = make_sim(backend)
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_event_exactly_at_until_fires(self, backend):
        sim = make_sim(backend)
        fired = []
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=3.0)
        assert fired == [3]

    def test_unbounded_run_rests_on_the_last_fired_event(self, backend):
        """No bound is +inf to the loop, but the clock is not pushed
        there: it stops where the last event fired (a cancelled later
        timer does not count)."""
        sim = make_sim(backend)
        sim.schedule(2.0, lambda: None)
        sim.cancel_event(sim.schedule(9.0, lambda: None))
        sim.run()
        assert sim.now == 2.0 and sim.pending_events == 0
        sim.run()  # nothing left: the clock stays put
        assert sim.now == 2.0

    def test_nan_until_rejected_before_the_loop(self, backend):
        """``when > nan`` is never true: a NaN bound used to drain the
        whole queue and jump the clock to the last armed timer."""
        sim = make_sim(backend)
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(1e9, fired.append, 2)
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 2
        sim.run(until=2.0)  # the refused call left the engine usable
        assert fired == [1] and sim.now == 2.0

    @pytest.mark.parametrize("until", [float("inf"), float("-inf")],
                             ids=["inf", "-inf"])
    def test_infinite_until_rejected_before_the_loop(self, backend, until):
        """An infinite bound would push the clock to ±inf, where every
        later ``schedule(1.0, ...)`` would land."""
        sim = make_sim(backend)
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError, match="not a finite time"):
            sim.run(until=until)
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 1
        sim.run(until=2.0)
        assert fired == [1] and sim.now == 2.0

    def test_clear_drops_pending(self, backend):
        sim = make_sim(backend)
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.clear()
        sim.run()
        assert fired == []

    def test_run_not_reentrant(self, backend):
        sim = make_sim(backend)

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()

    def test_run_usable_again_after_error_in_callback(self, backend):
        sim = make_sim(backend)

        def boom():
            raise RuntimeError("callback failure")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self, backend):
        sim = make_sim(backend)
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestPendingEvents:
    """pending_events is O(1) on both engines, not a heap scan."""

    def test_counts_scheduled(self, backend):
        sim = make_sim(backend)
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending_events == 5

    def test_decrements_on_fire(self, backend):
        sim = make_sim(backend)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.0)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_decrements_on_cancel(self, backend):
        sim = make_sim(backend)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
        sim.cancel_event(handles[1])
        assert sim.pending_events == 2
        sim.cancel_event(handles[1])  # double-cancel must not decrement twice
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 2

    def test_cancel_after_fire_does_not_decrement(self, backend):
        sim = make_sim(backend)
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.0)
        sim.cancel_event(handle)
        assert sim.pending_events == 1

    def test_clear_resets_to_zero(self, backend):
        sim = make_sim(backend)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        sim.clear()
        assert sim.pending_events == 0
        # Cancelling a cleared handle must not drive the counter negative.
        sim.cancel_event(handles[0])
        assert sim.pending_events == 0
        assert sim.events_processed == 0

    def test_counter_is_o1(self, backend):
        """Reading pending_events must not walk the heap."""
        sim = make_sim(backend)
        for i in range(10_000):
            sim.schedule(float(i + 1), lambda: None)
        reads_per_probe = 1000

        import timeit
        t_large = timeit.timeit(lambda: sim.pending_events,
                                number=reads_per_probe)
        small = make_sim(backend)
        small.schedule(1.0, lambda: None)
        t_small = timeit.timeit(lambda: small.pending_events,
                                number=reads_per_probe)
        # An O(n) scan over 10k events would be >100x slower; allow a very
        # generous factor so timer noise cannot flake the test.
        assert t_large < 50 * max(t_small, 1e-7)


class TestProvenance:
    def test_eids_are_monotonic_from_one(self, backend):
        sim = make_sim(backend, sanitizer=None, obs=None)
        handles = [sim.schedule(0.1 * i, lambda: None) for i in range(3)]
        assert [event_eid(h) for h in handles] == [1, 2, 3]

    def test_setup_events_have_root_parent(self, backend):
        sim = make_sim(backend, sanitizer=None, obs=None)
        handle = sim.schedule(1.0, lambda: None)
        assert event_parent_eid(handle) == 0 and event_origin_eid(handle) == 0

    def test_nested_schedule_records_parent(self, backend):
        sim = make_sim(backend, sanitizer=None, obs=None)
        child = []

        def parent():
            child.append(sim.schedule(0.1, lambda: None))

        root = sim.schedule(1.0, parent)
        sim.run()
        assert event_parent_eid(child[0]) == event_eid(root)

    def test_event_time_accessor(self, backend):
        sim = make_sim(backend, sanitizer=None, obs=None)
        handle = sim.schedule_at(2.5, lambda: None)
        assert event_time(handle) == 2.5

    def test_current_eid_zero_outside_events(self, backend):
        sim = make_sim(backend, sanitizer=None, obs=None)
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.current_eid))
        assert sim.current_eid == 0
        sim.run()
        assert seen == [1]
        assert sim.current_eid == 0

    def test_origin_threads_through_silent_events(self, backend):
        # A (emits) -> B (silent) -> C (emits): C's record must cite A,
        # bridging the silent plumbing event B.
        from repro.obs.sinks import MemorySink
        from repro.obs.tracer import Observability, Tracer

        sink = MemorySink()
        sim = make_sim(backend, sanitizer=None,
                       obs=Observability(tracer=Tracer(sink)))
        eids = {}

        def a():
            eids["a"] = sim.current_eid
            sim.obs.emit(sim.now, "pkt.send", 1, seq=0)
            sim.schedule(0.1, b)

        def b():
            eids["b"] = sim.current_eid
            sim.schedule(0.1, c)  # emits nothing

        def c():
            eids["c"] = sim.current_eid
            sim.obs.emit(sim.now, "pkt.recv", 1, seq=0)

        sim.schedule(1.0, a)
        sim.run()
        rec_a, rec_c = sink.records
        assert rec_a.eid == eids["a"] and rec_a.parent_eid == 0
        assert rec_c.eid == eids["c"]
        assert rec_c.parent_eid == eids["a"]  # not the silent b

    def test_all_records_of_one_event_share_parent(self, backend):
        # Promotion must not leak into the promoting event's own later
        # records: both emissions cite the same ancestor.
        from repro.obs.sinks import MemorySink
        from repro.obs.tracer import Observability, Tracer

        sink = MemorySink()
        sim = make_sim(backend, sanitizer=None,
                       obs=Observability(tracer=Tracer(sink)))

        def a():
            sim.obs.emit(sim.now, "pkt.send", 1, seq=0)
            sim.schedule(0.1, b)

        def b():
            sim.obs.emit(sim.now, "cc.cwnd", 1, cwnd=1)
            sim.obs.emit(sim.now, "cc.cwnd", 1, cwnd=2)

        sim.schedule(1.0, a)
        sim.run()
        first, second, third = sink.records
        assert second.eid == third.eid
        assert second.parent_eid == third.parent_eid == first.eid

    def test_emission_outside_any_event_is_root(self, backend):
        from repro.obs.sinks import MemorySink
        from repro.obs.tracer import Observability, Tracer

        sink = MemorySink()
        sim = make_sim(backend, sanitizer=None,
                       obs=Observability(tracer=Tracer(sink)))
        sim.obs.emit(0.0, "campaign.span", -1, label="x")
        (record,) = sink.records
        assert (record.eid, record.parent_eid) == (0, 0)


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_firing_order_is_sorted(self, delays):
        for backend in ENGINES:
            sim = make_sim(backend)
            times = []
            for d in delays:
                sim.schedule(d, lambda: times.append(sim.now))
            sim.run()
            assert times == sorted(times)
            assert len(times) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=30),
           st.data())
    def test_cancellation_subset(self, delays, data):
        to_cancel = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(delays) - 1)))
        for backend in ENGINES:
            sim = make_sim(backend)
            fired = []
            handles = [sim.schedule(d, fired.append, i)
                       for i, d in enumerate(delays)]
            for idx in to_cancel:
                sim.cancel_event(handles[idx])
            sim.run()
            assert set(fired) == set(range(len(delays))) - to_cancel
