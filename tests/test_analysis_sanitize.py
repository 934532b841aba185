"""Runtime-sanitizer tests: each SAN check fires on a seeded violation,
and a sanitized end-to-end run passes cleanly."""

import math

import pytest

from repro.analysis.sanitize import (
    ENV_VAR,
    SanitizeError,
    SimSanitizer,
    from_env,
    sanitize_enabled,
)
from repro.cc.base import CongestionControl
from repro.experiments.goldens import reorder_deliveries
from repro.sim import SimulationError, Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.intervals import IntervalSet

from .helpers import MSS, make_transfer


class TestSAN001Causality:
    """Causality (SAN001) is the engine's own refusal, on every run: a
    sanitized simulator refuses a bad time with the plain engine's
    ``SimulationError`` and leaves the sanitizer untouched."""

    @staticmethod
    def _refused(schedule_bad, match):
        san = SimSanitizer()
        sim = Simulator(sanitizer=san)
        with pytest.raises(SimulationError, match=match):
            schedule_bad(sim)
        sim.run()  # nothing was queued, so nothing fires
        assert sim.events_processed == 0 and san.events_checked == 0

    def test_infinite_time_rejected(self):
        self._refused(lambda sim: sim.schedule_at(math.inf, lambda: None),
                      "inf is not a finite time")

    def test_nan_time_rejected(self):
        self._refused(lambda sim: sim.schedule_at(math.nan, lambda: None),
                      "NaN is not a finite time")

    def test_past_time_rejected(self):
        sim = Simulator(sanitizer=SimSanitizer())
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="into the past"):
            sim.schedule_at(4.0, lambda: None)

    def test_engine_routes_schedule_through_sanitizer(self):
        """Every fired event reaches the sanitizer; a refused time never
        does, and does not disturb what was queued before it."""
        san = SimSanitizer()
        sim = Simulator(sanitizer=san)
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule_at(2.0, fired.append, 2)
        with pytest.raises(SimulationError, match="inf is not a finite time"):
            sim.schedule_at(math.inf, lambda: None)
        sim.run()
        assert fired == [1, 2]
        assert san.events_checked == sim.events_processed == 2

    def test_valid_schedule_passes(self):
        sim = Simulator(sanitizer=SimSanitizer())
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestSAN002Monotonicity:
    def test_backwards_fire_rejected(self):
        san = SimSanitizer()
        san.note_fire(2.0)
        with pytest.raises(SanitizeError, match="SAN002"):
            san.note_fire(1.0)

    def test_equal_times_allowed(self):
        san = SimSanitizer()
        san.note_fire(2.0)
        san.note_fire(2.0)
        assert san.events_checked == 2

    def test_engine_feeds_fired_events(self):
        san = SimSanitizer()
        sim = Simulator(sanitizer=san)
        for d in (3.0, 1.0, 2.0):
            sim.schedule(d, lambda: None)
        sim.run()
        assert san.events_checked == 3
        assert san.last_fired == 3.0


class TestSAN003Conservation:
    def test_double_delivery_rejected(self):
        san = SimSanitizer()
        san.note_network_send()
        san.note_network_deliver()
        with pytest.raises(SanitizeError, match="SAN003"):
            san.note_network_deliver()

    def test_overcounted_drop_rejected(self):
        san = SimSanitizer()
        san.note_network_send()
        san.note_network_deliver()
        with pytest.raises(SanitizeError, match="SAN003"):
            san.note_network_drop("bottleneck: queue full")

    def test_vanished_packet_caught_at_teardown(self):
        san = SimSanitizer()
        san.note_network_send()
        san.note_network_send()
        san.note_network_deliver()
        with pytest.raises(SanitizeError, match="vanished"):
            san.verify_conservation(pending_events=0)

    def test_in_flight_tolerated_while_events_pending(self):
        """A run truncated by ``until`` legitimately strands packets."""
        san = SimSanitizer()
        san.note_network_send()
        san.verify_conservation(pending_events=3)

    @pytest.mark.parametrize("harness", ["crosstraffic", "crossval"])
    def test_self_built_harness_runs_check_conservation(
            self, harness, monkeypatch):
        """Harnesses that build their own Simulator end with the same
        teardown check as the runner's ``end_run``."""
        from repro.experiments import ext_crosstraffic
        from repro.flowsim.crossval import packet_fct
        from repro.workloads.scenarios import INTERNET_SCENARIOS

        monkeypatch.setenv(ENV_VAR, "1")
        checked = []
        verify = SimSanitizer.verify_conservation

        def counting(san, pending_events):
            checked.append(pending_events)
            verify(san, pending_events)

        monkeypatch.setattr(SimSanitizer, "verify_conservation", counting)
        if harness == "crosstraffic":
            ext_crosstraffic._one("cubic", 0.3, 100_000, 0, 50.0,
                                  fg_start=0.5, horizon=2.0)
        else:
            packet_fct(INTERNET_SCENARIOS["google-tokyo/wired"], "cubic",
                       50_000, 1)
        assert len(checked) == 1

    def test_balanced_books_pass(self):
        san = SimSanitizer()
        for _ in range(5):
            san.note_network_send()
        for _ in range(3):
            san.note_network_deliver()
        san.note_network_drop("bottleneck: queue full", count=2)
        san.verify_conservation(pending_events=0)
        assert san.drop_sites == {"bottleneck: queue full": 2}


class TestSAN004Cwnd:
    def test_cwnd_below_mss_rejected(self):
        san = SimSanitizer()
        with pytest.raises(SanitizeError, match="SAN004"):
            san.check_cwnd(flow_id=1, cwnd=MSS - 1, mss=MSS)

    def test_nan_cwnd_rejected(self):
        san = SimSanitizer()
        with pytest.raises(SanitizeError, match="SAN004"):
            san.check_cwnd(flow_id=1, cwnd=math.nan, mss=MSS)

    def test_one_mss_floor_passes(self):
        SimSanitizer().check_cwnd(flow_id=1, cwnd=MSS, mss=MSS)


class TestSAN005Pacing:
    def test_zero_rate_rejected(self):
        with pytest.raises(SanitizeError, match="SAN005"):
            SimSanitizer().check_pacing_rate(flow_id=1, rate=0.0)

    def test_infinite_rate_rejected(self):
        with pytest.raises(SanitizeError, match="SAN005"):
            SimSanitizer().check_pacing_rate(flow_id=1, rate=math.inf)

    def test_unpaced_none_passes(self):
        SimSanitizer().check_pacing_rate(flow_id=1, rate=None)


class TestSAN006RecoveryBookkeeping:
    def test_clean_intervals_pass(self):
        san = SimSanitizer()
        san.check_intervals(1, "SACK scoreboard", [2000, 5000], [3000, 9000],
                            total=5000, floor=1000)
        san.check_intervals(1, "SACK scoreboard", [], [], total=0, floor=0)
        san.check_retx_cursor(1, cursor=9000, highest=9000)

    @pytest.mark.parametrize("starts,ends,total,floor,why", [
        ([5000, 2000], [9000, 3000], 5000, 0, "out of order"),
        ([2000, 2500], [3000, 4000], 2500, 0, "overlapping"),
        ([2000, 3000], [3000, 4000], 2000, 0, "touching"),
        ([2000], [2000], 0, 0, "empty"),
        ([1000], [3000], 2000, 1000, "not above the cumulative point"),
        ([2000, 5000], [3000, 9000], 4999, 0, "running count drifted"),
        ([2000, 5000], [3000], 1000, 0, "lists out of step"),
    ])
    def test_broken_intervals_rejected(self, starts, ends, total, floor, why):
        with pytest.raises(SanitizeError, match="SAN006"):
            SimSanitizer().check_intervals(1, "reassembly buffer", starts,
                                           ends, total, floor)

    def test_cursor_past_highest_sacked_byte_rejected(self):
        with pytest.raises(SanitizeError, match="SAN006.*retransmit cursor"):
            SimSanitizer().check_retx_cursor(1, cursor=9001, highest=9000)

    def test_miscounted_scoreboard_caught_in_real_run(self, monkeypatch):
        """A scoreboard whose running total drifts (the bug the counter
        invites) is caught on the next ACK, not at the end of the run."""
        monkeypatch.setenv(ENV_VAR, "1")
        plain_add = IntervalSet.add

        def leaky_add(self, start, end):
            merged = plain_add(self, start, end)
            self.total += 1
            return merged

        monkeypatch.setattr(IntervalSet, "add", leaky_add)
        bench = make_transfer(cc="reno", size=400 * MSS, buffer_bdp=0.05)
        with pytest.raises(SanitizeError, match="SAN006.*running byte count"):
            bench.sim.run()

    @pytest.mark.parametrize("reorder", [False, True])
    def test_recovery_heavy_run_passes(self, monkeypatch, reorder):
        """A slow-start overshoot burst (hundreds of holes) and a
        reordering client (spurious recovery, off-pattern SACK blocks)
        keep every SAN006 invariant at every packet."""
        monkeypatch.setenv(ENV_VAR, "1")
        bench = make_transfer(cc="reno", size=1500 * MSS, rate=2_500_000,
                              rtt=0.05)
        if reorder:
            reorder_deliveries(bench.sim, bench.net.clients[0],
                               RngRegistry(3))
        bench.sim.run()
        assert bench.transfer.completed
        assert bench.sender.retransmissions > (50 if reorder else 150)


class _BrokenCwndCC(CongestionControl):
    """Collapses cwnd to zero after the first ACK (a seeded SAN004 bug)."""

    name = "broken-cwnd"

    def __init__(self):
        super().__init__()
        self._acks = 0

    @property
    def cwnd(self):
        return 0 if self._acks else 10 * MSS

    @property
    def ssthresh(self):
        return 1 << 30

    def on_ack(self, ack):
        self._acks += 1

    def on_loss(self, now):
        pass

    def on_rto(self, now):
        pass


class _BrokenPacingCC(_BrokenCwndCC):
    """Keeps cwnd sane but reports an infinite pacing rate."""

    name = "broken-pacing"

    @property
    def cwnd(self):
        return 10 * MSS

    @property
    def pacing_rate(self):
        return math.inf


class TestStackIntegration:
    def test_broken_cwnd_caught_in_real_run(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        bench = make_transfer(cc=_BrokenCwndCC(), size=50 * MSS)
        with pytest.raises(SanitizeError, match="SAN004"):
            bench.run()

    def test_broken_pacing_caught_in_real_run(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        bench = make_transfer(cc=_BrokenPacingCC(), size=50 * MSS)
        with pytest.raises(SanitizeError, match="SAN005"):
            bench.run()

    def test_clean_transfer_passes_all_checks(self, monkeypatch):
        """A healthy sanitized run completes and the books balance."""
        monkeypatch.setenv(ENV_VAR, "1")
        bench = make_transfer(cc="cubic", size=200 * MSS)
        bench.sim.run()  # drain fully so the strict teardown check applies
        assert bench.transfer.completed
        san = bench.sim.sanitizer
        assert san is not None
        assert san.packets_sent > 0
        assert san.events_checked > 0
        san.verify_conservation(bench.sim.pending_events)

    def test_drops_are_accounted_not_vanished(self, monkeypatch):
        """An undersized buffer forces drops; conservation still holds."""
        monkeypatch.setenv(ENV_VAR, "1")
        bench = make_transfer(cc="cubic", size=400 * MSS, buffer_bdp=0.005)
        bench.sim.run()
        san = bench.sim.sanitizer
        assert bench.transfer.completed
        assert san.packets_dropped > 0
        san.verify_conservation(bench.sim.pending_events)


class TestEnvWiring:
    def test_env_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert sanitize_enabled()
        assert isinstance(from_env(), SimSanitizer)
        assert isinstance(Simulator().sanitizer, SimSanitizer)

    def test_env_off_means_no_sanitizer(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not sanitize_enabled()
        assert from_env() is None
        assert Simulator().sanitizer is None

    def test_falsy_values_stay_off(self, monkeypatch):
        for value in ("0", "false", "no", ""):
            monkeypatch.setenv(ENV_VAR, value)
            assert not sanitize_enabled()

    def test_explicit_sanitizer_wins_over_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        san = SimSanitizer()
        assert Simulator(sanitizer=san).sanitizer is san
