"""Unit tests for repro.obs.profile and engine profiling integration."""

import pytest

from repro.obs import profile as obs_profile
from repro.obs.profile import EventProfiler
from repro.obs.tracer import Observability
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_global():
    obs_profile.clear_global()
    yield
    obs_profile.clear_global()


class TestEventProfiler:
    def test_fire_runs_callback_and_aggregates(self):
        prof = EventProfiler()
        calls = []
        prof.fire(calls.append, (1,))
        prof.fire(calls.append, (2,))
        assert calls == [1, 2]
        assert prof.events == 2
        ((key, fires, total, mean, peak),) = prof.rows()
        assert fires == 2 and "append" in key
        assert total >= 0 and peak >= mean >= 0

    def test_fire_times_raising_callbacks(self):
        prof = EventProfiler()

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            prof.fire(boom, ())
        assert prof.events == 1  # the failed fire is still accounted

    def test_note_tracks_max(self):
        prof = EventProfiler()
        prof.note("k", 0.1)
        prof.note("k", 0.3)
        prof.note("k", 0.2)
        (_, fires, total, mean, peak) = prof.rows()[0]
        assert fires == 3
        assert total == pytest.approx(0.6)
        assert peak == pytest.approx(0.3)

    def test_rows_sorted_by_total_descending(self):
        prof = EventProfiler()
        prof.note("small", 0.01)
        prof.note("big", 1.0)
        assert [row[0] for row in prof.rows()] == ["big", "small"]

    def test_format_report(self):
        prof = EventProfiler()
        assert prof.format_report() == "no events profiled"
        prof.note("Link._start_next", 0.001)
        report = prof.format_report(top=5)
        assert "Link._start_next" in report
        assert "1 events" in report

    def test_rows_sort_by_count_and_mean(self):
        prof = EventProfiler()
        # "often": many cheap fires; "rare": one expensive fire
        for _ in range(5):
            prof.note("often", 0.01)
        prof.note("rare", 0.2)
        assert [r[0] for r in prof.rows(sort="total")] == ["rare", "often"]
        assert [r[0] for r in prof.rows(sort="count")] == ["often", "rare"]
        assert [r[0] for r in prof.rows(sort="mean")] == ["rare", "often"]

    def test_rows_rejects_unknown_sort(self):
        with pytest.raises(ValueError, match="unknown sort key"):
            EventProfiler().rows(sort="bogus")

    def test_format_report_sort_changes_row_order(self):
        prof = EventProfiler()
        for _ in range(5):
            prof.note("often", 0.01)
        prof.note("rare", 0.2)
        by_total = prof.format_report(sort="total").splitlines()
        by_count = prof.format_report(sort="count").splitlines()
        assert by_total[2].startswith("rare")
        assert by_count[2].startswith("often")

    def test_format_report_top_truncates_after_sort(self):
        prof = EventProfiler()
        for _ in range(5):
            prof.note("often", 0.01)
        prof.note("rare", 0.2)
        report = prof.format_report(top=1, sort="count")
        assert "often" in report and "rare" not in report

    def test_reset(self):
        prof = EventProfiler()
        prof.note("k", 0.1)
        prof.reset()
        assert prof.events == 0 and prof.rows() == []


class TestGlobalProfiler:
    def test_install_and_clear(self):
        assert obs_profile.global_profiler() is None
        prof = obs_profile.install_global()
        assert obs_profile.global_profiler() is prof
        obs_profile.clear_global()
        assert obs_profile.global_profiler() is None

    def test_from_env_prefers_installed_global(self):
        """The default bundle carries the installed profiler and no
        tracer: ``repro profile`` reaches harness-built simulators this
        way."""
        assert Simulator(sanitizer=None).obs is None
        prof = obs_profile.install_global()
        sim = Simulator(sanitizer=None)
        assert sim.obs.profiler is prof and sim.obs.tracer is None
        # a caller's bundle is used as given
        assert Simulator(sanitizer=None, obs=None).obs is None


class TestEngineIntegration:
    def test_engine_routes_events_through_profiler(self):
        prof = EventProfiler()
        sim = Simulator(sanitizer=None,
                        obs=Observability(profiler=prof))
        fired = []
        for i in range(5):
            sim.schedule(0.1 * i, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert prof.events == 5

    def test_disabled_by_default(self):
        assert Simulator(sanitizer=None).obs is None


class TestCollapsedStacks:
    def _profiler_with(self, entries):
        prof = EventProfiler()
        for key, elapsed in entries:
            prof.note(key, elapsed)
        return prof

    def test_fold_format_and_sorting(self):
        prof = self._profiler_with([("Link.transmit", 0.002),
                                    ("Host.receive", 0.001),
                                    ("Link.transmit", 0.001)])
        lines = prof.collapsed_stacks()
        assert lines == ["Host;receive 1000", "Link;transmit 3000"]

    def test_tiny_totals_clamp_to_one_microsecond(self):
        prof = self._profiler_with([("X.y", 1e-9)])
        assert prof.collapsed_stacks() == ["X;y 1"]

    def test_round_trip_is_exact(self):
        prof = self._profiler_with([("Link.transmit", 0.0025),
                                    ("SussCubic._pacing_tick", 0.0103),
                                    ("Host.receive", 0.0001)])
        lines = prof.collapsed_stacks()
        parsed = obs_profile.parse_collapsed(lines)
        assert parsed == {"Link.transmit": 2500,
                          "SussCubic._pacing_tick": 10300,
                          "Host.receive": 100}
        # re-folding the parsed counts reproduces the lines verbatim
        refolded = [f"{k.replace('.', ';')} {v}"
                    for k, v in sorted(parsed.items())]
        assert refolded == lines

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            obs_profile.parse_collapsed(["nospacehere"])
        with pytest.raises(ValueError):
            obs_profile.parse_collapsed(["Frame;x notanint"])
