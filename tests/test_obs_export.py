"""Tests for repro.obs.export — OpenMetrics exposition and repro top.

Checks the OpenMetrics text-format contract (``# TYPE`` lines, counter
``_total`` suffix, cumulative histogram buckets, terminating ``# EOF``),
the snapshot → exposition rendering (live and from ``status.json``) and
the dashboard renderer.
"""

import json
from pathlib import Path

import pytest

from repro.obs.export import metric_name, render_openmetrics, render_top
from repro.obs.runtime import RunTelemetry


def _status(**overrides):
    t = RunTelemetry(tool="campaign")
    t.start(total=4, workers=2)
    t.record_span("a" * 64, "single_flow", "one", status="ok", attempt=1,
                  worker=11, queue_wait=0.1, exec_time=1.0,
                  resources={"cpu_user": 0.5, "cpu_system": 0.1,
                             "max_rss_kb": 2048, "engine_events": 1000,
                             "flows_modelled": 0})
    t.record_span("b" * 64, "single_flow", "two", status="ok", cached=True)
    status = t.snapshot()
    status.update(overrides)
    return status


class TestRenderOpenMetrics:
    def test_name_sanitisation(self):
        assert metric_name("run.queue_wait") == "repro_run_queue_wait"
        assert metric_name("weird name!") == "repro_weird_name_"

    def test_counter_gauge_histogram_families(self):
        text = render_openmetrics({
            "executed": 3, "total": 5, "span_buckets": [0.1, 1.0],
            # one attempt of 0.05 s, one of 0.5 s
            "exec_buckets": [1, 1, 0], "exec_total": 0.55,
            "retry_seconds": 0.0,
            "queue_wait_buckets": [2, 0, 0], "queue_wait_total": 0.0})
        lines = text.splitlines()
        assert '# TYPE repro_run_jobs counter' in lines
        assert 'repro_run_jobs_total{status="executed"} 3' in lines
        assert 'repro_run_total 5' in lines
        # cumulative buckets: 1 under 0.1, 2 under 1.0 and +Inf
        assert 'repro_run_exec_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_run_exec_seconds_bucket{le="1"} 2' in lines
        assert 'repro_run_exec_seconds_bucket{le="+Inf"} 2' in lines
        assert 'repro_run_exec_seconds_count 2' in lines
        assert text.endswith("# EOF\n")

    def test_unset_gauges_are_skipped(self):
        text = render_openmetrics({"elapsed": None})
        samples = [l for l in text.splitlines()
                   if l.startswith("repro_run_elapsed_seconds")]
        assert samples == []
        assert "# TYPE repro_run_elapsed_seconds gauge" in text

    def test_label_escaping(self):
        text = render_openmetrics({"by_kind": {'sa"id\nso': 1}})
        assert r'kind="sa\"id\nso"' in text

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            render_openmetrics({"elapsed": float("inf")})


class TestStatusRegistry:
    def test_reconstruction_round_trip(self):
        status = _status()
        text = render_openmetrics(status)
        assert 'repro_run_jobs_total{status="executed"} 1' in text
        assert 'repro_run_jobs_total{status="cached"} 1' in text
        assert "repro_run_engine_events_total 1000" in text
        assert "repro_run_max_rss_kb 2048" in text
        assert 'repro_run_lane_jobs{worker="11"} 1' in text
        assert text.endswith("# EOF\n")

    def test_none_gauges_absent(self):
        status = _status(eta=None, throughput=None)
        text = render_openmetrics(status)
        assert "repro_run_eta_seconds " not in text

    def test_span_histograms_travel_in_the_snapshot(self):
        """One span of 0.1 s wait / 1.0 s exec; the cached one stays out."""
        lines = render_openmetrics(_status()).splitlines()
        assert "# TYPE repro_run_queue_wait histogram" in lines
        assert 'repro_run_queue_wait_bucket{le="0.03"} 0' in lines
        assert 'repro_run_queue_wait_bucket{le="0.1"} 1' in lines
        assert "repro_run_queue_wait_sum 0.1" in lines
        assert 'repro_run_exec_seconds_bucket{le="0.3"} 0' in lines
        assert 'repro_run_exec_seconds_bucket{le="1"} 1' in lines
        assert 'repro_run_exec_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_run_exec_seconds_count 1" in lines

    def test_snapshot_without_buckets_still_renders(self):
        status = _status()
        for key in ("span_buckets", "queue_wait_buckets", "exec_buckets"):
            del status[key]
        text = render_openmetrics(status)
        assert "repro_run_exec_seconds" not in text
        assert 'repro_run_jobs_total{status="executed"} 1' in text

    def test_live_and_status_file_views_agree(self, tmp_path):
        """The collector's live snapshot and the one ``repro top
        --metrics-out`` reads from ``status.json`` render the same
        families and samples after a finished run."""
        path = tmp_path / "status.json"
        t = RunTelemetry(status_path=str(path))
        t.start(total=3, workers=2)
        t.record_span("a" * 64, "single_flow", "one", status="retry",
                      attempt=1, worker=11, exec_time=0.2, error="boom")
        t.record_span("a" * 64, "single_flow", "one", status="ok",
                      attempt=2, worker=11, queue_wait=0.004, exec_time=1.0,
                      resources={"cpu_user": 0.5, "cpu_system": 0.1,
                                 "max_rss_kb": 2048, "engine_events": 1000,
                                 "flows_modelled": 7})
        t.record_span("b" * 64, "topo_flow", "two", status="ok",
                      cached=True, exec_time=0.3)
        t.record_span("c" * 64, "topo_flow", "three", status="failed",
                      attempt=1, worker=12, error="gave up")
        t.complete([])
        live = render_openmetrics(t.snapshot())
        from_file = render_openmetrics(json.loads(path.read_text()))
        assert live == from_file
        families = {line.split()[2] for line in live.splitlines()
                    if line.startswith("# TYPE")}
        assert {"repro_run_finished", "repro_run_lane_jobs",
                "repro_run_lane_busy_seconds", "repro_run_queue_wait",
                "repro_run_exec_seconds", "repro_run_eta_seconds",
                "repro_run_jobs_by_kind"} <= families
        assert "repro_run_finished 1" in live
        assert "repro_run_exec_seconds_count 3" in live   # cached stays out


class TestGoldenExposition:
    def test_committed_snapshot_renders_the_committed_text(self):
        """A finished two-worker run (one retry, one cache hit, one
        failure, two job kinds) kept as a ``status.json`` file, and the
        exposition text it must render to, byte for byte."""
        golden = Path(__file__).parent / "golden"
        status = json.loads((golden / "openmetrics_status.json").read_text())
        assert render_openmetrics(status) == \
            (golden / "openmetrics_status.txt").read_text()


class TestRenderTop:
    def test_frame_contents(self):
        frame = render_top(_status())
        assert "repro top — campaign [running]" in frame
        assert "2/4 (50%)" in frame
        assert "exec 1" in frame and "cache 1" in frame
        assert "engine 1.0kev" in frame
        assert "single_flow:2" in frame
        assert "pid 11" in frame and "inline" in frame

    def test_finished_state_and_width(self):
        frame = render_top(_status(finished=True), width=60)
        assert "[complete]" in frame
        assert all(len(line) <= 60 for line in frame.splitlines())

    def test_empty_status_renders(self):
        frame = render_top({"tool": "campaign", "total": 0})
        assert "0/0" in frame
