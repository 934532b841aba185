"""Tests for repro.obs.runtime — spans, resource accounting, totals.

The run's one observer must (a) keep span lineage across retries,
(b) keep its running totals correct, (c) emit every span as a
``campaign.span`` trace record when an Observability hub is attached,
(d) hand the ledger a JSON-serialisable execution record, and
(e) narrate the run and answer ``stats()`` from the same spans, at a
per-span cost that does not grow with the run.
"""

import io
import json
import time
import types

import pytest

from repro.obs import tracing
from repro.obs.records import CAMPAIGN_SPAN
from repro.obs.runtime import (
    RunTelemetry,
    add_engine_events,
    add_flows_modelled,
    counters,
    resource_delta,
    sample_resources,
)
from repro.obs.sinks import MemorySink

HASH_A = "a" * 64
HASH_B = "b" * 64


def _result(job_hash, kind="single_flow", label="job", value=None):
    """Duck-typed CampaignResult: spec.{job_hash,kind,label} + value."""
    spec = types.SimpleNamespace(job_hash=job_hash, kind=kind, label=label)
    return types.SimpleNamespace(spec=spec, value=value or {"x": 1})


class TestProcessCounters:
    def test_add_accumulates(self):
        before = counters.engine_events
        add_engine_events(100)
        add_engine_events(23)
        assert counters.engine_events == before + 123

    def test_flows_counter_independent(self):
        before = counters.flows_modelled
        add_flows_modelled(7)
        assert counters.flows_modelled == before + 7


class TestResourceSampling:
    def test_sample_fields(self):
        sample = sample_resources()
        assert sample.cpu_user >= 0.0
        assert sample.max_rss_kb > 0  # Linux always reports ru_maxrss

    def test_delta_counts_work_between_samples(self):
        before = sample_resources()
        add_engine_events(50)
        delta = resource_delta(before, sample_resources())
        assert delta["engine_events"] == 50
        assert delta["cpu_user"] >= 0.0
        # RSS is a high-water mark, reported absolute, never differenced.
        assert delta["max_rss_kb"] >= before.max_rss_kb

    def test_delta_clamps_cpu_at_zero(self):
        sample = sample_resources()
        delta = resource_delta(sample, sample)
        assert delta["cpu_user"] == 0.0 and delta["cpu_system"] == 0.0


class TestSpans:
    def test_span_id_and_shape(self):
        t = RunTelemetry()
        t.start(total=1)
        span = t.record_span(HASH_A, "single_flow", "lbl", status="ok",
                             attempt=1, worker=42, queue_wait=0.25,
                             exec_time=1.5)
        assert span.span_id == f"{HASH_A[:12]}#1"
        d = span.to_dict()
        assert d["span"] == span.span_id
        assert d["worker"] == 42
        assert d["queue_wait"] == 0.25 and d["exec"] == 1.5
        assert "retry_of" not in d and "error" not in d

    def test_retry_lineage_chains_attempts(self):
        t = RunTelemetry()
        t.start(total=1)
        first = t.record_span(HASH_A, "single_flow", "lbl", status="retry",
                              attempt=1, exec_time=0.5, error="boom")
        second = t.record_span(HASH_A, "single_flow", "lbl", status="ok",
                               attempt=2, exec_time=0.4)
        assert first.retry_of is None
        assert second.retry_of == first.span_id
        # a different job's span does not inherit the chain
        other = t.record_span(HASH_B, "single_flow", "o", status="ok",
                              attempt=1)
        assert other.retry_of is None

    def test_spans_emitted_as_trace_records(self):
        sink = MemorySink()
        t = RunTelemetry(obs=tracing(sink))
        t.start(total=1)
        t.record_span(HASH_A, "single_flow", "lbl", status="ok", attempt=1)
        kinds = [r.kind for r in sink.records]
        assert kinds == [CAMPAIGN_SPAN]
        assert sink.records[0].fields["hash"] == HASH_A


class TestAggregation:
    def test_outcome_counters(self):
        t = RunTelemetry()
        t.start(total=4)
        t.record_span(HASH_A, "a", "1", status="ok", cached=True)
        t.record_span(HASH_B, "a", "2", status="ok", attempt=1,
                      exec_time=1.0)
        t.record_span("c" * 64, "b", "3", status="retry", attempt=1,
                      exec_time=0.5)
        t.record_span("c" * 64, "b", "3", status="failed", attempt=2,
                      exec_time=0.5, error="x")
        assert (t.cached, t.executed, t.failed, t.retries) == (1, 1, 1, 1)
        assert t.done == 3                       # retry is not a done job
        assert t.retry_seconds == 0.5
        # exec_total: ok 1.0 + failed 0.5; retry time lives in
        # retry_seconds only, cached spans add nothing.
        assert t.exec_total == pytest.approx(1.5)

    def test_cached_spans_spend_no_exec_time(self):
        """A hit carries the stored run's exec time for the narration
        and ``stats()``, but spent none now: it stays out of the exec
        total and the lane's busy time."""
        t = RunTelemetry()
        t.start(total=2)
        t.record_span(HASH_A, "a", "1", status="ok", cached=True,
                      exec_time=0.5)
        t.record_span(HASH_B, "a", "2", status="ok", attempt=1,
                      exec_time=0.02)
        snap = t.snapshot()
        assert t.exec_total == 0.02
        assert snap["lanes"]["inline"]["busy"] == pytest.approx(0.02)
        assert snap["lanes"]["inline"]["jobs"] == 2

    def test_eta_charges_retry_time_to_executed_jobs(self):
        """Regression for ETA drift under retries: a retried job's lost
        time must raise the per-job mean, and finished jobs (including
        the failed ones) must leave the remaining count."""
        t = RunTelemetry()
        t.start(total=4, workers=2)
        assert t.eta is None                     # nothing executed yet
        t.record_span(HASH_A, "a", "1", status="retry", attempt=1,
                      exec_time=1.0)
        t.record_span(HASH_A, "a", "1", status="ok", attempt=2,
                      exec_time=1.0)
        # mean = (exec 1.0 + retry 1.0) / 1 executed; 3 remain on 2 lanes
        assert t.eta == pytest.approx(2.0 * 3 / 2)

    def test_lane_accounting(self):
        t = RunTelemetry()
        t.start(total=3)
        t.record_span(HASH_A, "a", "one", status="ok", attempt=1,
                      worker=10, exec_time=1.0)
        t.record_span(HASH_B, "a", "two", status="ok", attempt=1,
                      worker=10, exec_time=2.0)
        t.record_span("c" * 64, "a", "three", status="ok", attempt=1)
        lanes = t.snapshot()["lanes"]
        assert lanes["10"]["jobs"] == 2
        assert lanes["10"]["busy"] == pytest.approx(3.0)
        assert lanes["inline"]["jobs"] == 1
        assert set(lanes["10"]) == {"jobs", "busy"}

    def test_worker_resources_absorbed(self):
        t = RunTelemetry()
        t.start(total=2)
        t.record_span(HASH_A, "a", "1", status="ok", attempt=1,
                      resources={"cpu_user": 1.5, "cpu_system": 0.5,
                                 "max_rss_kb": 1000, "engine_events": 10,
                                 "flows_modelled": 0})
        t.record_span(HASH_B, "a", "2", status="ok", attempt=1,
                      resources={"cpu_user": 0.5, "cpu_system": 0.0,
                                 "max_rss_kb": 900, "engine_events": 5,
                                 "flows_modelled": 3})
        res = t.snapshot()["resources"]
        assert res["cpu_user"] == pytest.approx(2.0)
        assert res["max_rss_kb"] == 1000        # high-water, not a sum
        assert res["engine_events"] == 15
        assert res["flows_modelled"] == 3


class TestNarration:
    """The stderr view: same lines the campaign reporter used to print."""

    def _run(self, **kwargs):
        t = RunTelemetry(stream=io.StringIO(), **kwargs)
        t.start(total=4, workers=2)
        return t

    def test_line_formats(self):
        t = self._run()
        t.record_span(HASH_A, "k", "hit", status="ok", cached=True,
                      exec_time=0.1)
        t.record_span(HASH_B, "k", "flaky", status="retry", attempt=1,
                      exec_time=0.5, error="boom")
        t.record_span(HASH_B, "k", "flaky", status="ok", attempt=2,
                      exec_time=1.5)
        t.record_span("c" * 64, "k", "dead", status="failed", attempt=3,
                      error="gave up")
        t.record_span("d" * 64, "k", "last", status="ok", attempt=1,
                      exec_time=1.0)
        t.complete([])
        lines = t.stream.getvalue().splitlines()
        assert lines[:-1] == [
            "campaign: 4 jobs on 2 worker(s)",
            "[1/4] cached hit (0.10s)",
            "[1/4] retry  flaky (0.50s) — boom",
            # mean cost (1.5 exec + 0.5 retry) / 1, 2 left on 2 workers
            "[2/4] ok     flaky (1.50s) | eta 2s",
            "[3/4] failed dead (0.00s) — gave up | eta 1s",
            "[4/4] ok     last (1.00s)",
        ]
        assert lines[-1].startswith(
            "campaign done: executed=2 cached=1 failed=1 elapsed=")

    def test_throttle_keeps_failures_retries_and_the_last_job(self):
        t = self._run(min_interval=3600.0)
        t.record_span(HASH_A, "k", "quiet-1", status="ok", attempt=1)
        t.record_span(HASH_B, "k", "loud", status="retry", attempt=1,
                      error="x")
        t.record_span(HASH_B, "k", "loud", status="failed", attempt=2,
                      error="x")
        t.record_span("c" * 64, "k", "quiet-2", status="ok", attempt=1)
        t.record_span("d" * 64, "k", "last", status="ok", attempt=1)
        t.complete([])
        out = t.stream.getvalue()
        assert "quiet-1" not in out and "quiet-2" not in out
        assert "retry  loud" in out and "failed loud" in out
        assert "[4/4] ok     last" in out
        assert "campaign done:" in out

    def test_no_stream_prints_nothing(self, capsys):
        t = RunTelemetry()
        t.start(total=1)
        t.record_span(HASH_A, "k", "x", status="failed", attempt=1)
        t.complete([])
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


class TestStats:
    def test_key_set_and_records_from_non_retry_spans(self):
        t = RunTelemetry()
        t.start(total=2)
        t.record_span(HASH_A, "k", "hit", status="ok", cached=True,
                      exec_time=0.25)
        t.record_span(HASH_B, "k", "flaky", status="retry", attempt=1,
                      exec_time=0.5, error="boom")
        t.record_span(HASH_B, "k", "flaky", status="failed", attempt=2,
                      error="boom")
        stats = t.stats()
        assert set(stats) == {"total", "executed", "cached", "failed",
                              "retries", "elapsed", "job_records"}
        assert (stats["total"], stats["executed"], stats["cached"],
                stats["failed"], stats["retries"]) == (2, 0, 1, 1, 1)
        assert stats["job_records"] == [
            {"label": "hit", "status": "ok", "runtime": 0.25,
             "cached": True, "attempts": 0, "hash": HASH_A},
            {"label": "flaky", "status": "failed", "runtime": 0.0,
             "cached": False, "attempts": 2, "hash": HASH_B,
             "error": "boom"},
        ]
        json.dumps(stats)

    def test_elapsed_stops_at_complete(self):
        t = RunTelemetry()
        assert t.elapsed == 0.0 and not t.finished
        t.start(total=0)
        t.complete([])
        assert t.finished
        assert t.stats()["elapsed"] == t.elapsed == t.stats()["elapsed"]
        t.start(total=0)                          # reuse reopens the run
        assert not t.finished


def _per_span_seconds(spans: int) -> float:
    """CPU seconds per ``record_span`` (+ the ETA read the narration
    makes) over a run of ``spans`` jobs, best of 5."""
    best = float("inf")
    for _ in range(5):
        t = RunTelemetry()
        t.start(total=spans)
        started = time.process_time()
        for i in range(spans):
            t.record_span(f"{i:064x}", "k", "job", status="ok", attempt=1,
                          exec_time=0.01)
            t.eta
        best = min(best, time.process_time() - started)
        assert t.executed == spans
    return best / spans


def test_per_span_cost_does_not_grow_with_the_run():
    """Summing a per-job list on every outcome (what the old reporter's
    ETA did) costs ~20x more per job at 20x the jobs; running totals
    must stay flat."""
    small = _per_span_seconds(500)
    large = _per_span_seconds(10_000)
    assert large / small < 3, (small, large)


class TestComplete:
    def test_captures_spec_order_and_finishes(self):
        t = RunTelemetry()
        t.start(total=2)
        results = [_result(HASH_A, label="first", value={"v": 1}),
                   _result(HASH_B, label="second", value={"v": 2})]
        t.complete(results)
        assert [j["hash"] for j in t.jobs] == [HASH_A, HASH_B]
        assert t.values == [{"v": 1}, {"v": 2}]
        assert t.finished and t.snapshot()["finished"] is True

    def test_execution_record_shape(self):
        t = RunTelemetry()
        t.start(total=1)
        t.record_span(HASH_A, "a", "1", status="ok", attempt=1)
        record = t.execution_record()
        assert set(record) == {"status", "spans"}
        assert record["status"]["schema"] == 1
        # what ``repro report`` reads, and nothing the retired
        # live-status frame drew
        assert set(record["status"]) == {
            "schema", "tool", "finished", "total", "executed", "cached",
            "failed", "retries", "elapsed", "cache_ratio", "throughput",
            "retry_seconds", "lanes", "resources"}
        assert record["spans"][0]["hash"] == HASH_A
        json.dumps(record)                        # JSON-serialisable
