"""Tests for the ``repro.campaign`` subsystem.

Covers the hard guarantees: stable content hashing, cache hit/miss and
corruption handling, resume-after-interrupt, bounded retries on injected
failures and real worker crashes, per-job timeouts, and byte-identical
summaries at any ``--jobs`` level.
"""

import io

import pytest

from repro.campaign import (
    JobSpec,
    ResultStore,
    code_fingerprint,
    collect_values,
    execute_job,
    flowsim_sweep_job,
    run_campaign,
    single_flow_job,
    stability_job,
)
from repro.experiments import fig17_18_all_scenarios
from repro.experiments.runner import (
    fct_summary,
    loss_rate_summary,
    run_single_flow,
    sweep_summaries,
)
from repro.obs.runtime import RunTelemetry
from repro.workloads import get_scenario
from repro.workloads.scenarios import PathScenario

import dataclasses

SCENARIO = get_scenario("google-tokyo", "wired")
SIZE = 400_000


@pytest.fixture(autouse=True)
def _pinned_fingerprint(monkeypatch):
    """Skip source-tree hashing in tests; one fixed cache generation."""
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "test-fingerprint")


def spec_for(seed: int, size: int = SIZE, **kwargs) -> JobSpec:
    return single_flow_job(SCENARIO, "cubic", size, seed=seed, **kwargs)


def observed(specs, **kwargs):
    """Run a campaign; return ``(results, counts)`` where ``counts`` are
    the observer's — the numbers ``repro campaign`` prints and writes to
    ``--stats-json``."""
    telemetry = RunTelemetry()
    results = run_campaign(specs, telemetry=telemetry, **kwargs)
    stats = telemetry.stats()
    return results, {key: stats[key]
                     for key in ("total", "executed", "cached", "failed")}


class TestJobSpec:
    def test_hash_is_stable(self):
        assert spec_for(1).job_hash == spec_for(1).job_hash

    def test_hash_covers_params(self):
        base = spec_for(1)
        assert base.job_hash != spec_for(2).job_hash
        assert base.job_hash != spec_for(1, size=SIZE + 1).job_hash
        other_cc = single_flow_job(SCENARIO, "cubic+suss", SIZE, seed=1)
        assert base.job_hash != other_cc.job_hash

    def test_label_excluded_from_hash(self):
        a = spec_for(1)
        b = JobSpec(kind=a.kind, params=a.params, label="renamed")
        assert a.job_hash == b.job_hash

    def test_scenario_embedded_by_value(self):
        custom = dataclasses.replace(SCENARIO, name="custom", rtt=0.123)
        spec = single_flow_job(custom, "cubic", SIZE, seed=0)
        assert spec.job_hash != spec_for(0).job_hash
        rebuilt = PathScenario(**spec.params["scenario"])
        assert rebuilt == custom

    @pytest.mark.parametrize("build, job_hash", [
        (lambda: single_flow_job("google-tokyo/wired", "cubic+suss",
                                 2_000_000, seed=3),
         "48b839a077854368070a88d61dc159d71a21fe5c29fdc1646c7a1b0b63ef2b20"),
        (lambda: single_flow_job("google-tokyo/wired", "cubic+suss",
                                 2_000_000, seed=3, trace_digest=True),
         "34de8283787474d40e8f47b299befb4e94c75ce6b0933e21b72f07df7895fe97"),
        (lambda: spec_for(1, trace_digest=True),
         "81361f54488abbd750bb9d77c10697490d1a225980050844940fe555c5441299"),
        (lambda: flowsim_sweep_job({"rtt": 0.04, "btl_bw": 2_500_000},
                                   1_000_000, seed=1),
         "b1461a95424ea2487097e6a74a0127b5759595336c115f08c21bb666ac387357"),
    ], ids=["packet", "packet-traced", "packet-traced-small", "sweep"])
    def test_job_hash_is_pinned(self, build, job_hash):
        """Every cached result is addressed by its job hash, so these
        literals may only change together with a store migration."""
        assert build().job_hash == job_hash

    def test_roundtrip_json(self):
        spec = spec_for(3)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(KeyError):
            single_flow_job("nowhere/wired", "cubic", SIZE)

    def test_code_fingerprint_env_override(self):
        assert code_fingerprint() == "test-fingerprint"


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [spec_for(0), spec_for(1)]
        first, counts = observed(specs, store=store)
        assert counts == {"total": 2, "executed": 2, "cached": 0,
                          "failed": 0}
        second, counts = observed(specs, store=store)
        assert counts == {"total": 2, "executed": 0, "cached": 2,
                          "failed": 0}
        assert collect_values(second) == collect_values(first)

    def test_corrupt_record_degrades_to_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_for(0)
        first = run_campaign([spec], store=store)
        store.path_for(spec.job_hash).write_text("{not json", encoding="utf-8")
        second, counts = observed([spec], store=store)
        assert counts["executed"] == 1
        assert collect_values(second) == collect_values(first)

    def test_failures_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_for(0, knobs={"_fail_attempts": 99})
        results = run_campaign([spec], store=store, retries=0)
        assert not results[0].ok
        assert len(store) == 0

    def test_resume_after_interrupt(self, tmp_path):
        """A campaign killed partway resumes from the store: completed
        jobs come back as cache hits, only the remainder executes."""
        store = ResultStore(tmp_path)
        specs = [spec_for(seed) for seed in range(4)]
        run_campaign(specs[:2], store=store)  # the "interrupted" first run
        resumed, counts = observed(specs, store=store)
        assert counts == {"total": 4, "executed": 2, "cached": 2,
                          "failed": 0}
        fresh = run_campaign(specs)  # no store: everything recomputed
        assert collect_values(resumed) == collect_values(fresh)

    def test_fingerprint_partitions_generations(self, tmp_path):
        old = ResultStore(tmp_path, fingerprint="a" * 64)
        new = ResultStore(tmp_path, fingerprint="b" * 64)
        run_campaign([spec_for(0)], store=old)
        assert len(old) == 1 and len(new) == 0
        assert observed([spec_for(0)], store=new)[1]["executed"] == 1


class TestFaultTolerance:
    def test_retry_on_injected_failure(self):
        spec = spec_for(0, knobs={"_fail_attempts": 1})
        results = run_campaign([spec], retries=1)
        assert results[0].ok and results[0].attempts == 2

    def test_retries_are_bounded(self):
        spec = spec_for(0, knobs={"_fail_attempts": 99})
        results = run_campaign([spec], retries=2)
        assert not results[0].ok
        assert results[0].attempts == 3
        assert "injected failure" in results[0].error
        with pytest.raises(RuntimeError, match="injected failure"):
            collect_values(results)

    def test_retry_on_worker_crash(self):
        """A hard worker death (os._exit) breaks the pool; the scheduler
        rebuilds it and retries both the crashed and the in-flight jobs."""
        crashing = spec_for(0, knobs={"_crash_attempts": 1})
        innocent = spec_for(1)
        results = run_campaign([crashing, innocent], jobs=2, retries=2)
        assert all(r.ok for r in results)
        assert results[0].attempts >= 2
        assert collect_values(results)[1]["fct"] == \
            run_single_flow(SCENARIO, "cubic", SIZE, seed=1).fct

    def test_crash_without_retry_budget_fails(self):
        spec = spec_for(0, knobs={"_crash_attempts": 99})
        results = run_campaign([spec], jobs=2, retries=1)
        assert not results[0].ok
        assert "crash" in results[0].error or "broke" in results[0].error

    @pytest.mark.parametrize("kwargs, message", [
        ({"retries": -1}, "retries must be >= 0"),
        ({"timeout": 0.0}, "timeout must be > 0"),
        ({"timeout": -1.0}, "timeout must be > 0"),
        ({"timeout": float("nan")}, "timeout must be > 0")])
    def test_out_of_range_budgets_are_refused_before_any_job(
            self, kwargs, message):
        telemetry = RunTelemetry()
        with pytest.raises(ValueError, match=message):
            run_campaign([spec_for(0)], telemetry=telemetry, **kwargs)
        assert telemetry.stats()["total"] == 0

    def test_per_job_timeout(self):
        spec = spec_for(0, knobs={"_sleep": 5.0})
        results = run_campaign([spec], timeout=0.2, retries=0)
        assert not results[0].ok
        assert "timeout" in results[0].error.lower()

    def test_a_swallowed_alarm_fires_again(self, monkeypatch):
        """CPython reports an exception raised inside ``__del__`` (or a GC
        or weakref callback) as unraisable and drops it; an alarm that
        lands there must not leave the job running with no limit."""
        import sys
        import time
        from repro.campaign.jobs import _wall_clock_limit

        # The swallowed TimeoutError is the point, so nobody needs telling.
        # pytest's hook is slow the first time (it imports tracemalloc):
        # on a busy box the alarm, re-armed every 50 ms by design, lands
        # inside it, and pytest fails the test for its own hook's sake.
        monkeypatch.setattr(sys, "unraisablehook", lambda unraisable: None)

        def spin(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        class SlowToDie:
            def __del__(self):
                spin(0.05)  # the 10 ms alarm lands in here

        started = time.perf_counter()
        with pytest.raises(TimeoutError):
            with _wall_clock_limit(0.01):
                victim = SlowToDie()
                del victim
                spin(1.0)
        assert time.perf_counter() - started < 0.5


class TestDeterminism:
    def test_results_in_spec_order_at_any_jobs_level(self):
        specs = [spec_for(seed) for seed in range(4)]
        serial = collect_values(run_campaign(specs, jobs=1))
        parallel = collect_values(run_campaign(specs, jobs=4))
        assert serial == parallel
        assert [v["seed"] for v in serial] == [0, 1, 2, 3]

    def test_matrix_reports_byte_identical_jobs1_vs_jobs4(self):
        kwargs = dict(servers=("google-tokyo",), links=("wired", "wifi"),
                      sizes=(SIZE,), iterations=2)
        rows1 = fig17_18_all_scenarios.run(jobs=1, **kwargs)
        rows4 = fig17_18_all_scenarios.run(jobs=4, **kwargs)
        assert fig17_18_all_scenarios.format_report(rows1) == \
            fig17_18_all_scenarios.format_report(rows4)


class TestRunnerIntegration:
    def test_fct_summary_matches_direct_runs(self):
        summary = fct_summary(SCENARIO, "cubic", SIZE, iterations=2)
        direct = [run_single_flow(SCENARIO, "cubic", SIZE, seed=i).fct
                  for i in range(2)]
        assert summary.mean == sum(direct) / 2

    def test_sweep_summaries_match_fct_summary(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = sweep_summaries(SCENARIO, ("cubic", "cubic+suss"), (SIZE,),
                                iterations=2, jobs=2, store=store)
        for cc in ("cubic", "cubic+suss"):
            assert sweep[(cc, SIZE)] == fct_summary(SCENARIO, cc, SIZE,
                                                    iterations=2)
        # The sweep warmed the cache for the equivalent per-cell call.
        telemetry = RunTelemetry()
        fct_summary(SCENARIO, "cubic", SIZE, iterations=2, store=store,
                    telemetry=telemetry)
        assert telemetry.stats()["cached"] == 2

    def test_loss_rate_summary_flags_incomplete_flows(self):
        # 60% random loss stalls the transfer far past its deadline, so
        # the flow never completes; the summary must raise (matching
        # fct_summary) instead of averaging a partial-transfer loss rate.
        lossy = dataclasses.replace(SCENARIO, name="lossy-test",
                                    loss_rate=0.6)
        with pytest.raises(RuntimeError, match="did not complete"):
            loss_rate_summary(lossy, "cubic", SIZE, iterations=1)
        with pytest.raises(RuntimeError, match="did not complete"):
            fct_summary(lossy, "cubic", SIZE, iterations=1)

    def test_stability_job_roundtrip(self):
        spec = stability_job("cubic", 1.0, 0.05, True, 4_000_000, 500_000,
                             4, 50.0, 20.0, 0,
                             (0.05, 0.030, 0.060, 0.120, 0.200))
        results = run_campaign([spec])
        value = collect_values(results)[0]
        assert value["n_small_done"] > 0
        assert value["small_fct_mean"] > 0


class TestRunNarration:
    """The scheduler's one observer narrates and counts the run (the
    line formats, throttling and ETA cases are pinned on the collector
    itself in ``tests/test_obs_runtime.py``)."""

    def test_counts_and_stream_output(self, tmp_path):
        stream = io.StringIO()
        telemetry = RunTelemetry(stream=stream)
        store = ResultStore(tmp_path)
        run_campaign([spec_for(0)], store=store, telemetry=telemetry)
        stats = telemetry.stats()
        assert stats["executed"] == 1 and stats["failed"] == 0
        out = stream.getvalue()
        assert "campaign done" in out and "executed=1" in out

    def test_quiet_reporter_still_counts(self):
        telemetry = RunTelemetry(stream=None)
        run_campaign([spec_for(0, knobs={"_fail_attempts": 99})],
                     retries=0, telemetry=telemetry)
        assert telemetry.stats()["failed"] == 1

    def test_default_observer_is_silent(self, capsys):
        run_campaign([spec_for(0)])
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_retries_are_narrated_and_counted_once(self):
        stream = io.StringIO()
        telemetry = RunTelemetry(stream=stream)
        run_campaign([spec_for(0, knobs={"_fail_attempts": 1})], retries=1,
                     telemetry=telemetry)
        stats = telemetry.stats()
        assert (stats["retries"], stats["executed"]) == (1, 1)
        (record,) = stats["job_records"]      # the retry is not a job
        assert record["attempts"] == 2
        lines = stream.getvalue().splitlines()
        assert len([l for l in lines if "] retry " in l]) == 1
        assert len([l for l in lines if "] ok " in l]) == 1


class TestFlowsimJobs:
    """The analytical fidelity tier as campaign work: the
    ``flowsim_sweep`` kind."""

    PATH = {"rtt": 0.04, "btl_bw": 2_500_000}

    def test_sweep_job_roundtrip_and_determinism(self):
        spec = flowsim_sweep_job(self.PATH, 400, seed=5)
        value = execute_job(spec.to_json(), attempt=1)["value"]
        assert value["flows"] == 400
        assert value["seed"] == 5
        assert value["models"]["csa00"]["n"] == 400
        assert value["improvement"] >= 0.0
        again = execute_job(spec.to_json(), attempt=1)["value"]
        assert again == value
        with pytest.raises(ValueError):
            flowsim_sweep_job(self.PATH, 0)


class TestCacheHitRecords:
    """Cache hits are first-class telemetry: job records and trace
    records carry ``cached=True`` plus the job's content hash, so a
    warm run is as auditable as a cold one."""

    def test_cached_records_carry_hash_and_flag(self, tmp_path):
        from repro.obs.sinks import MemorySink
        from repro.obs.tracer import tracing
        from repro.obs import records as obsrec

        store = ResultStore(tmp_path)
        spec = spec_for(0)
        (cold,) = run_campaign([spec], store=store)
        sink = MemorySink()
        telemetry = RunTelemetry(obs=tracing(sink))
        run_campaign([spec], store=store, telemetry=telemetry)
        (record,) = telemetry.stats()["job_records"]
        assert record["cached"] is True
        assert record["status"] == "ok"
        assert record["hash"] == spec.job_hash
        # a hit reports the stored run's time and spends no attempt
        assert record["runtime"] == cold.runtime > 0.0
        assert record["attempts"] == 0
        (trace,) = sink.by_kind(obsrec.CAMPAIGN_SPAN)
        assert trace.fields["cached"] is True
        assert trace.fields["hash"] == spec.job_hash

    def test_executed_records_also_carry_hash(self):
        telemetry = RunTelemetry()
        spec = spec_for(1)
        run_campaign([spec], telemetry=telemetry)
        (record,) = telemetry.stats()["job_records"]
        assert record["cached"] is False
        assert record["hash"] == spec.job_hash

    def test_job_records_jobs1_equals_jobsN(self, tmp_path):
        """The digest view of a run (hash, status, cached) is identical
        at any parallelism; only wall-clock fields may differ."""
        specs = [spec_for(seed) for seed in range(4)]

        def digest(jobs):
            telemetry = RunTelemetry()
            run_campaign(specs, jobs=jobs, telemetry=telemetry)
            return sorted((r["hash"], r["status"], r["cached"])
                          for r in telemetry.stats()["job_records"])

        assert digest(1) == digest(4)

    def test_warm_run_digest_matches_cold(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [spec_for(seed) for seed in range(3)]

        def digest(results):
            return sorted((r.spec.job_hash, r.status) for r in results)

        cold = run_campaign(specs, store=store)
        warm, counts = observed(specs, store=store)
        assert digest(cold) == digest(warm)
        assert counts["cached"] == 3


class TestEtaUnderRetries:
    def test_eta_never_negative_with_stragglers(self):
        telemetry = RunTelemetry()
        telemetry.start(total=1, workers=1)
        for job_hash in ("a" * 64, "b" * 64):     # "b": a late extra job
            telemetry.record_span(job_hash, "k", "job", status="ok",
                                  attempt=1, exec_time=1.0)
        assert telemetry.eta == 0.0

    def test_retry_is_not_a_done_job(self):
        telemetry = RunTelemetry(stream=io.StringIO())
        telemetry.start(total=2, workers=1)
        telemetry.record_span("a" * 64, "k", "flaky", status="retry",
                              attempt=1, exec_time=0.5)
        assert telemetry.done == 0
        out = telemetry.stream.getvalue()
        assert "retry" in out and "flaky" in out


class TestSchedulerTelemetry:
    def _telemetry(self):
        from repro.obs.runtime import RunTelemetry
        return RunTelemetry()

    def test_spans_for_cached_and_executed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_for(0)
        t = self._telemetry()
        run_campaign([spec], store=store, telemetry=t)
        (span,) = t.spans
        assert (span.status, span.cached) == ("ok", False)
        assert span.worker is not None          # worker pid travels back
        assert span.resources["engine_events"] > 0
        warm = self._telemetry()
        results = run_campaign([spec], store=store, telemetry=warm)
        (span,) = warm.spans
        assert (span.status, span.cached) == ("ok", True)
        warm.complete(results)
        assert warm.jobs == [{"hash": spec.job_hash, "kind": spec.kind,
                              "label": spec.label}]

    def test_retry_spans_chain_lineage(self):
        spec = spec_for(0, knobs={"_fail_attempts": 1})
        t = self._telemetry()
        run_campaign([spec], retries=1, telemetry=t)
        retry, ok = t.spans
        assert retry.status == "retry" and "injected" in retry.error
        assert ok.status == "ok" and ok.attempt == 2
        assert ok.retry_of == retry.span_id

    def test_parallel_spans_measure_queue_wait(self):
        specs = [spec_for(seed) for seed in range(4)]
        t = self._telemetry()
        run_campaign(specs, jobs=2, telemetry=t)
        assert len(t.spans) == 4
        assert all(s.queue_wait >= 0.0 for s in t.spans)
        assert {s.job_hash for s in t.spans} == \
            {s.job_hash for s in specs}
        assert t.workers == 2
