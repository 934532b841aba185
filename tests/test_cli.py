"""Tests for the command-line interface."""

import importlib
import json
import re

import pytest

from repro.cli import main
from repro.cli.experiment import EXPERIMENTS


@pytest.fixture(autouse=True)
def _pinned_fingerprint(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "test-fingerprint")


@pytest.fixture
def no_gc_callbacks():
    """For a test that needs *every* job to hit ``--timeout 0.001``.

    CPython drops an exception raised inside a Python-level GC callback
    (Hypothesis installs one for the session), so an alarm that lands
    there is lost and fires again 50 ms later (DESIGN.md §5) — by when a
    job this small has finished and counts as executed.  Late in a long
    session a collection covers the job's first millisecond often
    enough to fail such a test a few times in ten.
    """
    import gc

    saved = gc.callbacks[:]
    del gc.callbacks[:]
    yield
    gc.callbacks[:] = saved


class TestListing:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "google-tokyo/wired" in out
        assert "oracle-london/4g" in out
        assert out.count("\n") >= 28

    def test_list_cc(self, capsys):
        assert main(["list-cc"]) == 0
        out = capsys.readouterr().out
        assert "cubic+suss" in out
        assert "bbr" in out


class TestRun:
    def test_basic_run(self, capsys):
        rc = main(["run", "--scenario", "google-tokyo/wired",
                   "--cc", "cubic+suss", "--size", "500000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fct:" in out and "goodput:" in out

    def test_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "nowhere/wired"])

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        rc = main(["run", "--scenario", "google-tokyo/wired",
                   "--size", "500000", "--csv", str(csv_path)])
        assert rc == 0
        content = csv_path.read_text()
        assert content.startswith("time,")
        assert "cwnd" in content.splitlines()[0]
        assert len(content.splitlines()) > 5


class TestSweep:
    def test_sweep_with_improvement_column(self, capsys):
        rc = main(["sweep", "--scenario", "google-tokyo/wired",
                   "--ccs", "cubic,cubic+suss",
                   "--sizes", "500000,1000000", "--iterations", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SUSS improvement" in out
        assert "0.5" in out

    def test_sweep_single_cc(self, capsys):
        rc = main(["sweep", "--scenario", "google-tokyo/wired",
                   "--ccs", "bbr", "--sizes", "500000",
                   "--iterations", "1"])
        assert rc == 0
        assert "SUSS improvement" not in capsys.readouterr().out


class TestUsageErrors:
    """A bad ``--cc`` / ``--ccs`` / ``--sizes`` / ``--iterations`` is the
    parser's error — exit status 2, before anything runs."""

    FLOW = ["--scenario", "google-tokyo/wired", "--size", "100000"]

    @pytest.mark.parametrize("argv", [
        ["run", *FLOW, "--cc", "nosuchcc"],
        ["sweep", "--scenario", "google-tokyo/wired", "--sizes", "100000",
         "--iterations", "1", "--ccs", "cubic,nosuchcc"],
        ["topo", "run", "--scenario", "parking-lot-3", "--cc", "nosuchcc"],
        ["trace", *FLOW, "--cc", "nosuchcc"],
        ["profile", "single", *FLOW, "--cc", "nosuchcc"],
    ], ids=lambda argv: argv[0])
    def test_unknown_congestion_control(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown congestion control 'nosuchcc'; known: " in err
        assert "cubic+suss-k2" in err

    def test_unknown_cc_schedules_no_campaign_job(self, tmp_path, capsys):
        """Not three failed attempts per job and a half-filled store."""
        cache, stats = tmp_path / "cache", tmp_path / "stats.json"
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--servers", "google-tokyo", "--links", "wired",
                  "--sizes", "100000", "--ccs", "cubic,nosuchcc",
                  "--iterations", "1", "--quiet",
                  "--cache-dir", str(cache), "--stats-json", str(stats)])
        assert exc.value.code == 2
        assert "repro campaign: error: argument --ccs: unknown congestion " \
               "control 'nosuchcc'" in capsys.readouterr().err
        assert not cache.exists() and not stats.exists()

    def test_cc_names_are_case_insensitive_like_create(self, capsys):
        assert main(["run", *self.FLOW, "--cc", "CUBIC"]) == 0
        assert "cc:              CUBIC" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["campaign", "sweep"])
    @pytest.mark.parametrize("flag, value", [
        ("--sizes", "abc"), ("--sizes", "100000,"), ("--sizes", "0"),
        ("--iterations", "0"), ("--iterations", "-1")])
    def test_bad_sizes_and_iterations(self, command, flag, value, capsys):
        argv = [command, flag, value]
        if command == "sweep":
            argv += ["--scenario", "google-tokyo/wired"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"repro {command}: error: argument {flag}: expected a " \
               f"positive integer" in capsys.readouterr().err


class TestCampaign:
    ARGS = ["campaign", "--servers", "google-tokyo", "--links", "wired",
            "--sizes", "400000", "--ccs", "cubic,cubic+suss",
            "--iterations", "1", "--quiet"]

    def test_first_run_executes_second_run_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        stats_path = tmp_path / "stats.json"
        rc = main(self.ARGS + ["--cache-dir", cache,
                               "--stats-json", str(stats_path)])
        assert rc == 0
        first_out = capsys.readouterr().out
        assert "Fig. 18" in first_out and "Fig. 17" in first_out
        assert "executed=2 cached=0" in first_out
        stats = json.loads(stats_path.read_text())
        assert stats["executed"] == 2 and stats["failed"] == 0

        rc = main(self.ARGS + ["--cache-dir", cache, "--resume",
                               "--stats-json", str(stats_path)])
        assert rc == 0
        second_out = capsys.readouterr().out
        assert "executed=0 cached=2" in second_out
        stats = json.loads(stats_path.read_text())
        assert stats["executed"] == 0 and stats["cached"] == 2
        # Identical tables from cache and from simulation.
        assert second_out.split("campaign:")[0] == \
            first_out.split("campaign:")[0]

    def test_parallel_matches_serial_output(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--no-cache", "--jobs", "1"])
        assert rc == 0
        serial = capsys.readouterr().out.split("campaign:")[0]
        rc = main(self.ARGS + ["--no-cache", "--jobs", "4"])
        assert rc == 0
        parallel = capsys.readouterr().out.split("campaign:")[0]
        assert parallel == serial

    def test_resume_without_cache_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--cache-dir", str(tmp_path / "absent"),
                              "--resume"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--servers", "nowhere", "--links", "wired"])

    def test_stats_json_key_set(self, tmp_path, capsys):
        """``benchmarks/perf/workloads.py`` and the ``campaign-smoke`` CI
        job read total / executed / cached / failed / elapsed."""
        stats_path = tmp_path / "stats.json"
        assert main(self.ARGS + ["--no-cache",
                                 "--stats-json", str(stats_path)]) == 0
        capsys.readouterr()
        stats = json.loads(stats_path.read_text())
        assert set(stats) == {"total", "executed", "cached", "failed",
                              "retries", "elapsed", "job_records"}
        assert all(set(record) == {"label", "status", "runtime", "cached",
                                   "attempts", "hash"}
                   for record in stats["job_records"])
        assert len(stats["job_records"]) == stats["total"] == 2

    def test_failed_campaign_still_writes_stats(self, tmp_path, capsys,
                                                no_gc_callbacks):
        stats_path = tmp_path / "stats.json"
        with pytest.raises(SystemExit, match="campaign failed"):
            main(self.ARGS + ["--no-cache", "--timeout", "0.001",
                              "--retries", "0",
                              "--stats-json", str(stats_path)])
        capsys.readouterr()
        stats = json.loads(stats_path.read_text())
        assert stats["failed"] == stats["total"] == 2

    def test_narration_goes_to_stderr_unless_quiet(self, capsys):
        args = [a for a in self.ARGS if a != "--quiet"] + ["--no-cache"]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "campaign: 2 jobs on 1 worker(s)" in err
        assert "[2/2] ok " in err
        assert "campaign done: executed=2 cached=0 failed=0" in err

    def test_metrics_port_serves_without_ledger_dir(self, monkeypatch,
                                                    capsys):
        """The observer always exists, so the endpoint does not need
        ``--ledger-dir``; scrape it while the run is open."""
        import re
        import urllib.request

        from repro.obs.export import MetricsServer

        scraped = []
        close = MetricsServer.close

        def scrape_then_close(server):
            with urllib.request.urlopen(server.url) as resp:
                scraped.append(resp.read().decode())
            close(server)

        monkeypatch.setattr(MetricsServer, "close", scrape_then_close)
        assert main(self.ARGS + ["--no-cache", "--metrics-port", "0"]) == 0
        err = capsys.readouterr().err
        assert re.search(r"serving OpenMetrics at http://127\.0\.0\.1:\d+"
                         r"/metrics", err)
        (body,) = scraped
        assert 'repro_run_jobs_total{status="executed"} 2' in body
        assert "repro_run_finished 1" in body
        assert body.endswith("# EOF\n")


class TestSweepCampaignFlags:
    def test_sweep_with_jobs_and_cache(self, tmp_path, capsys):
        args = ["sweep", "--scenario", "google-tokyo/wired",
                "--ccs", "cubic", "--sizes", "400000", "--iterations", "1",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "FCT sweep" in first
        assert main(args) == 0  # second run served from cache
        assert capsys.readouterr().out == first


class TestTrace:
    ARGS = ["trace", "--scenario", "google-tokyo/wired",
            "--cc", "cubic+suss", "--size", "400000", "--seed", "1"]

    def test_prints_digest_and_fct(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "trace digest:" in out and "fct:" in out

    def test_digest_matches_committed_golden(self, capsys):
        # same run as the "cubic+suss" golden: the CLI digest must agree
        from repro.experiments.goldens import DEFAULT_GOLDEN_DIR
        from repro.obs.golden import load_digests

        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        digest = out.split("trace digest:")[1].split()[0]
        assert digest == load_digests(DEFAULT_GOLDEN_DIR)[
            "cubic+suss"]["digest"]

    def test_jsonl_export(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        out = capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert {"t", "kind", "flow"} <= record.keys()
        assert f"({len(lines)} records)" in out

    def test_kind_filter(self, tmp_path):
        path = tmp_path / "cwnd.jsonl"
        assert main(self.ARGS + ["--out", str(path),
                                 "--kinds", "cc.cwnd"]) == 0
        kinds = {json.loads(line)["kind"]
                 for line in path.read_text().splitlines()}
        assert kinds == {"cc.cwnd"}

    def test_filter_matching_nothing_leaves_an_analyzable_file(
            self, tmp_path, capsys):
        # plain cubic never aborts a SUSS plan: zero records, empty file
        path = tmp_path / "t.jsonl"
        assert main(["trace", "--scenario", "google-tokyo/wired",
                     "--cc", "cubic", "--size", "100000",
                     "--kinds", "suss.abort", "--out", str(path)]) == 0
        assert "(0 records)" in capsys.readouterr().out
        assert path.read_text() == ""
        assert main(["analyze", str(path)]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit, match="unknown trace kind"):
            main(self.ARGS + ["--kinds", "bogus.kind"])

    def test_scenario_required_without_update_golden(self):
        with pytest.raises(SystemExit, match="--scenario is required"):
            main(["trace"])


class TestProfile:
    def test_profile_single(self, capsys):
        rc = main(["profile", "single", "--scenario", "google-tokyo/wired",
                   "--cc", "cubic", "--size", "400000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "Link._start_next" in out and "Router.receive" in out

    def test_profile_single_requires_scenario(self):
        with pytest.raises(SystemExit, match="--scenario required"):
            main(["profile", "single"])

    def test_profile_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "fig99"])

    def test_global_profiler_cleared_after_run(self):
        from repro.obs import profile as obs_profile
        main(["profile", "single", "--scenario", "google-tokyo/wired",
              "--cc", "cubic", "--size", "200000"])
        assert obs_profile.global_profiler() is None


def _golden_trace_path() -> str:
    from repro.experiments.goldens import DEFAULT_GOLDEN_DIR

    return str(DEFAULT_GOLDEN_DIR / "cubic_suss.jsonl.gz")


class TestAnalyze:
    def test_text_report(self, capsys):
        assert main(["analyze", _golden_trace_path()]) == 0
        out = capsys.readouterr().out
        assert "flow 1" in out and "suss" in out

    def test_json_report_schema(self, capsys):
        assert main(["analyze", _golden_trace_path(), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"records", "flows", "findings"} <= report.keys()
        flow = report["flows"]["1"]
        assert flow["summary"]["suss"]["accelerations"] >= 1
        assert {p["phase"] for p in flow["phases"]} >= {"slow_start",
                                                        "suss_accelerated"}

    def test_fail_on_findings_passes_clean_golden(self, capsys):
        assert main(["analyze", _golden_trace_path(),
                     "--fail-on-findings"]) == 0

    def test_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["analyze", "/nonexistent/trace.jsonl"])

    def test_non_jsonl_file_rejected(self, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("this is not json\n")
        with pytest.raises(SystemExit, match="not a JSONL trace"):
            main(["analyze", str(junk)])

    def test_stdin_trace(self, capsys, monkeypatch):
        import io

        line = json.dumps({"t": 0.0, "kind": "pkt.send", "flow": 1,
                           "eid": 1, "peid": 0, "seq": 0, "size": 1448})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["analyze", "-"]) == 0
        assert "flow 1" in capsys.readouterr().out


class TestExplain:
    def _accelerate_eid(self) -> int:
        from repro.obs.analyze import load_trace

        records = load_trace(_golden_trace_path())
        return next(r.eid for r in records
                    if r.kind == "suss.decision"
                    and r.fields.get("verdict") == "accelerate")

    def test_flow_narrative(self, capsys):
        assert main(["explain", _golden_trace_path()]) == 0
        out = capsys.readouterr().out
        assert "flow 1:" in out and "phases:" in out

    def test_event_chain(self, capsys):
        eid = self._accelerate_eid()
        assert main(["explain", _golden_trace_path(),
                     "--event", str(eid)]) == 0
        out = capsys.readouterr().out
        assert f"causal chain for event {eid}" in out
        assert "caused by" in out
        assert "verdict=accelerate" in out

    def test_event_chain_json(self, capsys):
        eid = self._accelerate_eid()
        assert main(["explain", _golden_trace_path(), "--event", str(eid),
                     "--json"]) == 0
        explanation = json.loads(capsys.readouterr().out)
        assert explanation["found"] and explanation["complete"]
        assert explanation["chain"][0]["eid"] == eid

    def test_unknown_event_exits_nonzero(self, capsys):
        assert main(["explain", _golden_trace_path(),
                     "--event", "99999999"]) == 1
        assert "no records" in capsys.readouterr().out

    def test_at_timestamp_context(self, capsys):
        assert main(["explain", _golden_trace_path(), "--at", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "at t=0.2:" in out
        assert "most recent event before t=0.2" in out

    def test_at_json_includes_phase_and_chain(self, capsys):
        assert main(["explain", _golden_trace_path(), "--at", "0.2",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["at"]["phase"]["1"] in ("slow_start",
                                              "suss_accelerated",
                                              "congestion_avoidance",
                                              "recovery")
        assert report["at"]["chain"]["found"]

    def test_at_before_trace_rejected(self):
        with pytest.raises(SystemExit, match="no records at or before"):
            main(["explain", _golden_trace_path(), "--at", "-5"])

    def test_unknown_flow_rejected(self):
        with pytest.raises(SystemExit, match="no flow 99"):
            main(["explain", _golden_trace_path(), "--flow", "99"])


class TestExperimentDispatch:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_name_resolves_to_the_protocol(self, name):
        module_name, _ = EXPERIMENTS[name]
        module = importlib.import_module(f"repro.experiments.{module_name}")
        assert callable(module.run) and callable(module.format_report)

    def test_inline_harness_refuses_campaign_flags(self, tmp_path, capsys):
        store = tmp_path / "store"
        for flag in (["--jobs", "4"], ["--cache-dir", str(store)],
                     ["--quiet"]):
            with pytest.raises(SystemExit) as exc:
                main(["experiment", "delack", *flag])
            assert exc.value.code == 2
            assert "delack runs inline" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exc:
                main(["profile", "single", "--scenario",
                      "google-tokyo/wired", *flag])
            assert exc.value.code == 2
            assert "single runs inline" in capsys.readouterr().err
        assert not store.exists()


class TestValidate:
    # The cheapest registered claim: 10 sub-second single-flow jobs.
    CLAIM = "fig11-fct-wired-2mb"

    def test_list_claims(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig11-fct-wired-2mb" in out
        assert "table1-small-flow-cubic" in out

    def test_unknown_claim_rejected(self):
        with pytest.raises(SystemExit, match="unknown claim"):
            main(["validate", "--claims", "fig99-nope", "--quiet"])

    def test_single_claim_passes_and_caches(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        rc = main(["validate", "--claims", self.CLAIM, "--quiet",
                   "--cache-dir", cache])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"[PASS] {self.CLAIM}" in out
        assert "overall: PASS" in out

    def test_json_byte_identical_across_runs(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["validate", "--claims", self.CLAIM, "--quiet",
                "--cache-dir", cache, "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # warm cache this time
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["claims"][0]["verdict"] == "PASS"
        assert report["code_fingerprint"] == "test-fingerprint"
        # nothing wall-clock rides along: the report is the claims
        assert set(report) == {"mode", "base_seed", "code_fingerprint",
                               "counts", "overall", "claims"}

    def test_wall_clock_gate_flag_is_gone(self, capsys):
        """How fast the code runs is benchmarks/perf's record, not a
        verdict of the statistical validation."""
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--claims", self.CLAIM, "--quiet", "--perf"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --perf" in capsys.readouterr().err

    def test_drift_gate_flips_claim_to_fail(self, tmp_path, capsys):
        """An injected regression (tampered baseline) must FAIL."""
        cache = str(tmp_path / "cache")
        basedir = tmp_path / "baselines"
        rc = main(["validate", "--claims", self.CLAIM, "--quiet",
                   "--cache-dir", cache,
                   "--record-baseline", str(basedir)])
        assert rc == 0
        capsys.readouterr()
        # Tamper the recorded treatment distribution: pretend the code
        # used to be 3x faster, as if the current tree regressed.
        record_path = basedir / "test-fingerprint" / f"{self.CLAIM}.json"
        record = json.loads(record_path.read_text())
        record["samples"] = [s / 3.0 for s in record["samples"]]
        record_path.write_text(json.dumps(record))
        rc = main(["validate", "--claims", self.CLAIM, "--quiet",
                   "--cache-dir", cache, "--against", str(basedir)])
        assert rc == 1
        out = capsys.readouterr().out
        assert f"[FAIL] {self.CLAIM}" in out
        assert "drifted" in out
        assert "overall: FAIL" in out

    def test_against_unchanged_baseline_stays_green(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        basedir = tmp_path / "baselines"
        assert main(["validate", "--claims", self.CLAIM, "--quiet",
                     "--cache-dir", cache,
                     "--record-baseline", str(basedir)]) == 0
        capsys.readouterr()
        rc = main(["validate", "--claims", self.CLAIM, "--quiet",
                   "--cache-dir", cache, "--against", str(basedir)])
        assert rc == 0
        assert "stable" in capsys.readouterr().out

    def test_out_writes_report_file(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out_path = tmp_path / "report.json"
        rc = main(["validate", "--claims", self.CLAIM, "--quiet",
                   "--cache-dir", cache, "--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["overall"] == "PASS"
        assert capsys.readouterr().out  # text report still printed


class TestFlowsim:
    """The ``repro flowsim`` analytical-tier command."""

    def test_single_query_breakdown(self, capsys):
        rc = main(["flowsim", "--size", "60000", "--rtt", "0.04",
                   "--bw", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fct:" in out
        assert "slow start:" in out
        assert "csa00+suss" in out  # default model

    def test_single_query_json_schema(self, capsys):
        rc = main(["flowsim", "--size", "60000", "--model", "csa00",
                   "--json"])
        assert rc == 0
        est = json.loads(capsys.readouterr().out)
        assert est["model"] == "csa00"
        assert est["segments"] == 42
        assert est["fct"] > 0.0

    def test_query_accepts_scenario_name(self, capsys):
        rc = main(["flowsim", "--size", "100000",
                   "--scenario", "google-tokyo/wired"])
        assert rc == 0
        assert "fct:" in capsys.readouterr().out

    def test_sweep_reports_improvement_and_throughput(self, capsys):
        rc = main(["flowsim", "--flows", "2000", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SUSS mean-FCT improvement" in out
        assert "flows/sec" in out

    def test_sweep_json_value(self, capsys):
        rc = main(["flowsim", "--flows", "1000", "--json"])
        assert rc == 0
        value = json.loads(capsys.readouterr().out)
        assert value["flows"] == 1000
        assert value["improvement"] >= 0.0
        assert value["models"]["csa00"]["n"] == 1000

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["flowsim", "--flows", "10", "--models", "bogus"])

    def test_crossval_quick_passes_and_writes_report(self, tmp_path,
                                                     capsys):
        report_path = tmp_path / "agreement.json"
        rc = main(["flowsim", "--cross-validate", "--quick", "--json",
                   "--report", str(report_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        on_disk = json.loads(report_path.read_text())
        assert on_disk["passed"] is True
        assert len(on_disk["cases"]) >= 6

    def test_crossval_strict_tolerance_fails(self, capsys):
        rc = main(["flowsim", "--cross-validate", "--quick", "--json",
                   "--tolerance", "0.00001"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestLedgerAndTop:
    ARGS = ["campaign", "--servers", "google-tokyo", "--links", "wired",
            "--sizes", "400000", "--ccs", "cubic,cubic+suss",
            "--iterations", "1", "--quiet", "--no-cache"]

    def _run_with_ledger(self, tmp_path, name, extra=()):
        ledger_dir = tmp_path / name
        rc = main(self.ARGS + ["--ledger-dir", str(ledger_dir)]
                  + list(extra))
        assert rc == 0
        (ledger_path,) = [p for p in ledger_dir.glob("ledger-*.json")
                          if not p.name.endswith(".run.json")]
        return ledger_dir, ledger_path

    def test_campaign_writes_verifiable_ledger(self, tmp_path, capsys):
        ledger_dir, ledger_path = self._run_with_ledger(tmp_path, "a")
        err = capsys.readouterr().err
        assert "run ledger:" in err
        from repro.obs.ledger import load_ledger
        body, execution = load_ledger(str(ledger_path))
        assert body["tool"] == "campaign" and body["mode"] == "matrix"
        assert body["code_fingerprint"] == "test-fingerprint"
        assert len(body["jobs"]) == 2
        assert execution["status"]["finished"] is True
        assert len(execution["spans"]) == 2
        assert (ledger_dir / "status.json").exists()

    def test_ledger_bytes_stable_across_runs(self, tmp_path, capsys):
        _, first = self._run_with_ledger(tmp_path, "a")
        _, second = self._run_with_ledger(tmp_path, "b", ["--jobs", "2"])
        capsys.readouterr()
        assert first.name == second.name
        assert first.read_bytes() == second.read_bytes()

    def test_top_once_renders_status(self, tmp_path, capsys):
        ledger_dir, _ = self._run_with_ledger(tmp_path, "a")
        capsys.readouterr()
        metrics_out = tmp_path / "metrics.txt"
        rc = main(["top", "--once", str(ledger_dir / "status.json"),
                   "--metrics-out", str(metrics_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top — campaign [complete]" in out
        assert "2/2 (100%)" in out
        metrics = metrics_out.read_text()
        assert metrics.endswith("# EOF\n")
        assert 'repro_run_jobs_total{status="executed"} 2' in metrics

    def test_top_once_missing_status_is_an_error(self, tmp_path, capsys):
        rc = main(["top", "--once", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "no readable status" in capsys.readouterr().err

    def test_report_renders_ledger(self, tmp_path, capsys):
        _, ledger_path = self._run_with_ledger(tmp_path, "a")
        capsys.readouterr()
        rc = main(["report", str(ledger_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tool=campaign mode=matrix" in out
        assert "test-fingerprint" in out
        assert "executed 2, cached 0" in out
        # the execution block is the only timing the report carries
        assert re.search(r"cpu \d+\.\ds user / \d+\.\ds sys, .* "
                         r"\d+ engine events(?: \([\d,]+/s of worker CPU\))?, ", out)
        assert "perf trajectory" not in out
        with pytest.raises(SystemExit):
            main(["report", "--help"])
        assert set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out,
                              re.M)) == {"--json"}

    def test_report_json_mode(self, tmp_path, capsys):
        _, ledger_path = self._run_with_ledger(tmp_path, "a")
        capsys.readouterr()
        rc = main(["report", str(ledger_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"]["tool"] == "campaign"
        assert payload["execution"]["status"]["total"] == 2

    def test_report_rejects_tampered_ledger(self, tmp_path, capsys):
        _, ledger_path = self._run_with_ledger(tmp_path, "a")
        capsys.readouterr()
        body = json.loads(ledger_path.read_text())
        body["base_seed"] = 42
        ledger_path.write_text(json.dumps(body, sort_keys=True,
                                          separators=(",", ":")) + "\n")
        with pytest.raises(SystemExit, match="modified"):
            main(["report", str(ledger_path)])

    def test_validate_ledger_records_verdicts(self, tmp_path, capsys):
        ledger_dir = tmp_path / "led"
        cache = str(tmp_path / "cache")
        rc = main(["validate", "--claims", "fig11-fct-wired-2mb",
                   "--quiet", "--cache-dir", cache,
                   "--ledger-dir", str(ledger_dir)])
        assert rc == 0
        capsys.readouterr()
        (ledger_path,) = [p for p in ledger_dir.glob("ledger-*.json")
                          if not p.name.endswith(".run.json")]
        from repro.obs.ledger import load_ledger
        body, _ = load_ledger(str(ledger_path))
        assert body["tool"] == "validate"
        assert body["summary"]["claims"] == {
            "fig11-fct-wired-2mb": "PASS"}
        assert body["summary"]["verdict_counts"] == {"PASS": 1}

    def test_flowsim_sweep_ledger(self, tmp_path, capsys):
        ledger_dir = tmp_path / "led"
        rc = main(["flowsim", "--flows", "1000",
                   "--ledger-dir", str(ledger_dir)])
        assert rc == 0
        capsys.readouterr()
        (ledger_path,) = [p for p in ledger_dir.glob("ledger-*.json")
                          if not p.name.endswith(".run.json")]
        from repro.obs.ledger import load_ledger
        body, execution = load_ledger(str(ledger_path))
        assert body["tool"] == "flowsim" and body["mode"] == "sweep"
        assert body["jobs"][0]["kind"] == "flowsim_sweep"
        assert execution is None              # no campaign ran


class TestProfileCollapsed:
    def test_collapsed_output_round_trips(self, capsys):
        rc = main(["profile", "single", "--scenario",
                   "google-tokyo/wired", "--size", "400000",
                   "--collapsed"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        from repro.obs.profile import parse_collapsed
        parsed = parse_collapsed(lines)
        assert any(key.startswith("Host.") for key in parsed)
        assert all(count >= 1 for count in parsed.values())

    def test_table_still_default(self, capsys):
        rc = main(["profile", "single", "--scenario",
                   "google-tokyo/wired", "--size", "400000"])
        assert rc == 0
        assert "event type" in capsys.readouterr().out


class TestTopo:
    def test_list(self, capsys):
        assert main(["topo", "list"]) == 0
        out = capsys.readouterr().out
        assert "parking-lot-3" in out
        assert "lfn-satellite" in out
        assert "mesh" in out

    def test_show_emits_canonical_json(self, capsys):
        assert main(["topo", "show", "--scenario", "mesh-diamond",
                     "--json"]) == 0
        out = capsys.readouterr().out
        spec = json.loads(out)
        assert spec["name"] == "mesh-diamond"
        assert spec["scenario_class"] == "mesh"

    def test_routes_byte_identical_across_invocations(self, capsys):
        assert main(["topo", "routes", "--scenario", "mesh-diamond"]) == 0
        first = capsys.readouterr().out
        assert main(["topo", "routes", "--scenario", "mesh-diamond"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["ra"]["c0"] == "rb"

    def test_validate_spec_file(self, tmp_path, capsys):
        from repro.net.topogen import get_topo_scenario
        path = tmp_path / "spec.json"
        path.write_text(get_topo_scenario("lfn-satellite").to_json())
        assert main(["topo", "validate", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "content hash" in out

    def test_bad_spec_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(SystemExit, match="bad spec file"):
            main(["topo", "validate", "--spec", str(path)])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit, match="unknown topo scenario"):
            main(["topo", "show", "--scenario", "nope"])

    def test_scenario_or_spec_required(self):
        with pytest.raises(SystemExit, match="--scenario or --spec"):
            main(["topo", "show"])

    def test_run_completes(self, capsys):
        rc = main(["topo", "run", "--scenario", "mesh-diamond",
                   "--size", "60000", "--cross-load", "0", "--json"])
        assert rc == 0
        value = json.loads(capsys.readouterr().out)
        assert value["completed"] and value["fct"] > 0

    def test_golden_roundtrip(self, tmp_path, capsys):
        from repro.net.topogen import get_topo_scenario, registered_specs
        path = tmp_path / "specs.json"
        assert main(["topo", "golden", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == set(registered_specs())
        for name, entry in payload.items():
            assert entry["content_hash"] == \
                get_topo_scenario(name).content_hash


class TestTopoCampaign:
    ARGS = ["campaign", "--topo", "mesh-diamond", "--sizes", "60000",
            "--iterations", "1", "--quiet"]

    def test_first_run_executes_second_run_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        rc = main(self.ARGS + ["--cache-dir", cache])
        assert rc == 0
        first = capsys.readouterr().out
        assert "Topogen suite" in first
        assert "executed=2 cached=0" in first

        rc = main(self.ARGS + ["--cache-dir", cache, "--resume"])
        assert rc == 0
        second = capsys.readouterr().out
        assert "executed=0 cached=2" in second
        assert second.split("campaign:")[0] == first.split("campaign:")[0]

    def test_unknown_topo_scenario_rejected(self):
        with pytest.raises(SystemExit, match="unknown topo scenario"):
            main(["campaign", "--topo", "nope", "--quiet"])

    def test_several_sizes_are_one_run(self, tmp_path, capsys):
        """Every size is in the counts, the stats and the ledger — in
        size-major spec order, cold and warm alike."""
        args = ["campaign", "--topo", "mesh-diamond", "--sizes",
                "100000,200000", "--iterations", "1", "--quiet",
                "--cache-dir", str(tmp_path / "cache")]
        ledgers = []
        for run, counts in (("cold", "total=4 executed=4 cached=0"),
                            ("warm", "total=4 executed=0 cached=4")):
            stats_path = tmp_path / f"{run}.json"
            assert main(args + ["--ledger-dir", str(tmp_path / run),
                                "--stats-json", str(stats_path)]) == 0
            out = capsys.readouterr().out
            assert counts in out and out.count("Topogen suite") == 2
            stats = json.loads(stats_path.read_text())
            assert stats["total"] == len(stats["job_records"]) == 4
            (ledger,) = [p for p in (tmp_path / run).glob("ledger-*.json")
                         if not p.name.endswith(".run.json")]
            ledgers.append(ledger)
        cold, warm = ledgers
        assert cold.name == warm.name
        assert cold.read_bytes() == warm.read_bytes()
        assert [job["label"] for job in
                json.loads(cold.read_text())["jobs"]] == [
            f"mesh-diamond {cc} {size}B seed=0"
            for size in (100000, 200000) for cc in ("cubic+suss", "cubic")]

    def test_failed_campaign_still_writes_stats(self, tmp_path, capsys,
                                                no_gc_callbacks):
        """Same as the matrix path: a failed run exits non-zero and
        leaves its counts behind."""
        stats_path = tmp_path / "stats.json"
        with pytest.raises(SystemExit, match="campaign failed"):
            main(self.ARGS + ["--no-cache", "--timeout", "0.001",
                              "--retries", "0",
                              "--stats-json", str(stats_path)])
        capsys.readouterr()
        stats = json.loads(stats_path.read_text())
        assert stats["failed"] == stats["total"] == 2
        assert stats["executed"] == 0


class TestLint:
    """``repro lint`` is ``repro.analysis.cli`` registered as a
    subcommand: one flag declaration, one post-parse body."""

    @staticmethod
    def _entry_points():
        from repro.analysis.cli import main as lint_main
        return (lambda argv: main(["lint"] + argv)), lint_main

    def test_both_entry_points_list_the_same_options(self, capsys):
        helps = []
        for entry in self._entry_points():
            with pytest.raises(SystemExit) as exc:
                entry(["--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            helps.append(text[text.index("positional arguments:"):])
        assert helps[0] == helps[1]
        assert set(re.findall(r"^  (--[\w-]+)", helps[0], re.M)) == {
            "--json", "--no-layering", "--no-units", "--explain"}

    def test_unknown_rule_exits_2_through_both(self, capsys):
        for entry in self._entry_points():
            assert entry(["--explain", "NOPE"]) == 2
            assert "unknown rule 'NOPE'" in capsys.readouterr().out
