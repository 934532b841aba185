"""Nothing public moved: package exports, the CC registry, the CLI help.

Every literal here was captured at the commit *before* package
``__init__``s, the congestion-control registry and ``repro.cli`` started
resolving names on first use, so the file pins what a caller could
import, not how the package finds it:

* :data:`SURFACE` — each package's ``__all__`` in order, and the
  submodule every name is defined in;
* :data:`CC_NAMES` — the seventeen built-in congestion controls;
* ``tests/data/cli_help/*.txt`` — ``repro --help`` and every
  ``repro <cmd> --help`` at ``COLUMNS=80``.
"""

import importlib
from pathlib import Path

import pytest

from repro.cli import main
from tests.import_budget import REPO, fresh_python

HELP_DIR = Path(__file__).resolve().parent / "data" / "cli_help"

#: package -> {public name: defining submodule}, keys in ``__all__`` order.
SURFACE = {
    "repro.analysis": {
        "RULES": "findings",
        "Finding": "findings",
        "explain": "findings",
        "render_json": "findings",
        "render_text": "findings",
        "DEFAULT_LAYER_DAG": "layering",
        "check_layering": "layering",
        "find_package_roots": "layering",
        "applicable_rules": "lint",
        "lint_paths": "lint",
        "lint_source": "lint",
        "ENV_VAR": "sanitize",
        "SanitizeError": "sanitize",
        "SimSanitizer": "sanitize",
        "from_env": "sanitize",
        "sanitize_enabled": "sanitize",
    },
    "repro.campaign": {
        "JOB_KINDS": "jobs",
        "CampaignResult": "scheduler",
        "JobSpec": "spec",
        "ResultStore": "store",
        "canonical_json": "spec",
        "code_fingerprint": "store",
        "collect_values": "scheduler",
        "execute_job": "jobs",
        "fairness_job": "spec",
        "flowsim_sweep_job": "spec",
        "register": "jobs",
        "run_campaign": "scheduler",
        "single_flow_job": "spec",
        "stability_job": "spec",
    },
    "repro.cc": {
        "AckInfo": "base",
        "CongestionControl": "base",
        "available": "base",
        "create": "base",
        "register": "base",
        "Bbr": "bbr",
        "Bbr2": "bbr2",
        "Cubic": "cubic",
        "HyStart": "hystart",
        "HyStartPP": "hystart_pp",
        "Reno": "reno",
        "WindowedFilter": "filters",
        "windowed_max": "filters",
        "windowed_min": "filters",
        "Halfback": "slowstart_variants",
        "InitialSpreadingCubic": "slowstart_variants",
        "JumpStart": "slowstart_variants",
        "LargeIwCubic": "slowstart_variants",
        "StatefulCubic": "slowstart_variants",
    },
    "repro.core": {
        "ACK_TRAIN_FRACTION": "growth",
        "DELAY_FACTOR": "growth",
        "DEFAULT_K_MAX": "growth",
        "condition1": "growth",
        "condition2": "growth",
        "estimate_ack_train": "growth",
        "growth_factor": "growth",
        "predict_mo_rtt": "growth",
        "SussHyStart": "hystart_mod",
        "PacingPlan": "pacing_plan",
        "make_pacing_plan": "pacing_plan",
        "lemma1_lower_bound": "pacing_plan",
        "SussCubic": "suss",
        "SussBbr": "suss_bbr",
    },
    "repro.experiments": {
        "FlowResult": "runner",
        "LocalRun": "runner",
        "fct_summary": "runner",
        "loss_rate_summary": "runner",
        "run_flow_campaign": "runner",
        "run_local_testbed": "runner",
        "run_single_flow": "runner",
        "sweep_summaries": "runner",
    },
    "repro.flowsim": {
        "FleetResult": "driver",
        "FlowEstimate": "model",
        "FlowModel": "model",
        "PathParams": "model",
        "SweepConfig": "driver",
        "SweepResult": "driver",
        "available_models": "model",
        "create_model": "model",
        "estimate_fleet": "driver",
        "poisson_arrivals": "driver",
        "run_sweep": "driver",
    },
    "repro.metrics": {
        "QueueMonitor": "queuemon",
        "FlowCollector": "collector",
        "FlowTrace": "collector",
        "fairness_over_time": "fairness",
        "jain_index": "fairness",
        "Summary": "summary",
        "improvement": "summary",
        "summarize": "summary",
        "TimeSeries": "timeseries",
        "write_multi_timeseries": "timeseries",
        "write_timeseries": "timeseries",
    },
    "repro.net": {
        "Link": "link",
        "BandwidthProfile": "netem",
        "ConstantBandwidth": "netem",
        "SteppedBandwidth": "netem",
        "RandomWalkBandwidth": "netem",
        "JitterModel": "netem",
        "LossModel": "netem",
        "Host": "node",
        "Router": "node",
        "Packet": "packet",
        "PacketKind": "packet",
        "DEFAULT_MSS": "packet",
        "HEADER_BYTES": "packet",
        "DropTailQueue": "queue",
        "CoDelQueue": "queue",
        "Dumbbell": "topology",
        "bdp_bytes": "topology",
        "build_dumbbell": "topology",
        "build_path": "topology",
        "BOTTLENECK_PROP_DELAY": "topology",
    },
    "repro.net.topogen": {
        "BuiltTopology": "build",
        "CrossTrafficPlan": "spec",
        "FlowPath": "spec",
        "LinkSpec": "spec",
        "NodeSpec": "spec",
        "SCENARIO_CLASSES": "builders",
        "TOPO_SCENARIOS": "builders",
        "TopologySpec": "spec",
        "build_topology": "build",
        "get_topo_scenario": "builders",
        "lfn_satellite": "builders",
        "mesh_diamond": "builders",
        "multi_bottleneck": "builders",
        "parking_lot": "builders",
        "registered_specs": "builders",
        "routing_table_json": "routing",
        "spf_routes": "routing",
    },
    "repro.obs": {
        "ALL_KINDS": "records",
        "DigestSink": "sinks",
        "Divergence": "golden",
        "EventProfiler": "profile",
        "JobSpan": "runtime",
        "JsonlSink": "sinks",
        "MemorySink": "sinks",
        "Observability": "tracer",
        "RingBufferSink": "sinks",
        "RunLedger": "ledger",
        "RunTelemetry": "runtime",
        "TeeSink": "sinks",
        "TraceRecord": "records",
        "TraceSink": "sinks",
        "Tracer": "tracer",
        "add_engine_events": "runtime",
        "add_flows_modelled": "runtime",
        "build_ledger": "ledger",
        "digest_lines": "golden",
        "first_divergence": "golden",
        "load_digests": "golden",
        "load_ledger": "ledger",
        "load_stream": "golden",
        "parse_kinds": "records",
        "record_lines": "golden",
        "resource_delta": "runtime",
        "sample_resources": "runtime",
        "save_golden": "golden",
        "trace_digest": "golden",
        "tracing": "tracer",
        "write_ledger": "ledger",
    },
    "repro.obs.analyze": {
        "ALL_CLASSES": "classify",
        "ALL_PHASES": "phases",
        "SEVERITIES": "findings",
        "AnomalyDetector": "anomalies",
        "CwndCollapseDetector": "anomalies",
        "Finding": "findings",
        "FlowReport": "report",
        "FlowTimeline": "timeline",
        "PacingStallDetector": "anomalies",
        "PhaseSegment": "phases",
        "RetxClassification": "classify",
        "RtoSpikeDetector": "anomalies",
        "SussAbortDetector": "anomalies",
        "TraceAnalysis": "report",
        "analyze_records": "report",
        "build_timelines": "timeline",
        "classify_retransmissions": "classify",
        "default_detectors": "anomalies",
        "load_trace": "report",
        "phase_at": "phases",
        "render_flow": "report",
        "segment_phases": "phases",
        "tally": "classify",
    },
    "repro.sim": {
        "EventRef": "engine",
        "SimulationError": "engine",
        "Simulator": "engine",
        "event_cancelled": "engine",
        "event_eid": "engine",
        "event_fired": "engine",
        "event_origin_eid": "engine",
        "event_parent_eid": "engine",
        "event_time": "engine",
        "RngRegistry": "rng",
        "derive_seed": "rng",
    },
    "repro.tcp": {
        "StreamingSource": "stream",
        "open_stream": "stream",
        "Transfer": "connection",
        "open_transfer": "connection",
        "Pacer": "pacer",
        "TcpReceiver": "receiver",
        "RttEstimator": "rtt",
        "TcpSender": "sender",
        "DEFAULT_IW_SEGMENTS": "sender",
        "DUPACK_THRESHOLD": "sender",
    },
    "repro.validate": {
        "BaselineStore": "baseline",
        "CLAIMS": "claims",
        "Claim": "claims",
        "ClaimVerdict": "report",
        "FAIL": "report",
        "INCONCLUSIVE": "report",
        "MODES": "claims",
        "PASS": "report",
        "ValidationReport": "report",
        "detect_drift": "baseline",
        "fold_claim": "driver",
        "get_claim": "claims",
        "iter_claims": "claims",
        "load_report": "report",
        "plan_jobs": "driver",
        "register_claim": "claims",
        "report_json": "report",
        "resolve_fingerprint": "baseline",
        "run_validation": "driver",
    },
    "repro.workloads": {
        "MB": "flows",
        "FlowSpec": "flows",
        "launch_flows": "flows",
        "stability_workload": "flows",
        "staggered_joiners": "flows",
        "FIG9_SCENARIO": "scenarios",
        "FIG11_SCENARIOS": "scenarios",
        "FIG13_SCENARIO": "scenarios",
        "FIG14_SCENARIO": "scenarios",
        "INTERNET_SCENARIOS": "scenarios",
        "LINK_NAMES": "scenarios",
        "LINK_TYPES": "scenarios",
        "MBPS": "scenarios",
        "SERVER_NAMES": "scenarios",
        "SERVERS": "scenarios",
        "LocalTestbedConfig": "scenarios",
        "PathScenario": "scenarios",
        "get_scenario": "scenarios",
    },
}

#: ``repro.cc.available()`` — sorted, as ``repro list-cc`` prints it.
CC_NAMES = [
    "bbr", "bbr+suss", "bbr2", "cubic", "cubic+hystartpp", "cubic+suss",
    "cubic+suss-k2", "cubic+suss-k3", "cubic-iw32", "cubic-iw64",
    "cubic-nohystart", "cubic-spread-iw32", "cubic-spread-iw64",
    "cubic-stateful", "halfback", "jumpstart", "reno",
]

SUBCOMMANDS = [
    "list-scenarios", "list-cc", "run", "sweep", "experiment", "campaign",
    "topo", "flowsim", "trace", "analyze", "explain", "profile", "validate",
    "report", "lint",
]


@pytest.mark.parametrize("package", sorted(SURFACE))
class TestPackageExports:
    def test_all_is_the_captured_list(self, package):
        assert importlib.import_module(package).__all__ == list(
            SURFACE[package])

    def test_every_name_is_its_submodules_object(self, package):
        pkg = importlib.import_module(package)
        for name, submodule in SURFACE[package].items():
            home = importlib.import_module(f"{package}.{submodule}")
            assert getattr(pkg, name) is getattr(home, name), name

    def test_dir_lists_every_public_name(self, package):
        pkg = importlib.import_module(package)
        assert set(dir(pkg)) >= set(pkg.__all__)

    def test_misspelt_attribute_names_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
            pkg.no_such_public_name

    def test_star_import_binds_exactly_all(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(SURFACE[package])


def test_the_top_package_exports_only_its_version():
    import repro

    assert repro.__all__ == ["__version__"]
    assert repro.__version__ == "1.0.0"


class TestCongestionControlRegistry:
    def test_the_seventeen_names_in_sorted_order(self):
        from repro.cc import available

        assert available() == CC_NAMES

    def test_every_name_creates_a_congestion_control(self):
        from repro.cc import CongestionControl, create

        for name in CC_NAMES:
            assert isinstance(create(name), CongestionControl), name

    def test_unknown_name_message(self):
        from repro.cc import create

        with pytest.raises(KeyError) as exc:
            create("vegas")
        assert exc.value.args[0] == (
            f"unknown congestion control 'vegas'; known: {CC_NAMES}")

    def test_a_built_in_name_cannot_be_registered_again(self):
        from repro.cc import Reno, register

        with pytest.raises(ValueError, match="'Cubic' already registered"):
            register("Cubic", Reno)

    def test_every_row_names_the_module_its_class_lives_in(self):
        from repro.cc import base

        assert sorted(base._BUILTIN) == CC_NAMES
        for name, (module, cls, _) in base._BUILTIN.items():
            made = type(base.create(name))
            assert (made.__module__, made.__name__) == (module, cls), name

    def test_a_built_in_name_is_refused_before_its_module_loads(self):
        proc = fresh_python("-c", """if True:
            import sys
            from repro.cc.base import register
            try:
                register("cubic", object)
            except ValueError as exc:
                print(exc)
            print("repro.cc.cubic" in sys.modules)""")
        assert proc.stdout.splitlines() == [
            "congestion control 'cubic' already registered", "False"]

    def test_custom_cca_example_runs(self):
        proc = fresh_python(str(REPO / "examples" / "custom_cca.py"))
        assert "gentle-aimd" in proc.stdout


@pytest.mark.parametrize("command", [None] + SUBCOMMANDS)
def test_help_text_is_the_captured_one(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    expected = (HELP_DIR / f"{command or 'repro'}.txt").read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == expected
