"""Self-tests of the benchmark: ``python -m pytest benchmarks/perf``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).  They
pin the span arithmetic, the failure accounting, that the seams leave no
trace behind, and that the benchmark touches ``repro`` through the
public surface ``README.md`` lists and nothing else.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import seams as seams_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro.net import Host  # noqa: E402
from repro.obs.profile import global_profiler  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.tcp import TcpReceiver, TcpSender  # noqa: E402
from seams import CALL, OP, Seams, SpanRecorder  # noqa: E402

SOURCES = sorted(HERE.glob("*.py"))


# ----------------------------------------------------------------------
# span accounting
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    root, a, b = (OP, "op", "bench"), (CALL, "a", "net"), (CALL, "b", "tcp")
    rec.push(root)              # root 0..10
    clock.now = 1.0
    rec.push(a)                 # a 1..6
    clock.now = 2.0
    rec.push(b)                 # b 2..4, child of a
    clock.now = 4.0
    rec.pop()
    clock.now = 6.0
    rec.pop()
    clock.now = 7.0
    rec.push(a)                 # a again 7..8
    clock.now = 8.0
    rec.pop()
    clock.now = 10.0
    rec.pop()

    stats = rec.by_group["-"]
    assert stats[root] == [1, 10.0, 4.0]      # 10 − (5 + 1)
    assert stats[a] == [2, 6.0, 4.0]          # (5 − 2) + 1
    assert stats[b] == [1, 2.0, 2.0]
    assert rec.layer_self() == {"bench": 4.0, "net": 4.0, "tcp": 2.0}
    assert sum(rec.layer_self().values()) == rec.total(1, kind=OP)
    # raw spans: (name, layer, start, end, parent index)
    assert rec.raw == [("op", "bench", 0.0, 10.0, -1), ("a", "net", 1.0, 6.0, 0),
                       ("b", "tcp", 2.0, 4.0, 1), ("a", "net", 7.0, 8.0, 0)]


def test_spans_are_booked_to_the_group_current_when_they_end():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.set_group("cubic")
    rec.push((CALL, "x", "cc"))
    clock.now = 1.0
    rec.pop()
    rec.set_group("cubic+suss")
    rec.push((CALL, "x", "cc"))
    clock.now = 3.0
    rec.pop()
    assert rec.total(1, "cubic", name="x") == 1.0
    assert rec.total(1, "cubic+suss", name="x") == 2.0
    assert rec.total(1, name="x") == 3.0


@pytest.fixture(scope="module")
def bulk_trace(tmp_path_factory):
    """One real traced round of ``bulk-clean``."""
    workload = workloads.BulkClean(1, ROOT)
    with Seams() as seams:
        _, outcomes = worker.run_round(
            workload, tmp_path_factory.mktemp("bulk"), 0, seams)
    return seams, outcomes


def test_real_trace_accounts_for_the_whole_round(bulk_trace):
    seams, outcomes = bulk_trace
    assert all(o.error is None for o in outcomes)
    rec = seams.recorder
    root_s = rec.total(1, kind=OP)
    assert sum(rec.layer_self().values()) == pytest.approx(root_s, rel=0.01)
    metrics = layers.layer_metrics(seams, outcomes)
    assert metrics["trace.unattributed_share"] <= 0.05
    assert metrics["sim.events"] == sum(o.info["events"] for o in outcomes)
    assert metrics["net.router_forwards"] == sum(
        o.info["router_forwards"] for o in outcomes)
    assert metrics["tcp.retx_share"] == 0
    assert metrics["obs.records"] == 0 and metrics["flowsim.flows"] == 0
    assert all(seams.installed.values())
    assert len(rec.raw) == seams_mod.RAW_LIMIT


def test_every_declared_per_layer_metric_is_produced(bulk_trace):
    seams, outcomes = bulk_trace
    produced = set(layers.layer_metrics(seams, outcomes))
    produced |= set(layers.PROBE_METRICS) | set(layers.CLI_METRICS)
    produced |= {"trace.overhead_ratio", "obs.enabled_overhead_ratio"}
    declared = {m["name"] for m in run.load_spec()["per_layer"]}
    assert declared == produced


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_a_flow_the_deadline_cannot_meet_is_a_failed_op():
    good = workloads.download("cubic", 200_000)
    broken = workloads.download("cubic", 200_000, deadline=0.15)
    for outcome in (good, broken):
        workloads.check_download(outcome)
    assert good.error is None
    assert broken.error == "flow not completed"
    tally = worker.Tally([good, good])
    tally.add(1, [good, broken])
    assert (tally.attempted, len(tally.failures)) == (2, 1)
    assert tally.failures[0]["op"] == broken.op
    assert len(tally.failures) / tally.attempted > 0


def test_a_result_that_differs_from_the_warm_up_is_a_failed_op():
    reference = workloads.download("cubic", 200_000)
    other = workloads.download("cubic", 201_448)
    workloads.check_download(other)
    tally = worker.Tally([reference])
    tally.add(1, [other])
    assert tally.failures[0]["reason"].startswith("result differs")


def test_an_op_that_raises_is_a_failed_op():
    outcome = workloads.attempt("boom", "-", lambda: 1 / 0)
    assert outcome.error.startswith("ZeroDivisionError")


# ----------------------------------------------------------------------
# seams come off again; a missing target is reported, not fatal
# ----------------------------------------------------------------------
def _surface():
    sim_cls = type(Simulator())
    return {(cls, attr): vars(cls).get(attr) for cls, attr in (
        (Host, "transmit"), (Host, "receive"), (TcpSender, "on_packet"),
        (TcpReceiver, "on_packet"), (sim_cls, "run"))}


def test_uninstall_restores_every_wrapped_class():
    before = _surface()
    with Seams():
        during = _surface()
        assert all(during[key] is not before[key] for key in before)
        assert global_profiler() is not None
    after = _surface()
    assert all(after[key] is before[key] for key in before)
    assert global_profiler() is None


def test_uninstall_runs_when_the_traced_round_raises():
    before = _surface()
    with pytest.raises(ZeroDivisionError):
        with Seams():
            1 / 0
    assert all(_surface()[key] is before[key] for key in before)


def test_a_removed_seam_target_reads_null(monkeypatch):
    monkeypatch.setattr(seams_mod, "CLASS_SEAMS", (
        ("repro.net", "HostThatWasRefactoredAway", ("transmit",)),
        ("repro.no_such_module", "Host", ("receive",)),
        ("repro.tcp", "TcpSender", ("on_packet",)),
        ("repro.tcp", "TcpReceiver", ("on_packet",)),
    ))
    with Seams() as seams:
        outcome = workloads.download("cubic", 200_000, seams=seams)
    assert outcome.info["completed"]
    assert seams.installed["HostThatWasRefactoredAway.transmit"] is None
    metrics = layers.layer_metrics(seams, [outcome])
    assert metrics["net.host_tx_calls"] is None
    assert metrics["net.host_rx_self_s"] is None
    assert metrics["tcp.on_packet_calls"] > 0
    # The time is still accounted for, by the spans around the gap.
    rec = seams.recorder
    assert sum(rec.layer_self().values()) == pytest.approx(
        rec.total(1, kind=OP), rel=0.01)


# ----------------------------------------------------------------------
# host-speed scale
# ----------------------------------------------------------------------
def test_a_reading_is_cpu_time_scaled_by_the_loop_time_around_it(monkeypatch):
    loops = iter([0.030, 0.036])
    monkeypatch.setattr(hostspeed, "reference_loop", lambda: next(loops))
    cpu = iter([10.0, 12.5])
    monkeypatch.setattr(hostspeed, "cpu_seconds", lambda: next(cpu))
    value, reading = hostspeed.reading(lambda: "value")
    assert value == "value"
    assert reading["cpu_s"] == 2.5
    assert reading["scale"] == pytest.approx(hostspeed.REFERENCE_S / 0.033)
    assert reading["host_s"] == pytest.approx(2.5 * reading["scale"])
    assert reading["wall_s"] >= 0.0


def test_cpu_seconds_counts_the_children_waited_for():
    before = hostspeed.cpu_seconds()
    subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    assert hostspeed.cpu_seconds() - before > 0.02


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
@pytest.mark.parametrize("a, b, expected", [
    ([1.00, 1.01, 0.99], [1.04, 1.05, 1.03], "within"),
    ([1.00, 1.01, 0.99], [1.20, 1.21, 1.19], "worse"),
    ([1.00, 1.01, 0.99], [0.80, 0.81, 0.79], "better"),
    ([1.00, 1.30, 0.90], [1.25, 0.95, 1.40], "unresolved"),
    ([1.00, 1.15, 0.95], [1.30, 1.45, 1.25], "worse"),   # wide, but disjoint
])
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(a, b, 0.10, "lower") == expected


def test_compare_flags_a_changed_digest_and_a_new_failure():
    spec = run.load_spec()
    base = {"rounds": [{"host_s": 1.0}] * 3, "setup": [{"host_s": 0.3}] * 5,
            "fixture": {"host_s": 0.0}, "peak_rss_mb": 30.0,
            "sim_fct_ms": 900.0, "fail_share": 0.0, "sim_digest": "aa"}
    moved = dict(base, sim_digest="bb", fail_share=0.5)
    rows = compare.compare(spec, {"results": {"w": base}},
                           {"results": {"w": moved}})
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts["sim_digest"] == "CHANGED"
    assert verdicts["fail_share"] == "worse"
    assert verdicts["host_s"] == "within"


# ----------------------------------------------------------------------
# hermeticity and the contract with the driver
# ----------------------------------------------------------------------
def test_children_get_no_repro_switch(monkeypatch):
    prefix = "REPRO" + "_"
    monkeypatch.setenv(prefix + "TRACE", "mem")
    monkeypatch.setenv(prefix + "ENGINE", "classic")
    env = run.child_env()
    assert not [key for key in env if key.startswith(prefix)]
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["PYTHONHASHSEED"] == "0"


def test_one_run_prints_the_result_object_and_leaves_nothing_behind():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "traced-bulk",
         "--seed", "3", "--rounds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = run.load_spec()
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".bench_tmp").exists()
    assert not (ROOT / ".repro-cache").exists()


def test_no_program_to_measure_is_an_error(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "bulk-clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.returncode not in (0, None)
    assert proc.stdout == b""


def test_benchmark_json_matches_the_workloads():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["benchmarks/perf"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names + list(workloads.WORKLOADS))


# ----------------------------------------------------------------------
# public-surface guard
# ----------------------------------------------------------------------
def allowed_surface():
    text = (HERE / "README.md").read_text(encoding="utf-8")
    block = text.split("<!-- allow-list")[1].split("<!-- end allow-list")[0]
    surface = {}
    for line in block.splitlines():
        match = re.match(r"- `(repro[\w.]*)`:(.*)", line)
        if match:
            surface[match.group(1)] = set(re.findall(r"`(\w+)`",
                                                     match.group(2)))
    return surface


def repro_imports(tree):
    """(module, name) for every import of ``repro`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def resolved_by_name(tree):
    """(module, name) the seams look up through strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "_resolve" \
                and all(isinstance(arg, ast.Constant) for arg in node.args):
            yield tuple(arg.value for arg in node.args)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLASS_SEAMS"
                for t in node.targets):
            for module, cls, _ in ast.literal_eval(node.value):
                yield module, cls


CC_HOOKS = set(seams_mod.CC_HOOKS) | {"on_packet"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_listed_public_surface_is_used(path):
    surface = allowed_surface()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = list(repro_imports(tree)) + list(resolved_by_name(tree))
    prefix = "REPRO" + "_"
    for node in ast.walk(tree):
        # code handed to child interpreters as a string is code too
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.match(r"\s*(import|from) repro\b", node.value):
                uses += list(repro_imports(ast.parse(node.value)))
            if path.name != "test_perf.py":
                assert not node.value.startswith(prefix) or (
                    path.name == "run.py" and node.value == prefix), \
                    f"{path.name}:{node.lineno} names a {prefix}* variable"
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not (
                node.attr.startswith("__") and node.attr.endswith("__"))
            own = isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls")
            assert not private or own, \
                f"{path.name}:{node.lineno} reaches into .{node.attr}"
            assert not node.attr.startswith("on_") or node.attr in CC_HOOKS, \
                f"{path.name}:{node.lineno} uses .{node.attr}"
            assert node.attr != "environ" or path.name == "run.py", \
                f"{path.name}:{node.lineno} reads the environment"
        elif isinstance(node, ast.keyword):
            assert node.arg != "backend", \
                f"{path.name}:{node.lineno} passes backend="
    for module, name in uses:
        assert not module.startswith("repro.trace"), f"{path.name}: {module}"
        assert module in surface, f"{path.name}: {module} is not listed"
        assert name is None or name in surface[module], \
            f"{path.name}: {module}.{name} is not listed"
