"""The seven workloads: seeded op lists over repro's public API, each checked.

A workload builds its inputs from the seed (``__init__``), may need a
one-off fixture (``cli-warm`` populates its store), and then runs
*rounds*: one pass over its fixed op list, returning one
:class:`Outcome` per op.  ``verify`` checks every outcome outside the
timed region.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``README.md``.

Seeds.  ``--seed`` is the per-job simulation seed of ``short-flows`` /
``cli-warm`` and the fleet seed of ``flowsim-fleet``.  The constant-path
workloads have nothing random in them and ``topo-cross``'s heavy-tailed
cross traffic moves host time by tens of percent from one seed to the
next, so there the seed pads each transfer by at most
:data:`PAD_SHARE` of its size (and the cross-traffic seed stays
:data:`CROSS_SEED`): inputs still follow from the seed, no two seeds
read the same, and a run-to-run spread stays a property of the host.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign import ResultStore, run_campaign, single_flow_job
from repro.experiments.runner import run_topo_flow
from repro.flowsim import PathParams, SweepConfig, run_sweep
from repro.net import bdp_bytes, build_path
from repro.obs import JsonlSink, tracing
from repro.sim import Simulator
from repro.tcp import open_transfer
from repro.workloads import INTERNET_SCENARIOS

from seams import Seams, TimedSink, timed_store

#: the constant path of the bulk workloads: 100 Mbit/s × 100 ms, 1×BDP buffer
RATE, RTT = 12_500_000, 0.1
#: a seeded pad of at most this share is added to constant-path transfers
PAD_SHARE = 0.005
#: cross-traffic seed of ``topo-cross`` (see the module docstring)
CROSS_SEED = 1
#: simulated-time bound of a constant-path download (20 MB takes ~2.4 s)
DEADLINE = 600.0

SCHEMES = ("cubic", "cubic+suss")
SIZES = (100_000, 1_000_000)
#: simulated statistics of a flow; what ``sim_digest`` covers
STAT_KEYS = ("fct", "data_packets_sent", "retransmissions", "rto_count",
             "drops")


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


def padded(size: int, seed: int, tag: str) -> int:
    """``size`` plus the seeded pad for the op called ``tag``."""
    return size + random.Random(f"{seed}:{tag}").randrange(
        int(size * PAD_SHARE))


@dataclass
class Outcome:
    """What one op produced.

    ``stats`` holds one dict per simulated flow (or modelled fleet, with
    its flow count as ``n``): the simulated statistics, which must
    repeat exactly from round to round.  ``info`` holds host-side facts
    that may not (run times, file paths).
    """

    op: str
    scheme: str
    stats: List[Dict[str, Any]]
    units: int = 1
    error: Optional[str] = None
    info: Dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason


def flow_stats(value: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value[key] for key in STAT_KEYS}


def attempt(op: str, scheme: str, fn) -> Outcome:
    """``fn()``'s outcome; an op that raises is a failed op, not a crash."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 — any failure of the op is data
        return Outcome(op=op, scheme=scheme, stats=[],
                       error=f"{type(exc).__name__}: {exc}")


def _op(seams: Optional[Seams], group: str):
    return seams.op(group) if seams is not None else nullcontext()


def _call(seams: Optional[Seams], fn, *args, **kwargs):
    return seams.call(fn, *args, **kwargs) if seams is not None \
        else fn(*args, **kwargs)


class Workload:
    """Base: the op list is built in ``__init__`` from the seed alone."""

    name = ""
    unit = ""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root  # the checkout; only ``cli-warm`` needs it

    def fixture(self, tmp: Path) -> None:
        """One-off set-up that is not input generation."""

    def round(self, tmp: Path, seams: Optional[Seams] = None) -> List[Outcome]:
        raise NotImplementedError

    def verify(self, outcomes: Sequence[Outcome]) -> None:
        raise NotImplementedError

    def sim_stats(self, outcomes: Sequence[Outcome]) -> List[Dict[str, Any]]:
        """The simulated statistics of every flow, in op order."""
        return [s for o in outcomes for s in o.stats]


def _check_flow(outcome: Outcome, value: Dict[str, Any], size: int) -> None:
    if not value.get("completed"):
        outcome.fail("flow not completed")
    elif value.get("size_bytes") != size:
        outcome.fail(f"size {value.get('size_bytes')} != requested {size}")


# ----------------------------------------------------------------------
# short-flows / cli-warm: the same 112 jobs, all misses vs. all hits
# ----------------------------------------------------------------------
def campaign_specs(seed: int) -> list:
    """The jobs ``repro campaign --sizes … --ccs … --iterations 1`` runs."""
    return [single_flow_job(scenario, cc, size, seed=seed)
            for scenario in INTERNET_SCENARIOS.values()
            for size in SIZES for cc in SCHEMES]


class ShortFlows(Workload):
    name = "short-flows"
    unit = "job"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.specs = campaign_specs(seed)

    def round(self, tmp, seams=None):
        specs = self.specs
        if seams is None:
            store = ResultStore(tmp / "store")
        else:
            # A put ends a job, so the next job's scheme becomes the group.
            groups = iter([s.params["cc"] for s in specs[1:]])
            store = timed_store(
                seams.recorder, tmp / "store",
                on_put=lambda: seams.recorder.set_group(next(groups, "-")))
        with _op(seams, specs[0].params["cc"]):
            results = _call(seams, run_campaign, specs, jobs=1, store=store)
        outcomes = []
        for spec, result in zip(specs, results):
            value = result.value or {}
            outcomes.append(Outcome(
                op=spec.label, scheme=spec.params["cc"],
                stats=[flow_stats(value)] if result.ok else [],
                info={"status": result.status, "cached": result.cached,
                      "runtime": result.runtime, "value": value,
                      "size": spec.params["size_bytes"]}))
        return outcomes

    def verify(self, outcomes):
        if len(outcomes) != len(self.specs):
            raise RuntimeError(f"{len(outcomes)} results for "
                               f"{len(self.specs)} jobs")
        for outcome in outcomes:
            info = outcome.info
            if info["status"] != "ok":
                outcome.fail(f"job status {info['status']}")
            elif info["cached"]:
                outcome.fail("job was a cache hit in a fresh store")
            else:
                _check_flow(outcome, info["value"], info["size"])


class CliWarm(Workload):
    name = "cli-warm"
    unit = "CLI invocation"
    invocations = 10

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.specs = campaign_specs(seed)
        self.cache: Optional[Path] = None

    def _invoke(self, tmp: Path) -> Tuple[subprocess.CompletedProcess,
                                          Dict[str, Any], float]:
        stats_path = tmp / "stats.json"
        stats_path.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--sizes", ",".join(map(str, SIZES)), "--ccs", ",".join(SCHEMES),
             "--iterations", "1", "--seed", str(self.seed), "--jobs", "1",
             "--cache-dir", str(self.cache), "--quiet",
             "--stats-json", str(stats_path)],
            cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            check=False)
        wall = time.perf_counter() - start
        try:
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            stats = {}
        return proc, stats, wall

    def fixture(self, tmp):
        """The one cold populate; every job must execute."""
        self.cache = tmp / "cache"
        proc, stats, _ = self._invoke(tmp)
        total = len(self.specs)
        if proc.returncode != 0 or stats.get("executed") != total \
                or stats.get("total") != total:
            raise RuntimeError(
                f"cold populate failed: exit {proc.returncode}, stats "
                f"{stats}: {proc.stderr.decode(errors='replace')[-500:]}")

    def round(self, tmp, seams=None):
        # No seam reaches a child interpreter; see layers.cli_metrics.
        outcomes = []
        for i in range(self.invocations):
            proc, stats, wall = self._invoke(tmp)
            counts = {k: stats.get(k)
                      for k in ("total", "executed", "cached", "failed")}
            # The closing "campaign: … elapsed=…s" line is host time.
            counts["report_sha256"] = hashlib.sha256(b"".join(
                line for line in proc.stdout.splitlines(keepends=True)
                if not line.startswith(b"campaign:"))).hexdigest()
            outcomes.append(Outcome(
                op=f"campaign#{i}", scheme="-", stats=[counts],
                info={"returncode": proc.returncode, "wall_s": wall,
                      "elapsed_s": stats.get("elapsed")}))
        return outcomes

    def verify(self, outcomes):
        total = len(self.specs)
        for outcome in outcomes:
            counts = outcome.stats[0]
            if outcome.info["returncode"] != 0:
                outcome.fail(f"CLI exit {outcome.info['returncode']}")
            elif counts["total"] != total or counts["cached"] != total:
                outcome.fail(f"cached {counts['cached']} of {counts['total']}"
                             f", expected {total}")

    def stored_values(self) -> List[Dict[str, Any]]:
        """The simulated results, read back from the populated store."""
        store = ResultStore(self.cache)
        records = [store.get(spec.job_hash) for spec in self.specs]
        return [r["value"] for r in records if r is not None]

    def sim_stats(self, outcomes):
        return [flow_stats(value) for value in self.stored_values()]


# ----------------------------------------------------------------------
# constant-path downloads: bulk-clean, burst-loss, traced-bulk
# ----------------------------------------------------------------------
def download(cc: str, size: int, *, seams: Optional[Seams] = None,
             trace_path: Optional[Path] = None, sim: Optional[Any] = None,
             deadline: float = DEADLINE) -> Outcome:
    """One download over the constant path, through ``open_transfer``."""
    sink = None
    if sim is None and trace_path is not None:
        sink = jsonl = JsonlSink(str(trace_path))
        if seams is not None:
            sink = TimedSink(jsonl, seams.recorder)
        sim = Simulator(obs=tracing(
            sink, profiler=seams.profiler if seams is not None else None))
    elif sim is None:
        sim = Simulator()
    with _op(seams, cc):
        net = build_path(sim, RATE, RTT, bdp_bytes(RATE, RTT))
        transfer = open_transfer(sim, net.servers[0], net.clients[0],
                                 flow_id=1, size_bytes=size, cc=cc)
        sim.run(until=deadline)
        if sink is not None:
            sink.close()
    sender = transfer.sender
    return Outcome(
        op=f"{cc} {size}B", scheme=cc, units=sender.data_packets_sent,
        stats=[{"fct": transfer.fct,
                "data_packets_sent": sender.data_packets_sent,
                "retransmissions": sender.retransmissions,
                "rto_count": sender.rto_count,
                "drops": net.bottleneck_queue.drops}],
        info={"completed": transfer.completed, "size": size,
              "delivered": transfer.receiver.bytes_delivered,
              "events": sim.events_processed,
              "router_forwards": (net.left_router.packets_forwarded
                                  + net.right_router.packets_forwarded),
              "trace_path": trace_path,
              "trace_lines": jsonl.lines if sink is not None else 0})


def check_download(outcome: Outcome) -> None:
    info = outcome.info
    if not info["completed"]:
        outcome.fail("flow not completed")
    elif info["delivered"] != info["size"]:
        outcome.fail(f"delivered {info['delivered']} of {info['size']} bytes")


class Downloads(Workload):
    """``ccs`` × one padded size over the constant path."""

    unit = "data packet"
    size = 0
    ccs: Tuple[str, ...] = ()
    traced = False

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.ops = [(cc, padded(self.size, seed, f"{self.name}:{cc}"))
                    for cc in self.ccs]

    def round(self, tmp, seams=None):
        return [attempt(f"{cc} {size}B", cc, lambda: download(
                    cc, size, seams=seams,
                    trace_path=(tmp / f"trace-{i}.jsonl"
                                if self.traced else None)))
                for i, (cc, size) in enumerate(self.ops)]

    def verify(self, outcomes):
        for outcome in outcomes:
            if outcome.error is None:
                check_download(outcome)


class BulkClean(Downloads):
    name = "bulk-clean"
    size = 20_000_000
    ccs = SCHEMES


class BurstLoss(Downloads):
    name = "burst-loss"
    size = 10_000_000
    ccs = ("reno", "bbr")


class TracedBulk(Downloads):
    name = "traced-bulk"
    unit = "trace record"
    size = 10_000_000
    ccs = SCHEMES
    traced = True

    def round(self, tmp, seams=None):
        outcomes = super().round(tmp, seams)
        for outcome in outcomes:
            outcome.units = outcome.info.get("trace_lines", 0)
        return outcomes

    def verify(self, outcomes):
        super().verify(outcomes)
        for outcome in outcomes:
            if outcome.error is not None:
                continue
            sha = hashlib.sha256()
            records = 0
            try:
                with open(outcome.info["trace_path"], "rb") as fh:
                    for line in fh:
                        json.loads(line)
                        sha.update(line)
                        records += 1
            except (OSError, ValueError) as exc:
                outcome.fail(f"trace unreadable: {exc}")
                continue
            if records == 0 or records != outcome.info["trace_lines"]:
                outcome.fail(f"trace has {records} records, sink wrote "
                             f"{outcome.info['trace_lines']}")
            outcome.stats[0]["trace_records"] = records
            outcome.stats[0]["trace_sha256"] = sha.hexdigest()
            outcome.info["trace_bytes"] = Path(
                outcome.info["trace_path"]).stat().st_size


# ----------------------------------------------------------------------
# topo-cross
# ----------------------------------------------------------------------
class TopoCross(Workload):
    name = "topo-cross"
    unit = "op"
    topologies = ("mesh-diamond", "parking-lot-3", "multi-bottleneck-4",
                  "lfn-satellite")
    size = 5_000_000

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.ops = [(topo, cc, padded(self.size, seed, f"{topo}:{cc}"))
                    for topo in self.topologies for cc in SCHEMES]

    def round(self, tmp, seams=None):
        def one(topo: str, cc: str, size: int) -> Outcome:
            with _op(seams, cc):
                value = _call(seams, run_topo_flow, topo, cc, size,
                              CROSS_SEED, cross_load=1.0)
            return Outcome(
                op=f"{topo} {cc}", scheme=cc, stats=[flow_stats(value)],
                info={"value": value, "size": size,
                      "cross_flows": value["cross_flows"]})

        return [attempt(f"{topo} {cc}", cc, lambda: one(topo, cc, size))
                for topo, cc, size in self.ops]

    def verify(self, outcomes):
        for outcome in outcomes:
            if outcome.error is None:
                _check_flow(outcome, outcome.info["value"],
                            outcome.info["size"])


# ----------------------------------------------------------------------
# flowsim-fleet
# ----------------------------------------------------------------------
class FlowsimFleet(Workload):
    name = "flowsim-fleet"
    unit = "modelled flow"
    fleet = 1_000_000

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.config = SweepConfig(
            path=PathParams(rtt=0.04, btl_bw=2_500_000), flows=self.fleet,
            size_dist="campus", seed=seed)

    def _sweep(self, seams: Optional[Seams]) -> Outcome:
        with _op(seams, "-"):
            result = _call(seams, run_sweep, self.config)
        stats = [{"model": name, "n": fleet.n_flows,
                  "fct": statistics.fmean(fleet.fcts),
                  "data_packets_sent": fleet.total_segments,
                  "retransmissions": fleet.expected_retransmits,
                  "rto_count": 0, "drops": 0}
                 for name, fleet in result.fleets.items()]
        return Outcome(op="sweep", scheme="-", stats=stats,
                       units=sum(s["n"] for s in stats))

    def round(self, tmp, seams=None):
        return [attempt("sweep", "-", lambda: self._sweep(seams))]

    def verify(self, outcomes):
        for outcome in outcomes:
            models = [s["model"] for s in outcome.stats]
            if outcome.error is not None:
                continue
            if models != list(self.config.models):
                outcome.fail(f"models {models}")
            elif any(s["n"] != self.fleet for s in outcome.stats):
                outcome.fail(f"n_flows {[s['n'] for s in outcome.stats]} "
                             f"!= {self.fleet}")


WORKLOADS = {cls.name: cls for cls in (
    ShortFlows, CliWarm, BulkClean, BurstLoss, TopoCross, TracedBulk,
    FlowsimFleet)}
