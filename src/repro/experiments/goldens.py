"""Golden-trace capture: canonical fixed-seed runs for regression pinning.

A *golden trace* is the full structured trace of one fixed-seed download,
committed (as a digest plus a gzipped JSONL stream) under
``tests/golden/``.  The regression suite re-runs each golden scenario
and compares digests; on mismatch it loads the stored stream and reports
the first diverging record, which localises behaviour changes to a
specific simulation event instead of a final FCT number.

This module owns the *capture* side — which runs are golden and how to
execute them — while :mod:`repro.obs.golden` owns the pure digest/diff
machinery.  Keep the run list small and the flows short: the streams
live in git.

Updating after an intentional behaviour change::

    python -m repro trace --update-golden

(or ``update_goldens(...)`` from code).  The refreshed digests land in
``tests/golden/digests.json`` and the streams next to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.core.units import MBPS, Bytes, Seconds
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.obs.golden import (
    RECOVERY_DIGEST_FILE,
    load_stream,
    save_digest,
    save_golden,
    trace_digest,
)
from repro.obs.records import TraceRecord
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads import INTERNET_SCENARIOS
from repro.workloads.scenarios import PathScenario


@dataclass(frozen=True)
class GoldenRun:
    """One canonical fixed-seed run."""

    scenario: str
    cc: str
    size_bytes: Bytes
    seed: int


#: name -> canonical run.  Short transfers on a low-jitter path keep the
#: committed streams small while still exercising slow start, HyStart,
#: and (for the SUSS variants) the accelerate/abort decision points.
GOLDEN_RUNS: Dict[str, GoldenRun] = {
    "cubic": GoldenRun("google-tokyo/wired", "cubic", 400_000, 1),
    "cubic+suss": GoldenRun("google-tokyo/wired", "cubic+suss", 400_000, 1),
    "bbr+suss": GoldenRun("google-tokyo/wired", "bbr+suss", 400_000, 1),
}


def _recovery_path(name: str, mbit: float, rtt: Seconds,
                   buffer_bdp: float,
                   loss_rate: float = 0.0) -> PathScenario:
    """A constant-rate lab path for one way of entering loss recovery."""
    return PathScenario(name=f"recovery/{name}", server="recovery",
                        link_type=name, client_location="lab", rtt=rtt,
                        btl_bw=mbit * MBPS, bw_variation=0.0, jitter=0.0,
                        loss_rate=loss_rate, buffer_bdp=buffer_bdp)


#: The three ways a flow ends up in SACK recovery: a slow-start overshoot
#: into a 1xBDP drop-tail buffer (on a path short enough that CUBIC's
#: HyStart does not save it either), scattered random loss, and
#: reordering (spurious recovery with nothing actually lost).
RECOVERY_PATHS: Dict[str, PathScenario] = {
    "droptail": _recovery_path("droptail", 10, 0.020, buffer_bdp=1.0),
    "netem-loss": _recovery_path("netem-loss", 20, 0.050, buffer_bdp=4.0,
                                 loss_rate=0.02),
    "reorder": _recovery_path("reorder", 20, 0.050, buffer_bdp=4.0),
}

#: Per-packet extra delay bound at the reordering client: 4 ms is ~7
#: serialisation times at 20 Mbit/s, enough for three duplicate ACKs.
REORDER_SPREAD = 0.004

RECOVERY_CCS = ("reno", "bbr", "cubic", "cubic+suss")

#: name -> recovery run.  The clean-path goldens above never enter loss
#: recovery; these pin it event by event.  Only digests are committed
#: (the streams are 10-20x longer than the clean ones).
RECOVERY_RUNS: Dict[str, GoldenRun] = {
    f"{path}/{cc}": GoldenRun(path, cc, 2_000_000, 1)
    for path in RECOVERY_PATHS for cc in RECOVERY_CCS
}

#: default on-disk location of the committed golden data
DEFAULT_GOLDEN_DIR = (Path(__file__).resolve().parents[3]
                      / "tests" / "golden")


def reorder_deliveries(sim: Simulator, host: Host, rng: RngRegistry) -> None:
    """Hold each DATA packet arriving at ``host`` for a seeded random
    extra delay, so later packets overtake earlier ones.  (Link jitter
    cannot do this: links clamp arrivals to FIFO order.)"""
    stream = rng.stream(f"reorder:{host.name}")
    deliver = host.receive

    def receive(packet: Packet) -> None:
        if packet.kind is PacketKind.DATA:
            sim.schedule(stream.uniform(0.0, REORDER_SPREAD), deliver, packet)
        else:
            deliver(packet)

    host.receive = receive


def capture_records(name: str) -> List[TraceRecord]:
    """Execute one golden run under an in-memory sink; return its records."""
    from repro.experiments.runner import run_single_flow

    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    if name in RECOVERY_RUNS:
        run = RECOVERY_RUNS[name]
        scenario = RECOVERY_PATHS[run.scenario]
        sim = Simulator(obs=obs)
        rng = RngRegistry(run.seed)
        net = scenario.build(sim, rng)
        if run.scenario == "reorder":
            reorder_deliveries(sim, net.clients[0], rng)
        result = run_single_flow(scenario, run.cc, run.size_bytes,
                                 seed=run.seed, net=net, sim=sim)
    else:
        run = GOLDEN_RUNS[name]
        scenario = INTERNET_SCENARIOS[run.scenario]
        result = run_single_flow(scenario, run.cc, run.size_bytes,
                                 seed=run.seed, obs=obs)
    obs.close()
    if not result.completed:
        raise RuntimeError(f"golden run {name!r} did not complete")
    return sink.records


def capture_lines(name: str) -> List[str]:
    """Canonical JSONL lines (no trailing newline) of one golden run."""
    return [record.to_line() for record in capture_records(name)]


def capture_digest(name: str) -> str:
    """Streaming SHA-256 digest of one golden run's trace."""
    return trace_digest(capture_records(name))


def update_goldens(golden_dir: Optional[Path] = None,
                   names: Optional[Iterable[str]] = None) -> Dict[str, str]:
    """(Re)record golden data for ``names`` (default: all runs).

    Clean-path runs are stored as digest + stream, recovery runs as a
    digest only (``recovery_digests.json``).
    """
    directory = Path(golden_dir) if golden_dir is not None \
        else DEFAULT_GOLDEN_DIR
    known = sorted(GOLDEN_RUNS) + sorted(RECOVERY_RUNS)
    digests: Dict[str, str] = {}
    for name in (list(names) if names is not None else known):
        if name in GOLDEN_RUNS:
            digests[name] = save_golden(directory, name, capture_lines(name))
        elif name in RECOVERY_RUNS:
            digests[name] = save_digest(directory, name, capture_lines(name),
                                        RECOVERY_DIGEST_FILE)
        else:
            raise KeyError(f"unknown golden run {name!r}; "
                           f"known: {', '.join(known)}")
    return digests


def golden_stream(name: str,
                  golden_dir: Optional[Path] = None) -> List[str]:
    """The committed JSONL lines for ``name`` (for divergence diffs)."""
    directory = Path(golden_dir) if golden_dir is not None \
        else DEFAULT_GOLDEN_DIR
    return load_stream(directory, name)
