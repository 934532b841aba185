"""One workload in one fresh interpreter; ``run.py`` starts these one at a time.

Set-up (imports, input generation, fixture), one untimed warm-up round
whose results become the reference every later round must reproduce,
then the timed rounds.  With ``--trace`` the timed rounds are one
untraced round and one round under the seams of ``seams.py``, followed
by the workload's probes.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import hostspeed
import layers
from seams import Seams
from workloads import WORKLOADS, Outcome, Workload, digest, download


MIN_ROUNDS = 3
Reading = Dict[str, float]


def run_round(workload: Workload, tmp_root: Path, index: int,
              seams: Optional[Seams] = None) -> Tuple[Reading, List[Outcome]]:
    """One pass over the op list: its reading (see ``hostspeed.reading``)
    and the outcomes, verified outside the timing."""
    tmp = tmp_root / f"round-{index}"
    tmp.mkdir()
    try:
        outcomes, reading = hostspeed.reading(
            lambda: workload.round(tmp, seams))
        workload.verify(outcomes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return reading, outcomes


class Tally:
    """Failure accounting over the timed rounds."""

    def __init__(self, reference: Sequence[Outcome]) -> None:
        self.reference = [digest(o.stats) for o in reference]
        self.attempted = 0
        self.failures: List[Dict[str, Any]] = []

    def add(self, round_index: int, outcomes: Sequence[Outcome]) -> None:
        for i, outcome in enumerate(outcomes):
            if outcome.error is None and (
                    i >= len(self.reference)
                    or digest(outcome.stats) != self.reference[i]):
                outcome.fail("result differs from the warm-up round's")
            self.attempted += 1
            if outcome.error is not None:
                self.failures.append({"round": round_index, "op": outcome.op,
                                      "reason": outcome.error})


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def timed_rounds(workload: Workload, tmp: Path, seconds: float,
                 rounds: Optional[int], tally: Tally) -> Dict[str, Any]:
    """``rounds`` rounds, or as many as it takes to measure for ``seconds``
    (at least :data:`MIN_ROUNDS`, so that one slow round cannot be the
    median)."""
    readings: List[Reading] = []
    while (len(readings) < rounds if rounds is not None
           else len(readings) < MIN_ROUNDS
           or sum(r["wall_s"] for r in readings) < seconds):
        reading, outcomes = run_round(workload, tmp, len(readings) + 1)
        tally.add(len(readings) + 1, outcomes)
        readings.append(reading)
    return {"rounds": readings,
            "host_s": statistics.median(r["host_s"] for r in readings),
            "wall_s": statistics.median(r["wall_s"] for r in readings)}


def traced_rounds(workload: Workload, tmp: Path, tally: Tally
                  ) -> Dict[str, Any]:
    """One untraced round, one round under the seams, then the probes."""
    untraced, outcomes = run_round(workload, tmp, 1)
    tally.add(1, outcomes)
    with Seams() as seams:
        traced, outcomes = run_round(workload, tmp, 2, seams)
    tally.add(2, outcomes)
    metrics: Dict[str, Optional[float]] = layers.run_probes(workload)
    metrics.update(layers.layer_metrics(seams, outcomes))
    if workload.name == "cli-warm":
        metrics.update(layers.cli_metrics(workload, outcomes))
    metrics["trace.overhead_ratio"] = traced["host_s"] / untraced["host_s"]
    metrics["obs.enabled_overhead_ratio"] = 0.0
    if workload.name == "traced-bulk":
        _, plain = hostspeed.reading(
            lambda: [download(cc, size) for cc, size in workload.ops])
        metrics["obs.enabled_overhead_ratio"] = (untraced["host_s"]
                                                 / plain["host_s"])
    recorder = seams.recorder
    return {"per_layer": metrics, "untraced": untraced, "traced": traced,
            "seams": seams.installed,
            "layer_self_s": recorder.layer_self(),
            "spans": recorder.span_table(),
            "raw_spans": [s for s in recorder.raw if s is not None]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True, type=Path,
                        help="scratch directory (run.py makes and removes it)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit; run.py reads the "
                             "CPU time this took")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parents[2]
    workload = WORKLOADS[args.workload](args.seed, root)
    if args.setup_only:
        return 0

    _, fixture = hostspeed.reading(lambda: workload.fixture(args.tmp))
    _, reference = run_round(workload, args.tmp, 0)
    sim_stats = workload.sim_stats(reference)
    flows = [(s["fct"], s.get("n", 1)) for s in sim_stats
             if s.get("fct") is not None]
    tally = Tally(reference)
    result: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed, "unit": workload.unit,
        "fixture": fixture,
        "units": sum(o.units for o in reference),
        # None (no flow finished) makes run.py exit non-zero.
        "sim_fct_ms": (1e3 * sum(f * n for f, n in flows)
                       / sum(n for _, n in flows)) if flows else None,
        "sim_digest": digest(sim_stats),
    }
    if args.trace:
        result.update(traced_rounds(workload, args.tmp, tally))
    else:
        result.update(timed_rounds(workload, args.tmp, args.seconds,
                                   args.rounds, tally))
    result.update(attempted=tally.attempted, failed=len(tally.failures),
                  failures=tally.failures, peak_rss_mb=peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
