#!/usr/bin/env python3
"""The repo's perf record: seven workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S | --rounds R] [--trace [0|1]] [--out FILE]

Each workload runs in its own fresh, single-threaded child interpreter
(``worker.py``), strictly one at a time.  Without ``--trace`` the output
is the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it is
the per-layer metrics, from one round under the timing seams of
``seams.py`` plus the workload's probes.  Every metric is printed by
name with its unit; with ``--workload`` the last line of standard output
is the result as one JSON object.  ``--out`` writes everything measured,
for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
#: a run may take 180 s; a worker that is still going by then is stuck
WORKER_TIMEOUT_S = 170.0
#: fresh interpreters that only set up, per run
SETUP_SAMPLES = 3


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """The children's environment: no ``REPRO_*`` switch, ``src``
    importable, and one hash seed, so that str-keyed dicts and sets are
    laid out the same in every child."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: Sequence[str], env: Dict[str, str]) -> bytes:
    """Run one worker to completion and return its standard output.

    The worker gets its own process group, so that a stuck one is killed
    together with any CLI child it started.
    """
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], env=env,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, rounds: Optional[int],
                 trace: bool, env: Dict[str, str], tmp: Path
                 ) -> Dict[str, Any]:
    """All of one workload's children, one after the other."""
    args = ["--workload", name, "--seed", str(seed), "--tmp", str(tmp)]
    # Set-up: the whole life of a child that builds the inputs and exits.
    setup = [hostspeed.reading(lambda: spawn([*args, "--setup-only"], env))[1]
             for _ in range(0 if trace else SETUP_SAMPLES)]
    args += ["--seconds", str(seconds), "--trace", str(int(trace))]
    if rounds is not None:
        args += ["--rounds", str(rounds)]
    result = json.loads(spawn(args, env).decode("utf-8").splitlines()[-1])
    if not trace:
        result["setup"] = setup
        result["setup_s"] = (statistics.median(r["host_s"] for r in setup)
                             + result["fixture"]["host_s"])
    result["fail_share"] = result["failed"] / result["attempted"]
    result["units_per_s"] = (result["units"] / result["host_s"]
                             if "host_s" in result else None)
    return result


def metric_values(spec: Dict[str, Any], result: Dict[str, Any], trace: bool
                  ) -> Dict[str, Optional[float]]:
    source = result.get("per_layer", {}) if trace else result
    return {m["name"]: source.get(m["name"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_table(spec: Dict[str, Any], result: Dict[str, Any], trace: bool
                ) -> None:
    units = units_of(spec)
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if trace else 'end to end'}) ==")
    for name, value in metric_values(spec, result, trace).items():
        shown = "null" if value is None else f"{value:.6g}"
        note = ""
        if name == "host_s":
            walls = [r["wall_s"] for r in result["rounds"]]
            note = (f"  (median of n={len(walls)} rounds; wall time "
                    f"median {result['wall_s']:.4g}, "
                    f"min {min(walls):.4g}, max {max(walls):.4g})")
        elif name == "setup_s":
            note = (f"  (median of n={len(result['setup'])} fresh "
                    f"interpreters + fixture "
                    f"{result['fixture']['host_s']:.4g} s)")
        print(f"  {name:<34} {shown:>12} {units[name]}{note}")
    print(f"  {'fail_share':<34} {result['fail_share']:>12.6g} ratio  "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"]:
        print(f"    FAILED round {failure['round']} {failure['op']}: "
              f"{failure['reason']}")
    if not trace:
        print(f"  {'units':<34} {result['units']:>12} {result['unit']}s "
              f"per round ({result['units_per_s']:.6g}/s)")
    print(f"  {'sim_digest':<34} {result['sim_digest']}")


def contract_line(spec: Dict[str, Any], result: Dict[str, Any], trace: bool
                  ) -> str:
    """The driver's result object.  A per-layer metric whose seam target
    is gone is ``null`` in the table and in ``--out``; here it reads 0,
    because this object carries numbers only."""
    units = units_of(spec)
    metrics = {name: {"value": 0.0 if value is None and trace else value,
                      "unit": units[name]}
               for name, value in metric_values(spec, result, trace).items()}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure each workload for at least this long")
    parser.add_argument("--rounds", type=int, default=None,
                        help="a fixed number of timed rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the traced, per-layer pass")
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    env = child_env()
    results: Dict[str, Dict[str, Any]] = {}
    incomplete: List[str] = []
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        for name in [args.workload] if args.workload else names:
            try:
                result = run_workload(name, args.seed, args.seconds,
                                      args.rounds, trace, env, tmp)
            except (RuntimeError, ValueError, IndexError,
                    subprocess.TimeoutExpired) as exc:
                incomplete.append(f"{name}: {exc}")
                continue
            results[name] = result
            print_table(spec, result, trace)
            missing = [m for m, v in metric_values(spec, result, trace).items()
                       if v is None and not trace]
            if missing:
                incomplete.append(f"{name}: no value for {', '.join(missing)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is using it
            pass

    if args.out:
        # The raw spans go to a file of their own, one workload a line.
        raw = {name: result.pop("raw_spans") for name, result in
               results.items() if "raw_spans" in result}
        if raw:
            spans_path = args.out.with_suffix(".spans.jsonl")
            spans_path.write_text("".join(
                json.dumps({"workload": name, "spans": spans}) + "\n"
                for name, spans in raw.items()), encoding="utf-8")
        args.out.write_text(json.dumps(
            {"seed": args.seed, "trace": trace, "seconds": args.seconds,
             "rounds": args.rounds, "results": results}, indent=1) + "\n",
            encoding="utf-8")
    for line in incomplete:
        print(f"run.py: {line}", file=sys.stderr)
    if incomplete:
        return 1
    if args.workload:
        print(contract_line(spec, results[args.workload], trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
