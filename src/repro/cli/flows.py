"""``repro list-scenarios`` / ``list-cc`` / ``run`` / ``sweep``: the
scenario and algorithm catalogues, one download, one FCT sweep."""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.cli.common import (
    add_campaign_flags,
    cc_name,
    comma_separated,
    no_arguments,
    open_run,
    positive_float,
    positive_int,
    scenario,
)
from repro.core.units import BITS_PER_BYTE, MB, MBIT, MBPS, MILLIS_PER_SECOND
from repro.experiments.report import pct, render_table
from repro.workloads.scenarios import INTERNET_SCENARIOS


def cmd_list_scenarios(args: argparse.Namespace) -> int:
    rows = []
    for name, sc in sorted(INTERNET_SCENARIOS.items()):
        rows.append([name, f"{sc.rtt * MILLIS_PER_SECOND:.0f} ms",
                     f"{sc.btl_bw / MBPS:.0f} Mbps",
                     f"{sc.bw_variation:.2f}", f"{sc.jitter * MILLIS_PER_SECOND:.1f} ms",
                     f"{sc.buffer_bdp:.2f} BDP", sc.client_location])
    print(render_table(
        ["scenario", "RTT", "BtlBw", "bw var", "jitter", "buffer",
         "client"], rows,
        title="Internet-scale scenarios (paper Figs. 17-18)"))
    return 0


def cmd_list_cc(args: argparse.Namespace) -> int:
    from repro.cc.base import available

    for name in available():
        print(name)
    return 0


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True,
                        help="scenario name, e.g. google-tokyo/wired")
    parser.add_argument("--cc", type=cc_name, default="cubic+suss")
    parser.add_argument("--size", type=positive_int, default=2 * MB,
                        help="flow size in bytes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", help="write cwnd/rtt/delivered trace CSV")
    parser.add_argument("--csv-interval", type=positive_float, default=0.05)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_single_flow

    path = scenario(args.scenario)
    result = run_single_flow(path, args.cc, args.size, seed=args.seed,
                             collect=bool(args.csv))
    if not result.completed:
        print("flow did not complete within the deadline", file=sys.stderr)
        return 1
    print(f"scenario:        {path.name}")
    print(f"cc:              {args.cc}")
    print(f"size:            {args.size} bytes")
    print(f"fct:             {result.fct:.4f} s")
    print(f"goodput:         {args.size / result.fct * BITS_PER_BYTE / MBIT:.2f} Mbit/s")
    print(f"loss rate:       {result.loss_rate * 100:.3f}%")
    print(f"retransmissions: {result.retransmissions}")
    print(f"timeouts:        {result.rto_count}")
    if args.csv:
        from repro.metrics.timeseries import write_multi_timeseries

        trace = result.telemetry.flow(1)
        with open(args.csv, "w") as out:
            write_multi_timeseries(out, {"cwnd": trace.cwnd,
                                         "rtt": trace.rtt,
                                         "delivered": trace.delivered},
                                   interval=args.csv_interval)
        print(f"trace written:   {args.csv}")
    return 0


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--ccs", type=comma_separated(cc_name),
                        default="cubic,cubic+suss")
    parser.add_argument("--sizes", type=comma_separated(positive_int),
                        default="1000000,2000000,4000000")
    parser.add_argument("--iterations", type=positive_int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    add_campaign_flags(parser)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import sweep_summaries

    path = scenario(args.scenario)
    ccs = args.ccs
    summaries = sweep_summaries(path, ccs, args.sizes, args.iterations,
                                args.seed, **open_run(args).kwargs)
    rows = []
    for size in args.sizes:
        row: List[object] = [size / MB]
        for cc in ccs:
            summary = summaries[(cc, size)]
            row.append(f"{summary.mean:.3f}±{summary.std:.3f}")
        if "cubic" in ccs and "cubic+suss" in ccs:
            base = summaries[("cubic", size)].mean
            suss = summaries[("cubic+suss", size)].mean
            row.append(pct((base - suss) / base))
        rows.append(row)
    headers = ["size (MB)"] + [f"{cc} FCT (s)" for cc in ccs]
    if "cubic" in ccs and "cubic+suss" in ccs:
        headers.append("SUSS improvement")
    print(render_table(headers, rows,
                       title=f"FCT sweep — {path.name} "
                             f"({args.iterations} iterations)"))
    return 0


COMMANDS = {
    "list-scenarios": (no_arguments, cmd_list_scenarios),
    "list-cc": (no_arguments, cmd_list_cc),
    "run": (add_run_arguments, cmd_run),
    "sweep": (add_sweep_arguments, cmd_sweep),
}
