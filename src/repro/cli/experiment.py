"""``repro experiment`` / ``repro profile``: regenerate a paper figure or
table, plainly or under the event profiler."""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.cli.common import add_campaign_flags, cc_name, open_run, scenario
from repro.core.units import MB

#: experiment name -> module under ``repro.experiments``
EXPERIMENTS = {
    "fig01": "fig01_motivation",
    "fig02": "fig02_competition",
    "fig09": "fig09_cwnd_rtt",
    "fig10": "fig10_delivered",
    "fig11": "fig11_12_fct",
    "fig13": "fig13_large_flow",
    "fig14": "fig14_loss",
    "fig15": "fig15_fairness",
    "fig16": "fig16_stability_trace",
    "table1": "table1_stability",
    "fig18": "fig17_18_all_scenarios",
    "topo": "topo_suite",
    "kmax": "ablation_kmax",
    "btlbw": "ablation_btlbw",
    "aqm": "ablation_aqm",
    "delack": "ablation_delack",
    "related-work": "ext_related_work",
    "burstiness": "ext_burstiness",
    "crosstraffic": "ext_crosstraffic",
    "traffic-mix": "ext_traffic_mix",
}


def _run_experiment(args: argparse.Namespace):
    """Run the harness ``args.name`` names; ``(module, results)``.  The
    campaign-backed ones take the shared ``--jobs`` / cache / observer."""
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[args.name]}")
    if args.name == "fig02":
        return module, module.run_comparison()
    if args.name == "fig18":
        return module, module.run_matrix(**open_run(args).kwargs)
    if args.name in ("table1", "topo"):
        return module, module.run(**open_run(args).kwargs)
    return module, module.run()


def add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=sorted(EXPERIMENTS))
    add_campaign_flags(parser)


def cmd_experiment(args: argparse.Namespace) -> int:
    module, results = _run_experiment(args)
    if args.name == "fig18":
        print(module.format_fct_report(results))
        print()
        print(module.format_loss_report(results))
    elif args.name != "topo":  # topo_suite.run prints its own table
        print(module.format_report(results))
    return 0


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=sorted(EXPERIMENTS) + ["single"],
                        help="experiment name, or 'single' for one download")
    parser.add_argument("--scenario",
                        help="scenario name (with name='single')")
    parser.add_argument("--cc", type=cc_name, default="cubic+suss")
    parser.add_argument("--size", type=int, default=2 * MB)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=15,
                        help="show only the hottest N event types")
    parser.add_argument("--sort", choices=["total", "count", "mean"],
                        default="total",
                        help="report column to sort by (descending)")
    parser.add_argument("--collapsed", action="store_true",
                        help="emit flamegraph folded-stack lines instead "
                             "of the table")
    add_campaign_flags(parser)


def cmd_profile(args: argparse.Namespace) -> int:
    """Run an experiment (or one download) under the event profiler.

    Profiling is in-process: with ``--jobs`` above 1 the worker
    processes' events do not reach this report, so the default is the
    inline runner.
    """
    from repro.obs import profile as obs_profile

    profiler = obs_profile.install_global()
    try:
        if args.name == "single":
            from repro.experiments.runner import run_single_flow

            if not args.scenario:
                raise SystemExit("repro profile single: --scenario required")
            result = run_single_flow(scenario(args.scenario), args.cc,
                                     args.size, seed=args.seed)
            if not result.completed:
                print("flow did not complete within the deadline",
                      file=sys.stderr)
                return 1
        else:
            _run_experiment(args)
    finally:
        obs_profile.clear_global()
    if args.collapsed:
        print("\n".join(profiler.collapsed_stacks()))
    else:
        print(profiler.format_report(top=args.top, sort=args.sort))
    return 0


COMMANDS = {
    "experiment": (add_experiment_arguments, cmd_experiment),
    "profile": (add_profile_arguments, cmd_profile),
}
