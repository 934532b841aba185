"""``repro experiment`` / ``repro profile``: regenerate a paper figure or
table, plainly or under the event profiler."""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.cli.common import (
    add_campaign_flags,
    cc_name,
    open_run,
    positive_int,
    scenario,
)
from repro.core.units import MB

#: experiment name -> (module under ``repro.experiments``, whether its
#: ``run`` takes the campaign runner's ``jobs`` / ``store`` / ``telemetry``).
#: Every module exposes ``run(...)`` (results, printing nothing) and
#: ``format_report(results) -> str``.
EXPERIMENTS = {
    "fig01": ("fig01_motivation", False),
    "fig02": ("fig02_competition", False),
    "fig09": ("fig09_cwnd_rtt", False),
    "fig10": ("fig10_delivered", False),
    "fig11": ("fig11_12_fct", False),
    "fig13": ("fig13_large_flow", False),
    "fig14": ("fig14_loss", False),
    "fig15": ("fig15_fairness", False),
    "fig16": ("fig16_stability_trace", False),
    "table1": ("table1_stability", True),
    "fig18": ("fig17_18_all_scenarios", True),
    "topo": ("topo_suite", True),
    "kmax": ("ablation_kmax", False),
    "btlbw": ("ablation_btlbw", False),
    "aqm": ("ablation_aqm", False),
    "delack": ("ablation_delack", False),
    "related-work": ("ext_related_work", False),
    "burstiness": ("ext_burstiness", False),
    "crosstraffic": ("ext_crosstraffic", False),
    "traffic-mix": ("ext_traffic_mix", False),
    "bbr-suss": ("ext_bbr_suss", False),
}


def _takes_campaign_flags(args: argparse.Namespace) -> bool:
    """Whether ``args.name`` runs through the campaign runner and so
    takes the shared ``--jobs`` / cache / observer.  Every other name
    (``single`` too) runs inline and refuses those flags (exit 2)."""
    campaign = args.name in EXPERIMENTS and EXPERIMENTS[args.name][1]
    if not campaign and (args.jobs != 1 or args.cache_dir or args.quiet):
        takers = ", ".join(name for name, (_, takes) in EXPERIMENTS.items()
                           if takes)
        args.usage_error(f"{args.name} runs inline; --jobs, --cache-dir "
                         f"and --quiet apply only to {takers}")
    return campaign


def _run_experiment(args: argparse.Namespace):
    """Run the harness ``args.name`` names; ``(module, results)``."""
    campaign = _takes_campaign_flags(args)
    module_name = EXPERIMENTS[args.name][0]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    kwargs = open_run(args).kwargs if campaign else {}
    return module, module.run(**kwargs)


def add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=sorted(EXPERIMENTS))
    add_campaign_flags(parser)
    parser.set_defaults(usage_error=parser.error)


def cmd_experiment(args: argparse.Namespace) -> int:
    module, results = _run_experiment(args)
    print(module.format_report(results))
    return 0


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=sorted(EXPERIMENTS) + ["single"],
                        help="experiment name, or 'single' for one download")
    parser.add_argument("--scenario",
                        help="scenario name (with name='single')")
    parser.add_argument("--cc", type=cc_name, default="cubic+suss")
    parser.add_argument("--size", type=positive_int, default=2 * MB)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=positive_int, default=15,
                        help="show only the hottest N event types")
    parser.add_argument("--sort", choices=["total", "count", "mean"],
                        default="total",
                        help="report column to sort by (descending)")
    parser.add_argument("--collapsed", action="store_true",
                        help="emit flamegraph folded-stack lines instead "
                             "of the table")
    add_campaign_flags(parser)
    parser.set_defaults(usage_error=parser.error)


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
            _takes_campaign_flags(args)
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
