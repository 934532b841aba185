"""Command-line interface: run scenarios, sweeps, and paper experiments.

Usage (after ``pip install -e .``)::

    python -m repro list-scenarios
    python -m repro list-cc
    python -m repro run --scenario google-tokyo/wired --cc cubic+suss \
        --size 2000000
    python -m repro sweep --scenario google-tokyo/4g \
        --ccs cubic,cubic+suss --sizes 1000000,2000000 --iterations 3
    python -m repro experiment fig10
    python -m repro validate --quick --json
    python -m repro lint src tests --json

This module is the dispatcher: :data:`SUBCOMMANDS` lists every
subcommand, so ``repro --help`` imports none of them, and an invocation
imports the one module that owns the subcommand it names.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List, Optional, Tuple

#: subcommand -> (module that owns it, one-line help), in ``--help`` order.
#: A ``repro.cli`` module's ``COMMANDS`` maps each of its subcommands to
#: ``(add_arguments(parser), run(args))``.
SUBCOMMANDS: Dict[str, Tuple[str, str]] = {
    "list-scenarios": ("repro.cli.flows",
                       "print the 28 internet-scale scenarios"),
    "list-cc": ("repro.cli.flows", "print registered congestion controls"),
    "run": ("repro.cli.flows", "run one download"),
    "sweep": ("repro.cli.flows", "FCT sweep over sizes and CCAs"),
    "experiment": ("repro.cli.experiment",
                   "regenerate a paper figure/table"),
    "campaign": ("repro.cli.campaign",
                 "run a cached, parallel scenario-matrix campaign"),
    "topo": ("repro.cli.topo",
             "declarative topology scenarios: list, render, validate, run"),
    "flowsim": ("repro.cli.flowsim",
                "analytical fidelity tier: model query / fleet sweep / "
                "cross-validation"),
    "trace": ("repro.cli.trace",
              "trace one download as canonical JSONL / refresh golden "
              "traces"),
    "analyze": ("repro.cli.trace",
                "whole-trace analysis: flow summaries, CC phases, "
                "retransmission classes, anomaly findings"),
    "explain": ("repro.cli.trace",
                "causal chain for one event, or a narrated flow timeline"),
    "profile": ("repro.cli.experiment",
                "per-event-type wall-time profile of an experiment"),
    "validate": ("repro.cli.validate",
                 "statistical validation of the paper's claims "
                 "(exit 1 on FAIL)"),
    "report": ("repro.cli.campaign",
               "render a run ledger (and its .run.json sidecar) post hoc"),
    # ``repro.analysis.cli`` is also ``python -m repro.analysis.cli``.
    "lint": ("repro.analysis.cli",
             "determinism/layering linter (exit 1 on findings)"),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser: every subcommand listed, and ``command``'s
    module imported to declare its arguments and handler."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SUSS (SIGCOMM 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=summary)
               for name, (_, summary) in SUBCOMMANDS.items()}
    chosen = parsers.get(command)
    if chosen is not None:
        module = importlib.import_module(SUBCOMMANDS[command][0])
        if command == "lint":  # its run() reports bad paths via the parser
            module.add_arguments(chosen)
            chosen.set_defaults(func=lambda args: module.run(args, chosen))
        else:
            add_arguments, run = module.COMMANDS[command]
            add_arguments(chosen)
            chosen.set_defaults(func=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    return args.func(args)
