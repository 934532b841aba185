"""``repro topo``: declarative topology scenarios — list, render, validate,
run one flow, re-record the spec golden file."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cli.common import cc_name, non_negative_float, positive_int
from repro.core.units import MB, MILLIS_PER_SECOND
from repro.experiments.report import render_table
from repro.workloads.topo import (
    TopologySpec,
    get_topo_scenario,
    registered_specs,
    routing_table_json,
)

TOPOGEN_GOLDEN = os.path.join("tests", "golden", "topogen_specs.json")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action",
                        choices=["list", "show", "routes", "validate",
                                 "run", "golden"],
                        help="list registered scenarios; show canonical "
                             "spec JSON; print SPF routing tables; "
                             "validate a spec; run one foreground flow; "
                             "re-record the spec golden file")
    parser.add_argument("--out", metavar="PATH",
                        help=f"golden output path (with golden; default "
                             f"{TOPOGEN_GOLDEN})")
    parser.add_argument("--scenario",
                        help="registered scenario name (see `repro topo "
                             "list`)")
    parser.add_argument("--spec", metavar="PATH",
                        help="load the TopologySpec from a JSON file "
                             "instead of the registry")
    parser.add_argument("--cc", type=cc_name, default="cubic+suss")
    parser.add_argument("--size", type=positive_int, default=2 * MB,
                        help="foreground flow size in bytes (with run)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cross-load", type=non_negative_float,
                        default=1.0,
                        help="scale the spec's declared cross-traffic "
                             "load (0 disables)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable output")


def _topo_spec(args: argparse.Namespace):
    """Resolve --spec PATH / --scenario NAME into a validated TopologySpec."""
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                return TopologySpec.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"repro topo: bad spec file {args.spec!r}: "
                             f"{exc}")
    if not args.scenario:
        raise SystemExit("repro topo: --scenario or --spec is required")
    try:
        return get_topo_scenario(args.scenario)
    except KeyError as exc:
        raise SystemExit(f"repro topo: {exc.args[0]}")


def run(args: argparse.Namespace) -> int:
    """Declarative topology scenarios: list, render, validate, run."""
    if args.action == "list":
        rows = []
        for name, spec in sorted(registered_specs().items()):
            rows.append([name, spec.scenario_class, str(len(spec.nodes)),
                         str(len(spec.links)), str(len(spec.flows)),
                         str(len(spec.cross_traffic)),
                         spec.content_hash[:12]])
        print(render_table(
            ["scenario", "class", "nodes", "links", "flows", "cross",
             "hash"], rows, title="Registered topogen scenarios"))
        return 0
    if args.action == "golden":
        path = args.out or TOPOGEN_GOLDEN
        payload = {}
        for name, spec in sorted(registered_specs().items()):
            payload[name] = {
                "content_hash": spec.content_hash,
                "spec": spec.canonical(),
                "routes": json.loads(routing_table_json(spec)),
            }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"golden topogen specs written: {path} "
              f"({len(payload)} scenarios)")
        return 0

    spec = _topo_spec(args)
    if args.action == "show":
        print(spec.to_json())
        if not args.as_json:
            print(f"content hash: {spec.content_hash}", file=sys.stderr)
        return 0
    if args.action == "routes":
        print(routing_table_json(spec))
        return 0
    if args.action == "validate":
        # construction already validated; report the canonical identity
        print(f"{spec.name}: OK ({spec.scenario_class}; "
              f"{len(spec.nodes)} nodes, {len(spec.links)} links)")
        print(f"content hash: {spec.content_hash}")
        return 0

    # action == "run": one foreground flow with the spec's cross traffic
    from repro.experiments.runner import run_topo_flow

    result = run_topo_flow(spec, args.cc, args.size, seed=args.seed,
                           cross_load=args.cross_load)
    if args.as_json:
        print(json.dumps(result, sort_keys=True))
        return 0 if result["completed"] else 1
    if not result["completed"]:
        print("flow did not complete within the deadline", file=sys.stderr)
        return 1
    print(f"scenario:        {result['scenario']} "
          f"({result['scenario_class']})")
    print(f"topo hash:       {result['topo_hash'][:12]}")
    print(f"path RTT:        {result['rtt'] * MILLIS_PER_SECOND:.1f} ms")
    print(f"fct:             {result['fct']:.4f} s")
    print(f"retransmissions: {result['retransmissions']} "
          f"(RTOs: {result['rto_count']})")
    print(f"loss rate:       {result['loss_rate'] * 100:.3f}%")
    print(f"cross flows:     {result['cross_flows_completed']}"
          f"/{result['cross_flows']} completed")
    return 0


COMMANDS = {"topo": (add_arguments, run)}
