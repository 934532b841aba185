"""``repro campaign`` / ``repro report``: run a cached scenario-matrix
campaign, read its ledger afterwards."""

from __future__ import annotations

import argparse
import json
import os

from repro.cli.common import (
    cc_name,
    close_run,
    comma_separated,
    non_negative_float,
    non_negative_int,
    open_run,
    positive_float,
    positive_int,
    scenario,
)
from repro.workloads.scenarios import LINK_NAMES, SERVER_NAMES


def add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", default=",".join(SERVER_NAMES))
    parser.add_argument("--links", default=",".join(LINK_NAMES))
    parser.add_argument("--topo", metavar="SCENARIOS",
                        help="run registered topogen scenarios instead of "
                             "the server/link matrix: a comma-separated "
                             "list or 'all' (see `repro topo list`)")
    parser.add_argument("--cross-load", type=non_negative_float,
                        default=1.0,
                        help="scale each topo spec's declared cross-traffic "
                             "load (with --topo; 0 disables)")
    parser.add_argument("--sizes", type=comma_separated(positive_int),
                        default="1000000,2000000,4000000")
    parser.add_argument("--ccs", type=comma_separated(cc_name),
                        default="bbr,cubic+suss,cubic")
    parser.add_argument("--iterations", type=positive_int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (1 = run inline)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="result cache; re-runs only compute misses")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--resume", action="store_true",
                        help="continue an interrupted campaign from "
                             "--cache-dir (errors if it does not exist)")
    parser.add_argument("--timeout", type=positive_float, default=None,
                        help="per-job wall-clock timeout in seconds")
    parser.add_argument("--retries", type=non_negative_int, default=2,
                        help="retries per job after a failure/crash")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress on stderr")
    parser.add_argument("--stats-json",
                        help="write executed/cached/failed counts to a file")
    parser.add_argument("--ledger-dir",
                        help="write a content-addressed run ledger (and its "
                             ".run.json sidecar) here")


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a (sub-)matrix of the Fig. 17/18 evaluation, or with ``--topo``
    the topogen scenario matrix, as a cached campaign."""
    from repro.campaign.store import code_fingerprint

    if args.topo:
        from repro.experiments import topo_suite
        from repro.workloads.topo import get_topo_scenario, registered_specs

        names = (sorted(registered_specs()) if args.topo == "all"
                 else args.topo.split(","))
        for name in names:
            try:
                get_topo_scenario(name)
            except KeyError as exc:
                raise SystemExit(f"repro campaign: {exc.args[0]}")
    else:
        from repro.experiments import fig17_18_all_scenarios

        servers = args.servers.split(",")
        links = args.links.split(",")
        for server in servers:
            for link in links:
                scenario(f"{server}/{link}")
    if args.resume and not os.path.isdir(args.cache_dir):
        raise SystemExit(f"--resume: cache directory {args.cache_dir!r} "
                         f"does not exist (nothing to resume)")

    run = open_run(args)
    kwargs = dict(run.kwargs, iterations=args.iterations,
                  base_seed=args.seed, timeout=args.timeout,
                  retries=args.retries)
    failure = None
    try:
        if args.topo:
            rows = topo_suite.run(
                scenarios=names, sizes=args.sizes,
                cross_load=args.cross_load, **kwargs)
            for size in args.sizes:
                print(topo_suite.format_report(
                    [row for row in rows if row.size == size]))
                print()
        else:
            rows = fig17_18_all_scenarios.run(
                servers=servers, links=links, sizes=args.sizes,
                schemes=tuple(args.ccs), **kwargs)
            print(fig17_18_all_scenarios.format_report(rows))
    except RuntimeError as exc:
        failure = exc
    else:
        close_run(args, run, mode="topo" if args.topo else "matrix",
                  fingerprint=code_fingerprint(), base_seed=args.seed)
    stats = run.telemetry.stats()
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, sort_keys=True)
    if failure is not None:
        raise SystemExit(f"campaign failed: {failure}\n"
                         f"(completed jobs stay cached; re-run with "
                         f"--resume to retry only the rest)")
    print(f"campaign: total={stats['total']} executed={stats['executed']} "
          f"cached={stats['cached']} failed={stats['failed']} "
          f"elapsed={stats['elapsed']:.1f}s")
    return 0


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ledger", help="path to a ledger-<id>.json file")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit ledger body + execution record as JSON")


def cmd_report(args: argparse.Namespace) -> int:
    """Post-hoc narrative/JSON renderer for a run ledger."""
    from repro.obs.ledger import canonical_json, load_ledger

    try:
        body, execution = load_ledger(args.ledger)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro report: {exc}")
    if args.as_json:
        print(json.dumps({"ledger": body, "execution": execution},
                         sort_keys=True))
        return 0

    import hashlib
    ledger_id = hashlib.sha256(
        canonical_json(body).encode("utf-8")).hexdigest()
    summary = body.get("summary") or {}
    print(f"run ledger {ledger_id[:16]} — tool={body['tool']} "
          f"mode={body['mode']} (schema {body['schema']})")
    print(f"  code fingerprint: {body['code_fingerprint']}")
    print(f"  base seed:        {body['base_seed']}")
    kinds = ", ".join(f"{kind}: {count}" for kind, count
                      in sorted((summary.get("by_kind") or {}).items()))
    print(f"  jobs:             {len(body['jobs'])}"
          + (f" ({kinds})" if kinds else ""))
    print(f"  results digest:   {body['results_digest'][:16]}…")
    claims = summary.get("claims")
    if claims:
        print("  claims:")
        for claim_id, verdict in sorted(claims.items()):
            print(f"    {claim_id:32s} {verdict}")

    if execution is not None:
        status = execution.get("status") or {}
        res = status.get("resources") or {}
        print("execution (.run.json sidecar):")
        print(f"  elapsed {status.get('elapsed', 0.0):.1f}s — "
              f"executed {status.get('executed', 0)}, "
              f"cached {status.get('cached', 0)}, "
              f"failed {status.get('failed', 0)}, "
              f"retries {status.get('retries', 0)}")
        throughput = status.get("throughput")
        cache_ratio = status.get("cache_ratio")
        line = "  throughput "
        line += (f"{throughput:.2f} jobs/s" if throughput is not None
                 else "--")
        if cache_ratio is not None:
            line += f", cache ratio {cache_ratio:.1%}"
        print(line)
        events = res.get("engine_events", 0)
        cpu = res.get("cpu_user", 0.0) + res.get("cpu_system", 0.0)
        rate = f" ({events / cpu:,.0f}/s of worker CPU)" if events and cpu \
            else ""
        print(f"  cpu {res.get('cpu_user', 0.0):.1f}s user / "
              f"{res.get('cpu_system', 0.0):.1f}s sys, "
              f"peak rss {res.get('max_rss_kb', 0) / 1024:.0f} MB, "
              f"{events} engine events{rate}, "
              f"{res.get('flows_modelled', 0)} flows modelled")
        lanes = status.get("lanes") or {}
        if lanes:
            print("  workers:")
            for lane, stats in sorted(lanes.items()):
                name = "inline" if lane == "inline" else f"pid {lane}"
                print(f"    {name:<10} {stats.get('jobs', 0):>5} jobs  "
                      f"busy {stats.get('busy', 0.0):8.1f}s")
    return 0


COMMANDS = {
    "campaign": (add_campaign_arguments, cmd_campaign),
    "report": (add_report_arguments, cmd_report),
}
