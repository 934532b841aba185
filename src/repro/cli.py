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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis import cli as lint_cli
from repro.campaign import ResultStore, code_fingerprint
from repro.cc import available
from repro.experiments.report import pct, render_table
from repro.experiments.runner import run_single_flow, sweep_summaries
from repro.metrics.timeseries import write_multi_timeseries
from repro.core.units import BITS_PER_BYTE, MB, MBIT, MBPS, MILLIS_PER_SECOND
from repro.obs.runtime import RunTelemetry
from repro.workloads import INTERNET_SCENARIOS
from repro.workloads.scenarios import LINK_NAMES, SERVER_NAMES


def _open_run(args: argparse.Namespace,
              tool: str = "campaign") -> argparse.Namespace:
    """Runner kwargs from the shared flags: ``--jobs``, the ``--cache-dir``
    store, and the run's one observer — narrating to stderr unless
    ``--quiet``, keeping ``status.json`` current under ``--ledger-dir``
    (for ``repro top``), scraped at ``--metrics-port``.  Pair with
    :func:`_close_run`."""
    store = None
    if getattr(args, "cache_dir", None) and not getattr(args, "no_cache",
                                                         False):
        store = ResultStore(args.cache_dir)
    status_path = None
    if getattr(args, "ledger_dir", None):
        os.makedirs(args.ledger_dir, exist_ok=True)
        status_path = os.path.join(args.ledger_dir, "status.json")
    telemetry = RunTelemetry(
        tool=tool, status_path=status_path, min_interval=0.5,
        stream=None if getattr(args, "quiet", False) else sys.stderr)
    server = None
    if getattr(args, "metrics_port", None) is not None:
        from repro.obs.export import MetricsServer, render_openmetrics
        server = MetricsServer(
            lambda: render_openmetrics(telemetry.snapshot()),
            port=args.metrics_port)
        server.start()
        print(f"serving OpenMetrics at {server.url}", file=sys.stderr)
    return argparse.Namespace(
        telemetry=telemetry, server=server,
        kwargs={"jobs": args.jobs, "store": store, "telemetry": telemetry})


def _close_run(args: argparse.Namespace, run: argparse.Namespace, *,
               mode: Optional[str] = None, fingerprint: str = "",
               base_seed: int = 0, summary: Optional[dict] = None) -> None:
    """Stop the scrape endpoint; for a run that completed (``mode`` given)
    under ``--ledger-dir``, write the run ledger + execution sidecar."""
    if run.server is not None:
        run.server.close()
    if mode is None or not getattr(args, "ledger_dir", None):
        return
    from repro.obs.ledger import build_ledger, write_ledger

    telemetry = run.telemetry
    ledger = build_ledger(telemetry.tool, mode, fingerprint, base_seed,
                          telemetry.jobs, telemetry.values, summary=summary)
    path = write_ledger(ledger, args.ledger_dir,
                        execution=telemetry.execution_record())
    print(f"run ledger: {path} (id {ledger.ledger_id[:16]})",
          file=sys.stderr)


def _scenario(name: str):
    if name not in INTERNET_SCENARIOS:
        known = ", ".join(sorted(INTERNET_SCENARIOS))
        raise SystemExit(f"unknown scenario {name!r}; known: {known}")
    return INTERNET_SCENARIOS[name]


# ----------------------------------------------------------------------
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
    for name in available():
        print(name)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario(args.scenario)
    result = run_single_flow(scenario, args.cc, args.size, seed=args.seed,
                             collect=bool(args.csv))
    if not result.completed:
        print("flow did not complete within the deadline", file=sys.stderr)
        return 1
    print(f"scenario:        {scenario.name}")
    print(f"cc:              {args.cc}")
    print(f"size:            {args.size} bytes")
    print(f"fct:             {result.fct:.4f} s")
    print(f"goodput:         {args.size / result.fct * BITS_PER_BYTE / MBIT:.2f} Mbit/s")
    print(f"loss rate:       {result.loss_rate * 100:.3f}%")
    print(f"retransmissions: {result.retransmissions}")
    print(f"timeouts:        {result.rto_count}")
    if args.csv:
        trace = result.telemetry.flow(1)
        with open(args.csv, "w") as out:
            write_multi_timeseries(out, {"cwnd": trace.cwnd,
                                         "rtt": trace.rtt,
                                         "delivered": trace.delivered},
                                   interval=args.csv_interval)
        print(f"trace written:   {args.csv}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _scenario(args.scenario)
    ccs = args.ccs.split(",")
    sizes = [int(s) for s in args.sizes.split(",")]
    summaries = sweep_summaries(scenario, ccs, sizes, args.iterations,
                                args.seed, **_open_run(args).kwargs)
    rows = []
    for size in sizes:
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
                       title=f"FCT sweep — {scenario.name} "
                             f"({args.iterations} iterations)"))
    return 0


#: default location of the committed cross-validation golden report.
FLOWSIM_GOLDEN = os.path.join("tests", "golden", "flowsim_crossval.json")
TOPOGEN_GOLDEN = os.path.join("tests", "golden", "topogen_specs.json")


def _flowsim_path(args: argparse.Namespace):
    """Resolve --scenario / --rtt / --bw / --loss into PathParams."""
    from repro.flowsim.model import PathParams

    if args.scenario:
        return PathParams.from_scenario(_scenario(args.scenario),
                                        delayed_ack=args.delayed_ack)
    return PathParams(rtt=args.rtt, btl_bw=args.bw * MBPS,
                      loss_rate=args.loss, delayed_ack=args.delayed_ack)


def cmd_flowsim(args: argparse.Namespace) -> int:
    """The analytical fidelity tier: model query, fleet sweep, crossval."""
    from repro.flowsim.model import available_models, create_model

    if args.cross_validate:
        return _flowsim_crossval(args)

    path = _flowsim_path(args)
    if args.size is not None:
        # Single-model query: one closed-form evaluation, full breakdown.
        model = create_model(args.model)
        est = model.estimate(args.size, path)
        if args.as_json:
            print(json.dumps(est.__dict__, sort_keys=True))
            return 0
        print(f"model:           {est.model}")
        print(f"size:            {est.size_bytes} bytes "
              f"({est.segments} segments)")
        print(f"fct:             {est.fct:.4f} s")
        print(f"  handshake:     {est.handshake_time:.4f} s")
        print(f"  slow start:    {est.ss_time:.4f} s "
              f"({est.ss_rounds} rounds)")
        print(f"  loss recovery: {est.loss_recovery_time:.4f} s")
        print(f"  steady state:  {est.ca_time:.4f} s")
        print(f"exit cwnd:       {est.exit_cwnd_segments:.0f} segments"
              + (" (pipe saturated)" if est.pipe_saturated else ""))
        if est.rounds_saved:
            print(f"rounds saved:    {est.rounds_saved} (vs traditional)")
        if est.retransmits:
            print(f"retransmits:     {est.retransmits:.2f} expected")
        return 0

    # Fleet sweep.
    import time
    from repro.flowsim.driver import SweepConfig, run_sweep, sweep_to_value

    models = tuple(args.models.split(","))
    for name in models:
        if name not in available_models():
            raise SystemExit(f"unknown flow model {name!r}; "
                             f"known: {', '.join(available_models())}")
    config = SweepConfig(path=path, flows=args.flows, size_dist=args.dist,
                         seed=args.seed, models=models)
    start = time.perf_counter()  # noqa: DET001 - CLI-level throughput report
    result = run_sweep(config)
    elapsed = time.perf_counter() - start  # noqa: DET001 - CLI-level throughput report
    value = sweep_to_value(result)
    if getattr(args, "ledger_dir", None):
        # Ledger the sweep exactly as the campaign tier would hash it:
        # the sweep-job spec is the content address, the value its
        # digest input (wall-clock 'elapsed' never enters the ledger).
        import dataclasses

        from repro.campaign.spec import flowsim_sweep_job
        from repro.obs.ledger import build_ledger, write_ledger

        spec = flowsim_sweep_job(dataclasses.asdict(path), args.flows,
                                 size_dist=args.dist, models=models,
                                 seed=args.seed)
        ledger = build_ledger(
            "flowsim", "sweep", code_fingerprint(), args.seed,
            [{"hash": spec.job_hash, "kind": spec.kind,
              "label": spec.label}], [value])
        ledger_path = write_ledger(ledger, args.ledger_dir)
        print(f"run ledger: {ledger_path} (id {ledger.ledger_id[:16]})",
              file=sys.stderr)
    if args.as_json:
        value["elapsed"] = elapsed
        print(json.dumps(value, sort_keys=True))
        return 0
    rows = []
    for name in models:
        fleet = result.fleets[name]
        s = fleet.fct_summary()
        rows.append([name, f"{s.mean:.4f}", f"{s.median:.4f}",
                     f"{s.p95:.4f}", f"{fleet.mean_rounds_saved:.2f}"])
    print(render_table(
        ["model", "mean FCT (s)", "median", "p95", "rounds saved"], rows,
        title=f"flowsim sweep — {args.flows} {args.dist} flows, "
              f"seed={args.seed}"))
    if "csa00" in result.fleets and "csa00+suss" in result.fleets:
        print(f"SUSS mean-FCT improvement: {pct(result.improvement())}")
    modelled = args.flows * len(models)
    print(f"modelled {modelled} flows in {elapsed:.2f}s "
          f"({modelled / elapsed:,.0f} flows/sec)")
    return 0


def _flowsim_crossval(args: argparse.Namespace) -> int:
    """--cross-validate: packet-vs-analytical agreement on the golden set."""
    from repro.flowsim.crossval import (
        all_cases,
        quick_cases,
        run_crossval,
    )

    cases = quick_cases() if args.quick else all_cases()
    report = run_crossval(cases, tolerance=args.tolerance)
    payload = report.to_dict()
    if args.update_golden:
        path = args.update_golden
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"golden cross-validation report written: {path}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        rows = [[c.name, c.cc, f"{c.packet_median:.4f}",
                 f"{c.analytical_fct:.4f}", pct(c.rel_median_error),
                 ("ok" if c.within(report.tolerance) else "FAIL")
                 if c.gated else "info"]
                for c in report.cases]
        print(render_table(
            ["case", "cc", "packet median (s)", "analytical (s)",
             "rel error", "status"], rows,
            title="flowsim cross-validation (packet vs analytical)"))
        print(f"worst: {report.worst_case} ({pct(report.max_rel_error)}); "
              f"tolerance {pct(report.tolerance)}; "
              f"Cliff's delta {report.delta:+.3f}")
        for cls, stats in report.class_errors().items():
            print(f"  {cls}: {int(stats['cells'])} cells, "
                  f"mean error {pct(stats['mean_rel_error'])}, "
                  f"max {pct(stats['max_rel_error'])}")
    if not report.passed:
        print("cross-validation FAILED the tolerance gate", file=sys.stderr)
        return 1
    return 0


#: experiment name -> (module path, run kwargs builder)
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
    import importlib
    module_name = EXPERIMENTS.get(args.name)
    if module_name is None:
        raise SystemExit(f"unknown experiment {args.name!r}; "
                         f"known: {', '.join(sorted(EXPERIMENTS))}")
    module = importlib.import_module(f"repro.experiments.{module_name}")
    if args.name == "fig02":
        return module, module.run_comparison()
    if args.name == "fig18":
        return module, module.run_matrix(**_open_run(args).kwargs)
    if args.name in ("table1", "topo"):
        return module, module.run(**_open_run(args).kwargs)
    return module, module.run()


def cmd_experiment(args: argparse.Namespace) -> int:
    module, results = _run_experiment(args)
    if args.name == "fig18":
        print(module.format_fct_report(results))
        print()
        print(module.format_loss_report(results))
    elif args.name != "topo":  # topo_suite.run prints its own table
        print(module.format_report(results))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a (sub-)matrix of the Fig. 17/18 evaluation, or with ``--topo``
    the topogen scenario matrix, as a cached campaign."""
    sizes = [int(s) for s in args.sizes.split(",")]
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
                _scenario(f"{server}/{link}")
    if args.resume and not os.path.isdir(args.cache_dir):
        raise SystemExit(f"--resume: cache directory {args.cache_dir!r} "
                         f"does not exist (nothing to resume)")

    run = _open_run(args)
    kwargs = dict(run.kwargs, iterations=args.iterations,
                  base_seed=args.seed, timeout=args.timeout,
                  retries=args.retries)
    failure = None
    try:
        if args.topo:
            rows = topo_suite.run_suite(
                scenarios=names, sizes=sizes, cross_load=args.cross_load,
                **kwargs)
            for size in sizes:
                print(topo_suite.format_report(
                    [row for row in rows if row.size == size]))
                print()
        else:
            rows = fig17_18_all_scenarios.run_matrix(
                servers=servers, links=links, sizes=sizes,
                schemes=tuple(args.ccs.split(",")), **kwargs)
            if all(s in rows[0].fct for s in ("cubic", "cubic+suss")):
                print(fig17_18_all_scenarios.format_fct_report(rows))
                print()
            print(fig17_18_all_scenarios.format_loss_report(rows))
    except RuntimeError as exc:
        failure = exc
        _close_run(args, run)
    else:
        _close_run(args, run, mode="topo" if args.topo else "matrix",
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


def _topo_spec(args: argparse.Namespace):
    """Resolve --spec PATH / --scenario NAME into a validated TopologySpec."""
    from repro.workloads.topo import TopologySpec, get_topo_scenario
    from repro.net.topogen.spec import TopologySpecError

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


def cmd_topo(args: argparse.Namespace) -> int:
    """Declarative topology scenarios: list, render, validate, run."""
    from repro.workloads.topo import registered_specs, routing_table_json

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


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace one download as canonical JSONL, or refresh the golden store."""
    from repro.experiments import goldens

    if args.update_golden:
        from repro.obs.golden import (
            RECOVERY_DIGEST_FILE,
            load_digests,
            stored_schema,
        )
        from repro.obs.records import SCHEMA_VERSION

        def stored() -> dict:
            return {**load_digests(goldens.DEFAULT_GOLDEN_DIR),
                    **load_digests(goldens.DEFAULT_GOLDEN_DIR,
                                   RECOVERY_DIGEST_FILE)}

        names = args.golden.split(",") if args.golden else None
        before = stored()
        schema_before = stored_schema(goldens.DEFAULT_GOLDEN_DIR)
        digests = goldens.update_goldens(names=names)
        after = stored()
        if schema_before != SCHEMA_VERSION:
            print(f"schema: v{schema_before} -> v{SCHEMA_VERSION}")
        for name in sorted(digests):
            old = before.get(name, {}).get("digest")
            if old is None:
                print(f"{name}: (new) -> {digests[name]}")
            elif old == digests[name]:
                print(f"{name}: {digests[name]} (unchanged)")
            else:
                print(f"{name}: {old} -> {digests[name]}")
            # The eid-free digest says whether the simulation moved or
            # only the engine's event numbering did.
            for key, label in (("eid_free_digest", "eid-free digest"),
                               ("records", "records")):
                was = before.get(name, {}).get(key)
                new = after[name][key]
                if was is None:
                    print(f"  {label}: (new) -> {new}")
                elif was == new:
                    print(f"  {label}: unchanged")
                else:
                    print(f"  {label}: {was} -> {new}")
        return 0
    if not args.scenario:
        raise SystemExit("repro trace: --scenario is required "
                         "(or use --update-golden)")
    from repro.obs import (
        DigestSink,
        JsonlSink,
        Observability,
        TeeSink,
        Tracer,
        parse_kinds,
    )

    scenario = _scenario(args.scenario)
    try:
        kinds = parse_kinds(args.kinds) if args.kinds else None
    except ValueError as exc:
        raise SystemExit(str(exc))
    digest_sink = DigestSink()
    jsonl = JsonlSink(args.out) if args.out else None
    sink = digest_sink if jsonl is None else TeeSink([jsonl, digest_sink])
    obs = Observability(tracer=Tracer(sink, kinds))
    result = run_single_flow(scenario, args.cc, args.size, seed=args.seed,
                             obs=obs)
    obs.close()
    if not result.completed:
        print("flow did not complete within the deadline", file=sys.stderr)
        return 1
    if jsonl is not None:
        print(f"trace written:   {args.out} ({jsonl.lines} records)")
    print(f"records:         {digest_sink.records}")
    print(f"trace digest:    {digest_sink.digest()}")
    print(f"fct:             {result.fct:.4f} s")
    return 0


def _load_trace_arg(path: str):
    """Load a JSONL trace argument (``-`` reads stdin)."""
    from repro.obs.analyze import load_trace

    if path == "-":
        return load_trace(sys.stdin)
    if not os.path.exists(path):
        raise SystemExit(f"repro: trace file {path!r} does not exist")
    try:
        return load_trace(path)
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"repro: {path!r} is not a JSONL trace: {exc}")


def cmd_analyze(args: argparse.Namespace) -> int:
    """Whole-trace analysis: flow summaries, phases, retx classes,
    anomaly findings."""
    from repro.obs.analyze import analyze_records

    analysis = analyze_records(_load_trace_arg(args.trace))
    if args.as_json:
        print(json.dumps(analysis.to_dict(), sort_keys=True))
    else:
        print(analysis.render_text())
    if args.fail_on_findings and any(
            f.severity in ("warning", "error") for f in analysis.findings):
        return 1
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Causal chain for one event, or a narrated flow timeline."""
    from repro.obs.analyze import analyze_records, render_flow
    from repro.obs.causal import (
        CausalIndex,
        explain_event,
        find_record,
        render_explanation,
    )

    records = _load_trace_arg(args.trace)
    index = CausalIndex(records)

    if args.event is not None:
        explanation = explain_event(index, args.event)
        if args.as_json:
            print(json.dumps(explanation, sort_keys=True))
        else:
            print(render_explanation(explanation))
        return 0 if explanation["found"] else 1

    analysis = analyze_records(records)
    if args.flow is not None and args.flow not in analysis.flows:
        known = ", ".join(str(f) for f in sorted(analysis.flows)) or "(none)"
        raise SystemExit(f"repro explain: no flow {args.flow} in trace; "
                         f"flows present: {known}")
    flows = ([args.flow] if args.flow is not None
             else sorted(analysis.flows))

    at_context = None
    if args.at is not None:
        anchor = find_record(records, at=args.at, flow=args.flow)
        if anchor is None:
            raise SystemExit(f"repro explain: no records at or before "
                             f"t={args.at}")
        at_context = {
            "t": args.at,
            "record": anchor.to_dict(),
            "phase": {str(f): analysis.flows[f].phase_at(args.at)
                      for f in flows},
            "chain": explain_event(index, anchor.eid),
        }

    if args.as_json:
        out = {"flows": {str(f): analysis.flows[f].to_dict()
                         for f in flows}}
        if at_context is not None:
            out["at"] = at_context
        print(json.dumps(out, sort_keys=True))
        return 0
    for flow in flows:
        print(render_flow(analysis.flows[flow]))
    if at_context is not None:
        print()
        phases = ", ".join(f"flow {f}: {p}"
                           for f, p in sorted(at_context["phase"].items()))
        print(f"at t={args.at}: {phases}")
        print(f"most recent event before t={args.at}:")
        print(render_explanation(at_context["chain"]))
    return 0


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
            if not args.scenario:
                raise SystemExit("repro profile single: --scenario required")
            scenario = _scenario(args.scenario)
            result = run_single_flow(scenario, args.cc, args.size,
                                     seed=args.seed)
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


def cmd_validate(args: argparse.Namespace) -> int:
    """Statistical validation of the paper's claims (repro.validate)."""
    import dataclasses

    from repro.validate import (
        FAIL,
        INCONCLUSIVE,
        BaselineStore,
        detect_drift,
        iter_claims,
        report_json,
        resolve_fingerprint,
        run_validation,
    )

    if args.list:
        for claim in iter_claims():
            print(f"{claim.id:32s} {claim.paper:10s} {claim.kind:15s} "
                  f"[{claim.harness}]")
        return 0

    mode = "full" if args.full else "quick"
    claim_ids = args.claims.split(",") if args.claims else None
    try:
        iter_claims(claim_ids)
    except KeyError as exc:
        raise SystemExit(f"repro validate: {exc.args[0]}")

    run = _open_run(args, "validate")
    try:
        report = run_validation(
            claim_ids, mode=mode, base_seed=args.seed,
            timeout=args.timeout, retries=args.retries, **run.kwargs)
    except RuntimeError as exc:
        _close_run(args, run)
        raise SystemExit(f"repro validate: {exc}")

    # Ledger of the as-run verdicts (pre drift patching — that is an
    # overlay that depends on the baselines on disk; the ledger records
    # the deterministic statistical outcome).
    verdict_counts: dict = {}
    for verdict in report.verdicts:
        verdict_counts[verdict.verdict] = (
            verdict_counts.get(verdict.verdict, 0) + 1)
    _close_run(
        args, run, mode=mode,
        fingerprint=report.code_fingerprint, base_seed=args.seed,
        summary={"claims": {v.claim_id: v.verdict
                            for v in report.verdicts},
                 "verdict_counts": dict(sorted(verdict_counts.items()))})

    if args.against:
        try:
            fingerprint = resolve_fingerprint(args.against,
                                              args.baseline_fingerprint)
        except (FileNotFoundError, KeyError) as exc:
            raise SystemExit(f"repro validate: {exc.args[0]}")
        baselines = BaselineStore(args.against, fingerprint)
        patched = []
        for verdict in report.verdicts:
            record = baselines.load(verdict.claim_id)
            if record is None:
                patched.append(verdict)
                continue
            drift = detect_drift(verdict.claim_id, record["samples"],
                                 verdict.treatment_samples,
                                 base_seed=args.seed)
            drift["fingerprint"] = fingerprint
            changes = {"drift": drift}
            if drift["drifted"]:
                changes["verdict"] = FAIL
                changes["reason"] = (
                    f"treatment distribution drifted from recorded "
                    f"baseline (p={drift['p_value']:.4f}, cliffs delta "
                    f"{drift['cliffs_delta']:+.2f}); was: {verdict.reason}")
            patched.append(dataclasses.replace(verdict, **changes))
        report.verdicts = patched

    if args.record_baseline:
        baselines = BaselineStore(args.record_baseline,
                                  report.code_fingerprint)
        for verdict in report.verdicts:
            baselines.record(verdict.claim_id, mode=mode,
                             base_seed=args.seed,
                             samples=verdict.treatment_samples)
        print(f"recorded {len(report.verdicts)} claim baselines under "
              f"{baselines.generation_dir}", file=sys.stderr)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    if args.as_json:
        print(report_json(report), end="")
    else:
        print(report.render_text())

    counts = report.counts()
    if args.fail_on == "none":
        return 0
    if counts[FAIL]:
        return 1
    if args.fail_on == "inconclusive" and counts[INCONCLUSIVE]:
        return 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live single-screen dashboard over a run's ``status.json``.

    Watches the file a ``--ledger-dir`` run keeps rewriting; ``--once``
    prints a single frame (for CI logs) and ``--metrics-out`` addition-
    ally writes the snapshot as OpenMetrics text for scrape smoke tests.
    """
    import time

    from repro.obs.export import render_openmetrics, render_top

    def read_status():
        try:
            with open(args.status, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            # Mid-rewrite or not-yet-created: treat as "no frame yet".
            return None

    if args.once:
        status = read_status()
        if status is None:
            print(f"repro top: no readable status at {args.status!r} "
                  f"(runs write it under --ledger-dir)", file=sys.stderr)
            return 1
        print(render_top(status))
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(render_openmetrics(status))
        return 0
    try:
        while True:
            status = read_status()
            frame = (render_top(status) if status is not None
                     else f"repro top: waiting for {args.status} ...")
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            if status is not None and status.get("finished"):
                return 0
            time.sleep(args.interval)  # noqa: DET001 — live dashboard refresh cadence, not simulation state
    except KeyboardInterrupt:
        print()
        return 0


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


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SUSS (SIGCOMM 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios",
                   help="print the 28 internet-scale scenarios") \
        .set_defaults(func=cmd_list_scenarios)
    sub.add_parser("list-cc",
                   help="print registered congestion controls") \
        .set_defaults(func=cmd_list_cc)

    run_p = sub.add_parser("run", help="run one download")
    run_p.add_argument("--scenario", required=True,
                       help="scenario name, e.g. google-tokyo/wired")
    run_p.add_argument("--cc", default="cubic+suss")
    run_p.add_argument("--size", type=int, default=2 * MB,
                       help="flow size in bytes")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--csv", help="write cwnd/rtt/delivered trace CSV")
    run_p.add_argument("--csv-interval", type=float, default=0.05)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="FCT sweep over sizes and CCAs")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--ccs", default="cubic,cubic+suss")
    sweep_p.add_argument("--sizes", default="1000000,2000000,4000000")
    sweep_p.add_argument("--iterations", type=int, default=3)
    sweep_p.add_argument("--seed", type=int, default=0)
    _add_campaign_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper figure/table")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS))
    _add_campaign_flags(exp_p)
    exp_p.set_defaults(func=cmd_experiment)

    camp_p = sub.add_parser(
        "campaign",
        help="run a cached, parallel scenario-matrix campaign")
    camp_p.add_argument("--servers", default=",".join(SERVER_NAMES))
    camp_p.add_argument("--links", default=",".join(LINK_NAMES))
    camp_p.add_argument("--topo", metavar="SCENARIOS",
                        help="run registered topogen scenarios instead of "
                             "the server/link matrix: a comma-separated "
                             "list or 'all' (see `repro topo list`)")
    camp_p.add_argument("--cross-load", type=float, default=1.0,
                        help="scale each topo spec's declared cross-traffic "
                             "load (with --topo; 0 disables)")
    camp_p.add_argument("--sizes", default="1000000,2000000,4000000")
    camp_p.add_argument("--ccs", default="bbr,cubic+suss,cubic")
    camp_p.add_argument("--iterations", type=int, default=3)
    camp_p.add_argument("--seed", type=int, default=0)
    camp_p.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = run inline)")
    camp_p.add_argument("--cache-dir", default=".repro-cache",
                        help="result cache; re-runs only compute misses")
    camp_p.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    camp_p.add_argument("--resume", action="store_true",
                        help="continue an interrupted campaign from "
                             "--cache-dir (errors if it does not exist)")
    camp_p.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock timeout in seconds")
    camp_p.add_argument("--retries", type=int, default=2,
                        help="retries per job after a failure/crash")
    camp_p.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress on stderr")
    camp_p.add_argument("--stats-json",
                        help="write executed/cached/failed counts to a file")
    camp_p.add_argument("--ledger-dir",
                        help="write a content-addressed run ledger (plus a "
                             "live status.json for `repro top`) here")
    camp_p.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live OpenMetrics on this port while the "
                             "campaign runs (0 = ephemeral)")
    camp_p.set_defaults(func=cmd_campaign)

    topo_p = sub.add_parser(
        "topo",
        help="declarative topology scenarios: list, render, validate, run")
    topo_p.add_argument("action",
                        choices=["list", "show", "routes", "validate",
                                 "run", "golden"],
                        help="list registered scenarios; show canonical "
                             "spec JSON; print SPF routing tables; "
                             "validate a spec; run one foreground flow; "
                             "re-record the spec golden file")
    topo_p.add_argument("--out", metavar="PATH",
                        help=f"golden output path (with golden; default "
                             f"{TOPOGEN_GOLDEN})")
    topo_p.add_argument("--scenario",
                        help="registered scenario name (see `repro topo "
                             "list`)")
    topo_p.add_argument("--spec", metavar="PATH",
                        help="load the TopologySpec from a JSON file "
                             "instead of the registry")
    topo_p.add_argument("--cc", default="cubic+suss")
    topo_p.add_argument("--size", type=int, default=2 * MB,
                        help="foreground flow size in bytes (with run)")
    topo_p.add_argument("--seed", type=int, default=0)
    topo_p.add_argument("--cross-load", type=float, default=1.0,
                        help="scale the spec's declared cross-traffic "
                             "load (0 disables)")
    topo_p.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable output")
    topo_p.set_defaults(func=cmd_topo)

    flow_p = sub.add_parser(
        "flowsim",
        help="analytical fidelity tier: model query / fleet sweep / "
             "cross-validation")
    flow_p.add_argument("--scenario",
                        help="derive the path from a named scenario "
                             "(otherwise --rtt/--bw/--loss)")
    flow_p.add_argument("--rtt", type=float, default=0.04,
                        help="two-way propagation delay, seconds")
    flow_p.add_argument("--bw", type=float, default=20.0,
                        help="bottleneck bandwidth, Mbit/s")
    flow_p.add_argument("--loss", type=float, default=0.0,
                        help="random loss probability")
    flow_p.add_argument("--delayed-ack", action="store_true")
    flow_p.add_argument("--size", type=int,
                        help="single-model query: flow size in bytes")
    flow_p.add_argument("--model", default="csa00+suss",
                        help="model for --size queries")
    flow_p.add_argument("--flows", type=int, default=100_000,
                        help="fleet sweep: flows per model")
    flow_p.add_argument("--dist", default="campus",
                        choices=["campus", "web", "heavy_tailed"],
                        help="flow-size distribution for sweeps")
    flow_p.add_argument("--models", default="csa00,csa00+suss",
                        help="comma-separated models for sweeps")
    flow_p.add_argument("--seed", type=int, default=1)
    flow_p.add_argument("--cross-validate", action="store_true",
                        help="score packet-vs-analytical agreement "
                             "instead of sweeping")
    flow_p.add_argument("--quick", action="store_true",
                        help="cross-validate the CI subset only")
    flow_p.add_argument("--tolerance", type=float, default=0.15,
                        help="relative median-FCT error gate")
    flow_p.add_argument("--update-golden", nargs="?",
                        const=FLOWSIM_GOLDEN, default=None, metavar="PATH",
                        help="write the cross-validation report as the "
                             f"golden file (default {FLOWSIM_GOLDEN})")
    flow_p.add_argument("--report", metavar="PATH",
                        help="also write the agreement report JSON here")
    flow_p.add_argument("--json", action="store_true", dest="as_json")
    flow_p.add_argument("--ledger-dir",
                        help="fleet sweeps: write a content-addressed run "
                             "ledger here")
    flow_p.set_defaults(func=cmd_flowsim)

    trace_p = sub.add_parser(
        "trace",
        help="trace one download as canonical JSONL / refresh golden traces")
    trace_p.add_argument("--scenario",
                         help="scenario name, e.g. google-tokyo/wired")
    trace_p.add_argument("--cc", default="cubic+suss")
    trace_p.add_argument("--size", type=int, default=2 * MB,
                         help="flow size in bytes")
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument("--out", help="write canonical JSONL to this path")
    trace_p.add_argument("--kinds",
                         help="comma-separated record-kind filter "
                              "(e.g. cc.cwnd,suss.decision)")
    trace_p.add_argument("--update-golden", action="store_true",
                         help="re-record the golden traces under "
                              "tests/golden/ instead of running a scenario")
    trace_p.add_argument("--golden",
                         help="comma-separated golden run names to refresh "
                              "(default: all; with --update-golden)")
    trace_p.set_defaults(func=cmd_trace)

    ana_p = sub.add_parser(
        "analyze",
        help="whole-trace analysis: flow summaries, CC phases, "
             "retransmission classes, anomaly findings")
    ana_p.add_argument("trace",
                       help="JSONL trace path (.jsonl or .jsonl.gz; "
                            "'-' reads stdin)")
    ana_p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the analysis as JSON")
    ana_p.add_argument("--fail-on-findings", action="store_true",
                       help="exit 1 when any warning/error finding fires")
    ana_p.set_defaults(func=cmd_analyze)

    exp2_p = sub.add_parser(
        "explain",
        help="causal chain for one event, or a narrated flow timeline")
    exp2_p.add_argument("trace",
                        help="JSONL trace path (.jsonl or .jsonl.gz; "
                             "'-' reads stdin)")
    exp2_p.add_argument("--flow", type=int,
                        help="restrict the narrative to one flow id")
    exp2_p.add_argument("--at", type=float,
                        help="explain what was happening at this "
                             "simulation time")
    exp2_p.add_argument("--event", type=int,
                        help="walk the causal chain of this engine "
                             "event id (eid)")
    exp2_p.add_argument("--json", action="store_true", dest="as_json",
                        help="emit structured JSON instead of prose")
    exp2_p.set_defaults(func=cmd_explain)

    prof_p = sub.add_parser(
        "profile",
        help="per-event-type wall-time profile of an experiment")
    prof_p.add_argument("name", choices=sorted(EXPERIMENTS) + ["single"],
                        help="experiment name, or 'single' for one download")
    prof_p.add_argument("--scenario",
                        help="scenario name (with name='single')")
    prof_p.add_argument("--cc", default="cubic+suss")
    prof_p.add_argument("--size", type=int, default=2 * MB)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument("--top", type=int, default=15,
                        help="show only the hottest N event types")
    prof_p.add_argument("--sort", choices=["total", "count", "mean"],
                        default="total",
                        help="report column to sort by (descending)")
    prof_p.add_argument("--collapsed", action="store_true",
                        help="emit flamegraph folded-stack lines instead "
                             "of the table")
    _add_campaign_flags(prof_p)
    prof_p.set_defaults(func=cmd_profile)

    val_p = sub.add_parser(
        "validate",
        help="statistical validation of the paper's claims "
             "(exit 1 on FAIL)")
    val_mode = val_p.add_mutually_exclusive_group()
    val_mode.add_argument("--quick", action="store_true",
                          help="scaled-down workloads, few seeds "
                               "(default; the PR smoke gate)")
    val_mode.add_argument("--full", action="store_true",
                          help="paper-scale workloads and seed counts")
    val_p.add_argument("--claims",
                       help="comma-separated claim ids (default: all; "
                            "see --list)")
    val_p.add_argument("--list", action="store_true",
                       help="list registered claims and exit")
    val_p.add_argument("--seed", type=int, default=0,
                       help="base seed for the multi-seed fan-out")
    val_p.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock timeout in seconds")
    val_p.add_argument("--retries", type=int, default=1,
                       help="retries per job after a failure/crash")
    val_p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the ValidationReport as canonical JSON "
                            "(byte-identical across same-seed runs)")
    val_p.add_argument("--out",
                       help="also write the JSON report to this path")
    val_p.add_argument("--fail-on", choices=["fail", "inconclusive", "none"],
                       default="fail",
                       help="exit non-zero on FAIL (default), on FAIL or "
                            "INCONCLUSIVE, or never")
    val_p.add_argument("--record-baseline", metavar="DIR",
                       help="record each claim's treatment samples under "
                            "DIR/<code fingerprint>/ for later --against")
    val_p.add_argument("--against", metavar="DIR",
                       help="drift-check treatment samples against "
                            "baselines recorded under DIR; drift flips "
                            "the claim to FAIL")
    val_p.add_argument("--baseline-fingerprint",
                       help="baseline generation to use when DIR holds "
                            "more than one (prefix accepted)")
    val_p.add_argument("--ledger-dir",
                       help="write a content-addressed run ledger (plus a "
                            "live status.json for `repro top`) here")
    val_p.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live OpenMetrics on this port while the "
                            "validation runs (0 = ephemeral)")
    _add_campaign_flags(val_p)
    val_p.set_defaults(func=cmd_validate)

    top_p = sub.add_parser(
        "top",
        help="live dashboard over a --ledger-dir run's status.json")
    top_p.add_argument("status", nargs="?",
                       default=".repro-ledger/status.json",
                       help="status.json path "
                            "(default: .repro-ledger/status.json)")
    top_p.add_argument("--once", action="store_true",
                       help="print one frame and exit (for CI logs)")
    top_p.add_argument("--interval", type=float, default=1.0,
                       help="refresh interval in seconds")
    top_p.add_argument("--metrics-out", metavar="PATH",
                       help="with --once: also write the snapshot as "
                            "OpenMetrics text to PATH")
    top_p.set_defaults(func=cmd_top)

    rep_p = sub.add_parser(
        "report",
        help="render a run ledger (and its .run.json sidecar) post hoc")
    rep_p.add_argument("ledger", help="path to a ledger-<id>.json file")
    rep_p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit ledger body + execution record as JSON")
    rep_p.set_defaults(func=cmd_report)

    lint_p = sub.add_parser(
        "lint",
        help="determinism/layering linter (exit 1 on findings)")
    lint_cli.add_arguments(lint_p)
    lint_p.set_defaults(func=lambda args: lint_cli.run(args, lint_p))
    return parser


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = run inline)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache results on disk; re-runs only compute "
                             "misses")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress on stderr")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
