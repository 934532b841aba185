"""``repro flowsim``: the analytical fidelity tier — one model query, a
fleet sweep, or the packet-vs-analytical cross-validation."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cli.common import (
    non_negative_float,
    positive_float,
    positive_int,
    probability,
    scenario,
)
from repro.core.units import MBPS
from repro.experiments.report import pct, render_table
from repro.flowsim.model import PathParams, available_models, create_model

#: default location of the committed cross-validation golden report.
FLOWSIM_GOLDEN = os.path.join("tests", "golden", "flowsim_crossval.json")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario",
                        help="derive the path from a named scenario "
                             "(otherwise --rtt/--bw/--loss)")
    parser.add_argument("--rtt", type=positive_float, default=0.04,
                        help="two-way propagation delay, seconds")
    parser.add_argument("--bw", type=positive_float, default=20.0,
                        help="bottleneck bandwidth, Mbit/s")
    parser.add_argument("--loss", type=probability, default=0.0,
                        help="random loss probability")
    parser.add_argument("--delayed-ack", action="store_true")
    parser.add_argument("--size", type=positive_int,
                        help="single-model query: flow size in bytes")
    parser.add_argument("--model", default="csa00+suss",
                        help="model for --size queries")
    parser.add_argument("--flows", type=positive_int, default=100_000,
                        help="fleet sweep: flows per model")
    parser.add_argument("--dist", default="campus",
                        choices=["campus", "web", "heavy_tailed"],
                        help="flow-size distribution for sweeps")
    parser.add_argument("--models", default="csa00,csa00+suss",
                        help="comma-separated models for sweeps")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cross-validate", action="store_true",
                        help="score packet-vs-analytical agreement "
                             "instead of sweeping")
    parser.add_argument("--quick", action="store_true",
                        help="cross-validate the CI subset only")
    parser.add_argument("--tolerance", type=non_negative_float, default=0.15,
                        help="relative median-FCT error gate")
    parser.add_argument("--update-golden", nargs="?",
                        const=FLOWSIM_GOLDEN, default=None, metavar="PATH",
                        help="write the cross-validation report as the "
                             f"golden file (default {FLOWSIM_GOLDEN})")
    parser.add_argument("--report", metavar="PATH",
                        help="also write the agreement report JSON here")
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--ledger-dir",
                        help="fleet sweeps: write a content-addressed run "
                             "ledger here")


def _flowsim_path(args: argparse.Namespace):
    """Resolve --scenario / --rtt / --bw / --loss into PathParams."""
    if args.scenario:
        return PathParams.from_scenario(scenario(args.scenario),
                                        delayed_ack=args.delayed_ack)
    return PathParams(rtt=args.rtt, btl_bw=args.bw * MBPS,
                      loss_rate=args.loss, delayed_ack=args.delayed_ack)


def run(args: argparse.Namespace) -> int:
    """The analytical fidelity tier: model query, fleet sweep, crossval."""
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
        from repro.campaign.store import code_fingerprint
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
    # The table reads the digest: each fleet is summarised once per run.
    rows = []
    for name in models:
        fleet = value["models"][name]
        rows.append([name, f"{fleet['fct_mean']:.4f}",
                     f"{fleet['fct_median']:.4f}", f"{fleet['fct_p95']:.4f}",
                     f"{fleet['rounds_saved_mean']:.2f}"])
    print(render_table(
        ["model", "mean FCT (s)", "median", "p95", "rounds saved"], rows,
        title=f"flowsim sweep — {args.flows} {args.dist} flows, "
              f"seed={args.seed}"))
    if "improvement" in value:
        print(f"SUSS mean-FCT improvement: {pct(value['improvement'])}")
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


COMMANDS = {"flowsim": (add_arguments, run)}
