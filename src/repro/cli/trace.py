"""``repro trace`` / ``analyze`` / ``explain``: write one download's
canonical JSONL trace (or refresh the goldens), and read a trace back."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cli.common import (
    cc_name,
    non_negative_float,
    positive_int,
    scenario,
)
from repro.core.units import MB


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario",
                        help="scenario name, e.g. google-tokyo/wired")
    parser.add_argument("--cc", type=cc_name, default="cubic+suss")
    parser.add_argument("--size", type=positive_int, default=2 * MB,
                        help="flow size in bytes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write canonical JSONL to this path")
    parser.add_argument("--kinds",
                        help="comma-separated record-kind filter "
                             "(e.g. cc.cwnd,suss.decision)")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-record the golden traces under "
                             "tests/golden/ instead of running a scenario")
    parser.add_argument("--golden",
                        help="comma-separated golden run names to refresh "
                             "(default: all; with --update-golden)")


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace",
                        help="JSONL trace path (.jsonl or .jsonl.gz; "
                             "'-' reads stdin)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the analysis as JSON")
    parser.add_argument("--fail-on-findings", action="store_true",
                        help="exit 1 when any warning/error finding fires")


def add_explain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace",
                        help="JSONL trace path (.jsonl or .jsonl.gz; "
                             "'-' reads stdin)")
    parser.add_argument("--flow", type=int,
                        help="restrict the narrative to one flow id")
    parser.add_argument("--at", type=non_negative_float,
                        help="explain what was happening at this "
                             "simulation time")
    parser.add_argument("--event", type=int,
                        help="walk the causal chain of this engine "
                             "event id (eid)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit structured JSON instead of prose")


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
    from repro.experiments.runner import run_single_flow
    from repro.obs import (
        DigestSink,
        JsonlSink,
        Observability,
        TeeSink,
        Tracer,
        parse_kinds,
    )

    path = scenario(args.scenario)
    try:
        kinds = parse_kinds(args.kinds) if args.kinds else None
    except ValueError as exc:
        raise SystemExit(str(exc))
    digest_sink = DigestSink()
    jsonl = JsonlSink(args.out) if args.out else None
    sink = digest_sink if jsonl is None else TeeSink([jsonl, digest_sink])
    obs = Observability(tracer=Tracer(sink, kinds))
    result = run_single_flow(path, args.cc, args.size, seed=args.seed,
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


COMMANDS = {
    "trace": (add_trace_arguments, cmd_trace),
    "analyze": (add_analyze_arguments, cmd_analyze),
    "explain": (add_explain_arguments, cmd_explain),
}
