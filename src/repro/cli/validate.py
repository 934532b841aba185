"""``repro validate``: statistical validation of the paper's claims."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cli.common import (
    add_campaign_flags,
    close_run,
    non_negative_int,
    open_run,
    positive_float,
)
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


def add_arguments(parser: argparse.ArgumentParser) -> None:
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="scaled-down workloads, few seeds "
                           "(default; the PR smoke gate)")
    mode.add_argument("--full", action="store_true",
                      help="paper-scale workloads and seed counts")
    parser.add_argument("--claims",
                        help="comma-separated claim ids (default: all; "
                             "see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered claims and exit")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the multi-seed fan-out")
    parser.add_argument("--timeout", type=positive_float, default=None,
                        help="per-job wall-clock timeout in seconds")
    parser.add_argument("--retries", type=non_negative_int, default=1,
                        help="retries per job after a failure/crash")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the ValidationReport as canonical JSON "
                             "(byte-identical across same-seed runs)")
    parser.add_argument("--out",
                        help="also write the JSON report to this path")
    parser.add_argument("--fail-on", choices=["fail", "inconclusive", "none"],
                        default="fail",
                        help="exit non-zero on FAIL (default), on FAIL or "
                             "INCONCLUSIVE, or never")
    parser.add_argument("--record-baseline", metavar="DIR",
                        help="record each claim's treatment samples under "
                             "DIR/<code fingerprint>/ for later --against")
    parser.add_argument("--against", metavar="DIR",
                        help="drift-check treatment samples against "
                             "baselines recorded under DIR; drift flips "
                             "the claim to FAIL")
    parser.add_argument("--baseline-fingerprint",
                        help="baseline generation to use when DIR holds "
                             "more than one (prefix accepted)")
    parser.add_argument("--ledger-dir",
                        help="write a content-addressed run ledger (and its "
                             ".run.json sidecar) here")
    add_campaign_flags(parser)


def run(args: argparse.Namespace) -> int:
    """Statistical validation of the paper's claims (repro.validate)."""
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

    session = open_run(args, "validate")
    try:
        report = run_validation(
            claim_ids, mode=mode, base_seed=args.seed,
            timeout=args.timeout, retries=args.retries, **session.kwargs)
    except RuntimeError as exc:
        raise SystemExit(f"repro validate: {exc}")

    # Ledger of the as-run verdicts (pre drift patching — that is an
    # overlay that depends on the baselines on disk; the ledger records
    # the deterministic statistical outcome).
    verdict_counts: dict = {}
    for verdict in report.verdicts:
        verdict_counts[verdict.verdict] = (
            verdict_counts.get(verdict.verdict, 0) + 1)
    close_run(
        args, session, mode=mode,
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


COMMANDS = {"validate": (add_arguments, run)}
