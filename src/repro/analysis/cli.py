"""Entry point for ``repro lint``: determinism and layering checks.

Runs the AST determinism rules over every ``.py`` file under the given
paths and, for each ``repro`` package found among them (e.g. ``src``),
the import-graph layering checker.  Exit status is 0 for a clean tree
and 1 when there are findings, so CI can gate on it directly.
``--explain RULE`` prints the catalogue entry for any DET/LAY/SAN code
and exits.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.analysis.findings import (
    Finding,
    explain,
    render_json,
    render_text,
    sort_findings,
)
from repro.analysis.layering import check_layering, find_package_roots
from repro.analysis.lint import lint_paths


def run_lint(paths: List[str]) -> List[Finding]:
    """All findings for ``paths``: determinism and layering rules."""
    findings = list(lint_paths(paths))
    for root in find_package_roots([Path(p) for p in paths]):
        findings.extend(check_layering(root))
    return sort_findings(findings)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the lint flags — the one declaration both
    ``python -m repro.analysis.cli`` and ``python -m repro lint`` parse."""
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint "
                             "(default: src tests)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON")
    parser.add_argument("--explain", metavar="RULE",
                        help="print the catalogue entry for a rule ID "
                             "(e.g. DET003, LAY001) and exit")


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Lint as ``args`` (parsed by ``parser``) asks; the exit status."""
    if args.explain:
        try:
            print(explain(args.explain))
        except KeyError as exc:
            print(exc.args[0])
            return 2
        return 0

    paths = [p for p in args.paths if Path(p).exists()]
    missing = sorted(set(args.paths) - set(paths))
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    findings = run_lint(paths)
    if args.as_json:
        print(render_json(findings))
    elif findings:
        print(render_text(findings))
    else:
        print("repro lint: clean")
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism/layering linter for the SUSS "
                    "reproduction")
    add_arguments(parser)
    return run(parser.parse_args(argv), parser)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
