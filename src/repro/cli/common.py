"""What the subcommand modules share: argument types, the cache /
observer flags, and opening and closing a run."""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, Optional

from repro.workloads.scenarios import INTERNET_SCENARIOS


def no_arguments(parser: argparse.ArgumentParser) -> None:
    """``add_arguments`` of a subcommand that takes none."""


def scenario(name: str):
    if name not in INTERNET_SCENARIOS:
        known = ", ".join(sorted(INTERNET_SCENARIOS))
        raise SystemExit(f"unknown scenario {name!r}; known: {known}")
    return INTERNET_SCENARIOS[name]


# -- argparse ``type=`` callables: a bad value is a usage error (exit 2) --
def cc_name(text: str) -> str:
    """A congestion-control name :func:`repro.cc.create` will accept."""
    from repro.cc.base import available

    if text.lower() not in available():
        raise argparse.ArgumentTypeError(
            f"unknown congestion control {text!r}; "
            f"known: {', '.join(available())}")
    return text


def positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _as_float(text: str) -> float:
    """``float(text)``, or NaN (which no range admits) if unparsable."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def positive_float(text: str) -> float:
    value = _as_float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def non_negative_float(text: str) -> float:
    value = _as_float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative finite number, got {text!r}")
    return value


def probability(text: str) -> float:
    """A probability an event may have without being certain: ``[0, 1)``."""
    value = _as_float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a probability in [0, 1), got {text!r}")
    return value


def comma_separated(item: Callable[[str], Any]) -> Callable[[str], list]:
    """``type=`` for a comma-separated list whose parts ``item`` parses."""
    return lambda text: [item(part) for part in text.split(",")]


def add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (1 = run inline)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache results on disk; re-runs only compute "
                             "misses")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress on stderr")


def open_run(args: argparse.Namespace,
             tool: str = "campaign") -> argparse.Namespace:
    """Runner kwargs from the shared flags: ``--jobs``, the ``--cache-dir``
    store, and the run's one observer, narrating to stderr unless
    ``--quiet``.  A run that completes ends with :func:`close_run`."""
    from repro.campaign.store import ResultStore
    from repro.obs.runtime import RunTelemetry

    store = None
    if getattr(args, "cache_dir", None) and not getattr(args, "no_cache",
                                                         False):
        store = ResultStore(args.cache_dir)
    telemetry = RunTelemetry(
        tool=tool, min_interval=0.5,
        stream=None if getattr(args, "quiet", False) else sys.stderr)
    return argparse.Namespace(
        telemetry=telemetry,
        kwargs={"jobs": args.jobs, "store": store, "telemetry": telemetry})


def close_run(args: argparse.Namespace, run: argparse.Namespace, *,
              mode: str, fingerprint: str = "", base_seed: int = 0,
              summary: Optional[dict] = None) -> None:
    """For a run that completed under ``--ledger-dir``, write the run
    ledger + execution sidecar."""
    if not getattr(args, "ledger_dir", None):
        return
    from repro.obs.ledger import build_ledger, write_ledger

    telemetry = run.telemetry
    ledger = build_ledger(telemetry.tool, mode, fingerprint, base_seed,
                          telemetry.jobs, telemetry.values, summary=summary)
    path = write_ledger(ledger, args.ledger_dir,
                        execution=telemetry.execution_record())
    print(f"run ledger: {path} (id {ledger.ledger_id[:16]})",
          file=sys.stderr)
