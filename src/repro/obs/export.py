"""Telemetry exports: OpenMetrics text exposition and the `top` view.

Two consumers read one ``RunTelemetry.snapshot()``, as a run keeps it
in ``status.json``, in different shapes:

* monitoring systems read **OpenMetrics** text —
  :func:`render_openmetrics`, written by ``repro top --once
  --metrics-out PATH`` from the snapshot in ``status.json``;
* humans watch ``repro top`` — a single-screen ANSI dashboard rendered
  by :func:`render_top` (``--once`` prints one frame for CI logs).

The exposition follows the OpenMetrics text format: one ``# TYPE`` line
per metric family, counters suffixed ``_total``, histograms exploded
into cumulative ``_bucket{le=...}`` samples plus ``_sum``/``_count``,
and a terminating ``# EOF`` line.  Metric names are sanitised
(``run.queue_wait`` → ``repro_run_queue_wait``) and label values
escaped per the spec.
"""

from __future__ import annotations

import re
from typing import Any, List, Mapping, Optional, Tuple

_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def metric_name(name: str) -> str:
    """``run.queue_wait`` → ``repro_run_queue_wait``."""
    return "repro_" + _NAME_SANITISE.sub("_", name)


def _escape_label(value: Any) -> str:
    text = str(value)
    for raw, escaped in _LABEL_ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def _label_str(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite metric value {value!r}")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: one exposition line: (name suffix, labels, value)
Sample = Tuple[str, Mapping[str, Any], Optional[float]]

_SUFFIX = {"gauge": "", "counter": "_total"}


def _families(status: Mapping[str, Any]) -> List[Tuple[str, str, List[Sample]]]:
    """The ``run.*`` metric families of a snapshot as ``(name, type,
    samples)`` rows."""
    res = status.get("resources") or {}
    lanes = sorted((status.get("lanes") or {}).items())
    # name -> (type, value)
    plain = {
        "run.total": ("gauge", status.get("total", 0)),
        "run.done": ("gauge", status.get("done", 0)),
        "run.workers": ("gauge", status.get("workers", 1)),
        "run.finished": ("gauge", 1 if status.get("finished") else 0),
        "run.elapsed_seconds": ("gauge", status.get("elapsed", 0.0)),
        "run.max_rss_kb": ("gauge", res.get("max_rss_kb", 0)),
        "run.retries": ("counter", status.get("retries", 0)),
        "run.engine_events": ("counter", res.get("engine_events", 0)),
        "run.flows_modelled": ("counter", res.get("flows_modelled", 0)),
    }
    for key, name in (("eta", "run.eta_seconds"),
                      ("cache_ratio", "run.cache_ratio"),
                      ("throughput", "run.throughput")):
        if status.get(key) is not None:
            plain[name] = ("gauge", status[key])
    # name -> (type, label, [(label value, value), ...] in label order);
    # a family with no label values is left out
    labelled = {
        "run.jobs": ("counter", "status", [
            (outcome, status.get(outcome, 0))
            for outcome in ("cached", "executed", "failed")]),
        "run.jobs_by_kind": ("counter", "kind",
                             sorted((status.get("by_kind") or {}).items())),
        "run.cpu_seconds": ("counter", "mode", [
            (mode, res.get(f"cpu_{mode}", 0.0))
            for mode in ("system", "user")]),
        "run.lane_jobs": ("gauge", "worker", [
            (lane, stats.get("jobs", 0)) for lane, stats in lanes]),
        "run.lane_busy_seconds": ("gauge", "worker", [
            (lane, stats.get("busy", 0.0)) for lane, stats in lanes]),
    }
    rows: List[Tuple[str, str, List[Sample]]] = [
        (name, kind, [(_SUFFIX[kind], {}, value)])
        for name, (kind, value) in plain.items()]
    rows += [(name, kind, [(_SUFFIX[kind], {label: key}, value)
                           for key, value in pairs])
             for name, (kind, label, pairs) in labelled.items() if pairs]
    bounds = status.get("span_buckets")
    if bounds:  # a status.json from an older writer carries no buckets
        for name, counts, total in (
                ("run.queue_wait", status["queue_wait_buckets"],
                 status["queue_wait_total"]),
                # every non-cached attempt was observed, retries included
                ("run.exec_seconds", status["exec_buckets"],
                 status["exec_total"] + status["retry_seconds"])):
            samples: List[Sample] = []
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                samples.append(
                    ("_bucket", {"le": _format_value(bound)}, cumulative))
            samples += [("_bucket", {"le": "+Inf"}, sum(counts)),
                        ("_sum", {}, total), ("_count", {}, sum(counts))]
            rows.append((name, "histogram", samples))
    return rows


def render_openmetrics(status: Mapping[str, Any]) -> str:
    """A ``RunTelemetry.snapshot()`` as OpenMetrics text (``repro top
    --metrics-out`` passes the one it read from ``status.json``).
    Families print in name order; a ``None`` sample is left out.
    """
    lines: List[str] = []
    for name, kind, samples in sorted(_families(status),
                                      key=lambda row: row[0]):
        family = metric_name(name)
        lines.append(f"# TYPE {family} {kind}")
        for suffix, labels, value in samples:
            if value is not None:
                lines.append(f"{family}{suffix}{_label_str(labels)} "
                             f"{_format_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# human view: repro top
# ----------------------------------------------------------------------
def _human_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def _human_count(n: float) -> str:
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(n) >= threshold:
            return f"{n / threshold:.1f}{suffix}"
    return str(int(n))


def _bar(fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(status: Mapping[str, Any], width: int = 78) -> str:
    """One dashboard frame from a status snapshot (plain text)."""
    total = status.get("total", 0)
    done = status.get("done", 0)
    fraction = done / total if total else 0.0
    state = "complete" if status.get("finished") else "running"
    title = f"repro top — {status.get('tool', 'run')} [{state}]"
    elapsed = f"elapsed {_human_duration(status.get('elapsed'))}"
    lines = [f"{title}{' ' * max(width - len(title) - len(elapsed), 1)}"
             f"{elapsed}"]
    lines.append(
        f"jobs [{_bar(fraction, 20)}] {done}/{total} ({fraction:.0%})"
        f"  exec {status.get('executed', 0)}"
        f"  cache {status.get('cached', 0)}"
        f"  fail {status.get('failed', 0)}"
        f"  retry {status.get('retries', 0)}")
    throughput = status.get("throughput")
    cache_ratio = status.get("cache_ratio")
    lines.append(
        f"rate {throughput:.2f} jobs/s" if throughput is not None
        else "rate --")
    lines[-1] += (f"   cache {cache_ratio:.1%}" if cache_ratio is not None
                  else "   cache --")
    lines[-1] += f"   eta {_human_duration(status.get('eta'))}"
    res = status.get("resources") or {}
    engine_events = res.get("engine_events", 0)
    exec_total = status.get("exec_total") or 0.0
    event_rate = (f" ({_human_count(engine_events / exec_total)}/s cpu)"
                  if engine_events and exec_total else "")
    lines.append(
        f"res  cpu {res.get('cpu_user', 0.0):.1f}s u"
        f"/{res.get('cpu_system', 0.0):.1f}s s"
        f"  rss {res.get('max_rss_kb', 0) / 1024:.0f}MB"
        f"  engine {_human_count(engine_events)}ev{event_rate}"
        f"  flowsim {_human_count(res.get('flows_modelled', 0))}")
    by_kind = status.get("by_kind") or {}
    if by_kind:
        parts = "  ".join(f"{kind}:{count}"
                          for kind, count in sorted(by_kind.items()))
        lines.append(f"kind {parts}")
    lanes = status.get("lanes") or {}
    if lanes:
        lines.append("workers")
        for lane, stats in sorted(lanes.items()):
            label = "inline" if lane == "inline" else f"pid {lane}"
            last = stats.get("last", "")
            if len(last) > 40:
                last = last[:37] + "..."
            lines.append(
                f"  {label:<10} {stats.get('jobs', 0):>4} jobs"
                f"  busy {_human_duration(stats.get('busy', 0.0)):>7}"
                f"  {stats.get('last_status', ''):<7} {last}")
    return "\n".join(line[:width] for line in lines)
