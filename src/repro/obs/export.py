"""Telemetry exports: OpenMetrics text exposition and the `top` view.

Two consumers read one ``RunTelemetry.snapshot()`` (live, or reloaded
from ``status.json``) in different shapes:

* monitoring systems scrape **OpenMetrics** text — :func:`status_registry`
  + :func:`render_openmetrics`, for the stdlib-only :class:`MetricsServer`
  (``--metrics-port``) and ``repro top --metrics-out`` alike;
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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from threading import Thread
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry

#: content type monitoring scrapers expect for OpenMetrics payloads.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8")

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


def _label_str(labels: Mapping[str, Any],
               extra: Optional[Mapping[str, Any]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in sorted(merged.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite metric value {value!r}")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_openmetrics(registry: MetricRegistry) -> str:
    """Render every instrument in ``registry`` as OpenMetrics text."""
    lines: List[str] = []
    for name in registry.names():
        family = metric_name(name)
        kind = registry.type_of(name)
        lines.append(f"# TYPE {family} {kind}")
        for labels in registry.labels_of(name):
            instrument = registry.get(name, **labels)
            if isinstance(instrument, Counter):
                lines.append(f"{family}_total{_label_str(labels)} "
                             f"{_format_value(instrument.value)}")
            elif isinstance(instrument, Gauge):
                value = instrument.value
                if value is None:
                    continue
                lines.append(f"{family}{_label_str(labels)} "
                             f"{_format_value(value)}")
            elif isinstance(instrument, Histogram):
                cumulative = 0
                for bound, count in zip(instrument.bounds,
                                        instrument.bucket_counts):
                    cumulative += count
                    lines.append(
                        f"{family}_bucket"
                        f"{_label_str(labels, {'le': _format_value(bound)})}"
                        f" {cumulative}")
                lines.append(
                    f"{family}_bucket{_label_str(labels, {'le': '+Inf'})}"
                    f" {instrument.count}")
                lines.append(f"{family}_sum{_label_str(labels)} "
                             f"{_format_value(instrument.total)}")
                lines.append(f"{family}_count{_label_str(labels)} "
                             f"{instrument.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def status_registry(status: Mapping[str, Any]) -> MetricRegistry:
    """The ``run.*`` metric families of a ``RunTelemetry.snapshot()``:
    the live ``--metrics-port`` endpoint passes the collector's current
    one, ``repro top --metrics-out`` the one it read from ``status.json``.
    """
    registry = MetricRegistry()
    registry.gauge("run.total").set(status.get("total", 0))
    registry.gauge("run.done").set(status.get("done", 0))
    registry.gauge("run.workers").set(status.get("workers", 1))
    registry.gauge("run.finished").set(1 if status.get("finished") else 0)
    registry.gauge("run.elapsed_seconds").set(status.get("elapsed", 0.0))
    for outcome in ("executed", "cached", "failed"):
        registry.counter("run.jobs",
                         status=outcome).add(status.get(outcome, 0))
    registry.counter("run.retries").add(status.get("retries", 0))
    for kind, count in (status.get("by_kind") or {}).items():
        registry.counter("run.jobs_by_kind", kind=kind).add(count)
    for gauge_key in ("eta", "cache_ratio", "throughput"):
        value = status.get(gauge_key)
        if value is not None:
            name = {"eta": "run.eta_seconds"}.get(gauge_key,
                                                  f"run.{gauge_key}")
            registry.gauge(name).set(value)
    resources = status.get("resources") or {}
    for mode in ("user", "system"):
        registry.counter("run.cpu_seconds",
                         mode=mode).add(resources.get(f"cpu_{mode}", 0.0))
    registry.gauge("run.max_rss_kb").set(resources.get("max_rss_kb", 0))
    for key in ("engine_events", "flows_modelled"):
        registry.counter(f"run.{key}").add(resources.get(key, 0))
    for lane, stats in (status.get("lanes") or {}).items():
        registry.gauge("run.lane_jobs",
                       worker=lane).set(stats.get("jobs", 0))
        registry.gauge("run.lane_busy_seconds",
                       worker=lane).set(stats.get("busy", 0.0))
    bounds = status.get("span_buckets")
    if bounds:  # a status.json from an older writer carries no buckets
        for name, counts, total in (
                ("run.queue_wait", status["queue_wait_buckets"],
                 status["queue_wait_total"]),
                # every non-cached attempt was observed, retries included
                ("run.exec_seconds", status["exec_buckets"],
                 status["exec_total"] + status["retry_seconds"])):
            histogram = registry.histogram(name, buckets=bounds)
            histogram.bucket_counts = list(counts)
            histogram.count = sum(counts)
            histogram.total = total
    return registry


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


# ----------------------------------------------------------------------
# scrape endpoint
# ----------------------------------------------------------------------
class MetricsServer:
    """Minimal stdlib ``/metrics`` endpoint for live scraping.

    Serves whatever the ``render`` callable returns at scrape time on a
    daemon thread; ``port=0`` binds an ephemeral port (reported by
    :attr:`port` after :meth:`start`).
    """

    def __init__(self, render: Callable[[], str],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._render = render
        self._host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[Thread] = None

    def start(self) -> int:
        render = self._render

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                payload = render().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes shouldn't spam the campaign's stderr

        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler)
        self._server.daemon_threads = True
        self._thread = Thread(target=self._server.serve_forever,
                              name="repro-metrics", daemon=True)
        self._thread.start()
        return self.port

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("MetricsServer not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}/metrics"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
