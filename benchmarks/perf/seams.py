"""Timing seams: spans around repro's public boundary calls, set from outside.

The traced pass of the benchmark (``run.py --trace 1``) installs these
around the calls *into* each layer, runs one round, and removes them
again; the end-to-end rounds never see them.  Nothing here edits or
imports a private name: a seam is either a subclass handed in through a
public constructor (:class:`SpanProfiler`, :func:`timed_store`,
:class:`TimedSink`), or a class-level wrapper over a public method that
:meth:`Seams.uninstall` puts back byte for byte.

A span is ``(name, layer, start, end, parent)``.  Its layer is the second
component of the wrapped function's ``__module__`` (``repro.core.suss``
is ``core``), so ``SussCubic.on_ack`` calling ``Cubic.on_ack`` splits
``core`` from ``cc`` with no special case.  Self time is a span's
duration minus the time its child spans cover; :class:`SpanRecorder`
keeps that sum online, per span name, and keeps the first
:data:`RAW_LIMIT` raw spans for inspection — a 20 MB download is
~700 k spans, which would not fit in memory as tuples.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import EventProfiler

#: raw spans kept per recorder (the aggregates cover all of them)
RAW_LIMIT = 10_000

#: layer of spans opened by the benchmark itself; its self time is the
#: time no seam covers, i.e. ``trace.unattributed_share``
BENCH_LAYER = "bench"

#: kinds of span, first element of a span key
OP, CALL, EVENT, HOOK = "op", "call", "event", "hook"

#: ``CongestionControl`` hooks the sender drives (``tcp_congestion_ops``)
CC_HOOKS = ("on_ack", "on_dupack", "on_loss", "on_ecn", "on_rto",
            "on_recovery_exit", "on_round_start", "on_data_start",
            "on_flow_complete")

#: class-level seams: (module, class, methods).  Listed by public name so
#: that a target a later refactor removes is reported, not fatal.
CLASS_SEAMS = (
    ("repro.net", "Host", ("transmit", "receive")),
    ("repro.tcp", "TcpSender", ("on_packet",)),
    ("repro.tcp", "TcpReceiver", ("on_packet",)),
)

SpanKey = Tuple[str, str, str]  # (kind, name, layer)


def layer_of(module: Optional[str]) -> str:
    """``repro.<layer>.…`` → ``<layer>``; anything else is the benchmark."""
    parts = (module or "").split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return BENCH_LAYER


class SpanRecorder:
    """In-memory span log with online self-time accounting.

    ``by_group[group][key]`` is ``[calls, total_s, self_s]``.  The group
    is a label the benchmark switches between ops (the op's congestion
    control), so per-ACK costs of ``cubic+suss`` and ``cubic`` ops can
    be told apart; a span is booked to the group current when it ends.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.by_group: Dict[str, Dict[SpanKey, List[float]]] = {}
        #: first RAW_LIMIT spans: (name, layer, start, end, parent index)
        self.raw: List[Optional[Tuple[str, str, float, float, int]]] = []
        self._stack: List[list] = []  # [key, start, child_s, raw index]
        self.set_group("-")

    def set_group(self, group: str) -> None:
        self._stats = self.by_group.setdefault(group, {})

    def push(self, key: SpanKey) -> None:
        raw = self.raw
        if len(raw) < RAW_LIMIT:
            index = len(raw)
            raw.append(None)
        else:
            index = -1
        self._stack.append([key, self.clock(), 0.0, index])

    def pop(self) -> None:
        end = self.clock()
        key, start, child_s, index = self._stack.pop()
        duration = end - start
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        entry = self._stats.get(key)
        if entry is None:
            self._stats[key] = [1, duration, duration - child_s]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
        if index >= 0:
            parent = stack[-1][3] if stack else -1
            self.raw[index] = (key[1], key[2], start, end, parent)

    def timed(self, key: SpanKey, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span; keeps ``fn``'s name and module."""
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def timed_call(*args: Any, **kwargs: Any) -> Any:
            push(key)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
        return timed_call

    # -- read-out -------------------------------------------------------
    def entries(self, group: Optional[str] = None
                ) -> Iterator[Tuple[SpanKey, List[float]]]:
        groups = self.by_group if group is None else {
            group: self.by_group.get(group, {})}
        for stats in groups.values():
            yield from stats.items()

    def total(self, field: int, group: Optional[str] = None, *,
              kind: Optional[str] = None, name: Optional[str] = None,
              layer: Optional[str] = None) -> float:
        """Sum one field (0 calls, 1 total_s, 2 self_s) over matching spans."""
        return sum(entry[field] for key, entry in self.entries(group)
                   if (kind is None or key[0] == kind)
                   and (name is None or key[1] == name)
                   and (layer is None or key[2] == layer))

    def layer_self(self) -> Dict[str, float]:
        """Self time per layer; sums to the root spans' total time."""
        out: Dict[str, float] = {}
        for key, entry in self.entries():
            out[key[2]] = out.get(key[2], 0.0) + entry[2]
        return out

    def span_table(self) -> List[Dict[str, Any]]:
        """Aggregate per span name over all groups, largest self time first."""
        merged: Dict[SpanKey, List[float]] = {}
        for key, entry in self.entries():
            row = merged.setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                row[i] += entry[i]
        return [{"kind": k[0], "name": k[1], "layer": k[2], "calls": int(e[0]),
                 "total_s": e[1], "self_s": e[2]}
                for k, e in sorted(merged.items(), key=lambda kv: -kv[1][2])]


class SpanProfiler(EventProfiler):
    """The engine's ``profiler.fire`` hook: one span per fired event."""

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self.recorder = recorder
        self._keys: Dict[Any, SpanKey] = {}

    def fire(self, callback: Callable[..., None], args: Tuple[Any, ...]) -> None:
        fn = getattr(callback, "__func__", callback)
        key = self._keys.get(fn)
        if key is None:
            key = self._keys[fn] = (
                EVENT, getattr(fn, "__qualname__", repr(fn)),
                layer_of(getattr(fn, "__module__", None)))
        self.recorder.push(key)
        try:
            callback(*args)
        finally:
            self.recorder.pop()


class TimedSink:
    """A trace sink that spans every ``emit`` of the sink it wraps."""

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.emit = recorder.timed(
            (CALL, f"{type(inner).__name__}.emit", "obs"), inner.emit)

    def close(self) -> None:
        self.inner.close()


def timed_store(recorder: SpanRecorder, root: Any,
                on_put: Optional[Callable[[], None]] = None) -> Any:
    """A ``ResultStore`` whose ``get``/``put`` are spans.

    ``on_put`` runs after each ``put``: the scheduler puts a result the
    moment its job ends, which is the only per-job boundary visible from
    outside ``run_campaign``.
    """
    from repro.campaign import ResultStore

    timed_get = recorder.timed((CALL, "ResultStore.get", "campaign"),
                               ResultStore.get)
    timed_put = recorder.timed((CALL, "ResultStore.put", "campaign"),
                               ResultStore.put)

    class TimedStore(ResultStore):
        get = timed_get

        def put(self, job_hash, record):
            path = timed_put(self, job_hash, record)
            if on_put is not None:
                on_put()
            return path

    return TimedStore(root)


class _RunSeam:
    """Data descriptor that spans ``Simulator.run``.

    The engine installs ``run`` as an *instance* attribute (a closure),
    which a plain class-level wrapper never sees.  A data descriptor on
    the class wins over the instance ``__dict__``: ``__set__`` lets the
    engine store its closure where it always did, ``__get__`` hands back
    that closure inside a span.  Deleting the descriptor restores the
    class exactly, and live instances keep working.
    """

    def __init__(self, recorder: SpanRecorder, key: SpanKey,
                 original: Any) -> None:
        self.recorder = recorder
        self.key = key
        self.original = original  # the class's own ``run``, or None

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__["run"] = value

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        inner = obj.__dict__.get("run")
        if inner is None:
            inner = self.original.__get__(obj, owner)
        return self.recorder.timed(self.key, inner)


class Seams:
    """Install the class-level seams; put everything back on ``uninstall``."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.profiler = SpanProfiler(self.recorder)
        #: seam name → True when installed, None when its target is gone
        self.installed: Dict[str, Optional[bool]] = {}
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    # -- helpers --------------------------------------------------------
    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def _wrap_method(self, cls: Any, attr: str, kind: str) -> bool:
        fn = vars(cls).get(attr)
        if not callable(fn):
            return False
        key = (kind, f"{cls.__name__}.{attr}", layer_of(fn.__module__))
        self._replace(cls, attr, self.recorder.timed(key, fn))
        return True

    @staticmethod
    def _resolve(module: str, name: str) -> Any:
        try:
            return getattr(importlib.import_module(module), name, None)
        except ImportError:
            return None

    # -- install / uninstall -------------------------------------------
    def install(self) -> "Seams":
        from repro.obs.profile import install_global

        try:
            self._install_all()
        except BaseException:
            self.uninstall()
            raise
        install_global(self.profiler)
        return self

    def _install_all(self) -> None:
        for module, cls_name, methods in CLASS_SEAMS:
            cls = self._resolve(module, cls_name)
            for attr in methods:
                self.installed[f"{cls_name}.{attr}"] = (
                    (cls is not None
                     and self._wrap_method(cls, attr, CALL)) or None)
        self.installed["CongestionControl.hooks"] = self._install_cc() or None
        self.installed["Simulator.run"] = self._install_run() or None
        self.installed["FlowModel.estimate"] = self._install_models() or None

    def _install_cc(self) -> bool:
        """Every hook of every class a registered algorithm is made of."""
        base = self._resolve("repro.cc.base", "CongestionControl")
        create = self._resolve("repro.cc.base", "create")
        available = self._resolve("repro.cc.base", "available")
        if None in (base, create, available):
            return False
        seen = set()
        for name in available():
            for cls in type(create(name)).__mro__:
                if cls in seen or not issubclass(cls, base):
                    continue
                seen.add(cls)
                for hook in CC_HOOKS:
                    self._wrap_method(cls, hook, HOOK)
        return bool(seen)

    def _install_run(self) -> bool:
        simulator = self._resolve("repro.sim", "Simulator")
        if simulator is None:
            return False
        cls = type(simulator())
        original = getattr(cls, "run", None)
        if original is None:
            return False
        key = (CALL, "Simulator.run", layer_of(cls.__module__))
        self._replace(cls, "run", _RunSeam(self.recorder, key, original))
        return True

    def _install_models(self) -> bool:
        create_model = self._resolve("repro.flowsim", "create_model")
        models = self._resolve("repro.flowsim", "available_models")
        if None in (create_model, models):
            return False
        wrapped = False
        for cls in {type(create_model(name)) for name in models()}:
            wrapped |= self._wrap_method(cls, "estimate", CALL)
        return wrapped

    def uninstall(self) -> None:
        from repro.obs.profile import clear_global, global_profiler

        if global_profiler() is self.profiler:
            clear_global()
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Seams":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- benchmark-side spans --------------------------------------------
    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call a public function the benchmark itself invokes, in a span."""
        self.recorder.push((CALL, fn.__qualname__, layer_of(fn.__module__)))
        try:
            return fn(*args, **kwargs)
        finally:
            self.recorder.pop()

    @contextlib.contextmanager
    def op(self, group: str) -> Iterator[None]:
        """Root span of one op; ``group`` labels what runs inside it."""
        self.recorder.set_group(group)
        self.recorder.push((OP, "op", BENCH_LAYER))
        try:
            yield
        finally:
            self.recorder.pop()
