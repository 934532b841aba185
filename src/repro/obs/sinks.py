"""Trace sinks: where structured records go.

A sink is anything with ``emit(record)`` and ``close()`` — the protocol
is duck-typed so tests can pass ad-hoc validating sinks.  The built-in
sinks cover the three consumption modes of the evaluation:

* :class:`MemorySink` / :class:`RingBufferSink` — in-process analysis
  (property tests, invariant checks) without touching the filesystem;
* :class:`JsonlSink` — one canonical JSON object per line, the on-disk
  interchange format (``repro trace``, CI failure artifacts);
* :class:`DigestSink` — a streaming SHA-256 over the canonical line
  encoding, used by the golden-trace suite and the ``jobs=1`` vs
  ``jobs=4`` determinism cross-check without buffering the stream;
* :class:`TeeSink` — fan one stream out to several sinks.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import (Deque, Iterator, List, Optional, Protocol, Sequence,
                    TextIO, runtime_checkable)

from repro.obs.records import TraceRecord


@runtime_checkable
class TraceSink(Protocol):
    """Destination for trace records."""

    def emit(self, record: TraceRecord) -> None: ...

    def close(self) -> None: ...


class MemorySink:
    """Unbounded in-memory record list (tests, small runs)."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def emit(self, record: TraceRecord) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def by_kind(self, kind: str) -> List[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def by_flow(self, flow: int) -> List[TraceRecord]:
        return [r for r in self.records if r.flow == flow]


class RingBufferSink(MemorySink):
    """Bounded sink keeping only the newest ``capacity`` records.

    The invariant tests attach one of these to long runs so memory stays
    flat while the most recent dynamics remain inspectable — the same
    role the kernel's ring-buffered trace buffers play.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[TraceRecord] = deque(maxlen=capacity)
        self.emitted = 0  # total offered, including overwritten
        # A real counter, not ``emitted - len``: draining empties the
        # ring without having dropped anything, so the derived form
        # over-reports after the first drain (and exactly at wrap the
        # two definitions must both read 0).
        self._dropped = 0

    @property
    def records(self) -> List[TraceRecord]:  # type: ignore[override]
        return list(self._ring)

    @property
    def dropped(self) -> int:
        """Records overwritten because the buffer was full."""
        return self._dropped

    def emit(self, record: TraceRecord) -> None:
        if len(self._ring) == self.capacity:
            self._dropped += 1
        self._ring.append(record)
        self.emitted += 1

    def drain(self) -> List[TraceRecord]:
        """Remove and return the buffered records, oldest first.

        ``emitted`` and ``dropped`` keep their lifetime counts; only the
        buffer contents reset, so a monitor can drain periodically and
        still account for every record offered.
        """
        out = list(self._ring)
        self._ring.clear()
        return out

    def __len__(self) -> int:
        return len(self._ring)


class JsonlSink:
    """Write each record as one canonical JSON line.

    Accepts either an open text stream or a path.  A path is opened on
    first emit, so constructing a sink never touches the filesystem;
    ``close()`` opens it if nothing was emitted — a trace with no
    records is an empty file, not a missing one.
    """

    def __init__(self, target) -> None:
        self._path: Optional[str] = None
        self._stream: Optional[TextIO] = None
        self._owns_stream = False
        if isinstance(target, str):
            self._path = target
        else:
            self._stream = target
        self.lines = 0

    def _open(self) -> TextIO:
        if self._path is None:
            raise ValueError("emit on a closed JsonlSink")
        self._stream = open(self._path, "w", encoding="utf-8")
        self._owns_stream = True
        return self._stream

    def emit(self, record: TraceRecord) -> None:
        stream = self._stream if self._stream is not None else self._open()
        # One write per record; what is pending sits in the file's own
        # buffer.
        stream.write(record.to_line() + "\n")
        self.lines += 1

    def close(self) -> None:
        if self._stream is None:
            if self._path is None:
                return  # already closed
            self._open()
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
            self._stream = self._path = None


class DigestSink:
    """Streaming SHA-256 over the canonical line encoding.

    ``digest()`` may be read at any point; it covers everything emitted
    so far.  Hashing line-by-line (with a newline separator) makes the
    digest equal to hashing the equivalent JSONL file byte-for-byte.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.records = 0

    def emit(self, record: TraceRecord) -> None:
        self._hash.update((record.to_line() + "\n").encode("utf-8"))
        self.records += 1

    def close(self) -> None:
        pass

    def digest(self) -> str:
        return self._hash.hexdigest()


class TeeSink:
    """Replicate every record to each of several sinks."""

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one sink")
        self.sinks = list(sinks)

    def emit(self, record: TraceRecord) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
