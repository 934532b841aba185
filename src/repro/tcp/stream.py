"""Application-driven streaming on top of the TCP sender.

The bulk :class:`~repro.tcp.sender.TcpSender` models a file whose size is
known up front (the paper's wget-a-file methodology).  Real servers often
*stream*: the application writes chunks as they become available (dynamic
content, video segments, request/response turns), so the sender is
app-limited whenever the write queue drains.  :class:`StreamingSource`
adds that behaviour without changing the transport: the sender's
``total_bytes`` tracks what the application has written so far, and
completion is gated on :meth:`close`.

This matters to SUSS because app-limited rounds must not be accelerated
(there is nothing to pace); ``SussCubic`` already checks
``sender.app_limited``, and ``tests/test_tcp_stream.py`` exercises
exactly that interaction.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.tcp.connection import Transfer, open_transfer
from repro.tcp.sender import TcpSender


class StreamingSource:
    """Feeds an open-ended transfer from application writes."""

    def __init__(self, sender: TcpSender) -> None:
        self.sender = sender
        self._written = 0
        self._closed = False
        sender.finished_writing = False
        sender.total_bytes = 0

    # ------------------------------------------------------------------
    @property
    def bytes_written(self) -> int:
        return self._written

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def backlog(self) -> int:
        """Written bytes not yet sent."""
        return max(self._written - self.sender.snd_nxt, 0)

    def write(self, nbytes: int) -> None:
        """Append ``nbytes`` of application data to the stream."""
        if self._closed:
            raise RuntimeError("stream already closed")
        if nbytes <= 0:
            raise ValueError("write size must be positive")
        self._written += nbytes
        self.sender.total_bytes = self._written
        self.sender.kick()

    def close(self) -> None:
        """No more data: the transfer completes once everything is ACKed."""
        if self._closed:
            return
        self._closed = True
        sender = self.sender
        sender.finished_writing = True
        sender.total_bytes = self._written
        if sender.snd_una >= sender.total_bytes and not sender.completed \
                and sender.handshake_done:
            sender._complete(sender.sim.now)


def open_stream(sim, server, client, flow_id: int, cc,
                on_complete: Optional[Callable] = None,
                start_time: float = 0.0
                ) -> Tuple[StreamingSource, Transfer]:
    """Create a streaming transfer; returns ``(source, transfer)``.

    The transfer completes when the source is closed and all written data
    has been acknowledged.
    """
    transfer = open_transfer(sim, server, client, flow_id,
                             size_bytes=1,  # replaced by StreamingSource
                             cc=cc, on_complete=on_complete,
                             start_time=start_time)
    source = StreamingSource(transfer.sender)
    return source, transfer
