"""Host time that a noisy neighbour cannot move: CPU seconds, speed-scaled.

The benchmark runs on a shared box.  Sizing runs read the same
``topo-cross`` round at 2.6 s of wall time and, minutes later, at 6.7 s;
interpreter start-up slowed in step.  Two things were going on, and no
median inside a 15 s run removes either, because both outlast the run:

* *steal* — the hypervisor gave the CPU to another tenant.  Wall time
  counts it, CPU time does not, and no change to the program can move
  it.  So host time is read as CPU seconds (:func:`cpu_seconds`: this
  process plus the children it waited for).  This program is
  single-threaded and waits for nothing, so on a quiet host its CPU time
  and its wall time agree to 1–2 %; the raw wall time is kept beside it.
* *slowdown* — the CPU itself ran slower (shared caches, a busy sibling
  thread).  So every reading is taken between two readings of a fixed
  pure-Python :func:`reference_loop` and scaled to the speed the host
  showed right then::

      host_s = cpu seconds × REFERENCE_S / (mean of the two loop times)

``REFERENCE_S`` is what the loop takes on the quiet box the benchmark was
sized on, so there scaled and raw agree; ``--out`` keeps the raw
readings and the scales.  The loop uses nothing of ``repro``: a change
to the program cannot move it.
"""

from __future__ import annotations

import resource
import time
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Dict, Tuple, TypeVar

T = TypeVar("T")

#: one loop's CPU time on the quiet sizing box, by definition of the scale
REFERENCE_S = 0.033
_STEPS = 30_000
#: a reading runs loops until two in a row agree to within this share ...
_AGREE = 0.05
#: ... or this many have run.  A vCPU that sat idle (the process waited
#: for a child) runs ~1.7× slow for its first ~0.2 s of work; the reading
#: must not catch that ramp, which the workload does not see.
_MAX_LOOPS = 8


def cpu_seconds() -> float:
    """CPU time this process and the children it waited for have used."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> float:
        self.count += 1
        self.total += value * 0.5
        return self.total


def _one_loop() -> float:
    """The mix a discrete-event simulator is made of: a heap of small
    lists, a FIFO, int-keyed dict traffic, slotted attribute updates,
    bound-method calls, float arithmetic."""
    start = time.process_time()
    heap: list = []
    fifo: deque = deque()
    table: dict = {}
    cell = _Cell()
    add = cell.add
    for i in range(_STEPS):
        when = (i * 0.6180339887) % 1.0
        heappush(heap, [when, i, 0, None])
        fifo.append(i)
        if len(heap) > 512:
            record = heappop(heap)
            record[2] = 1
            table[record[1] & 4095] = record
            add(record[0] + fifo.popleft())
    return time.process_time() - start


def reference_loop() -> float:
    """CPU seconds the fixed loop takes right now, once it has settled."""
    previous = _one_loop()
    for _ in range(_MAX_LOOPS - 1):
        current = _one_loop()
        if abs(current - previous) <= _AGREE * previous:
            return (previous + current) / 2.0
        previous = current
    return previous


def reading(run: Callable[[], T]) -> Tuple[T, Dict[str, float]]:
    """``run()`` between two reference readings.

    Returns its value and the reading: ``wall_s`` and ``cpu_s`` as
    measured, the host-speed ``scale``, and ``host_s = cpu_s × scale``,
    the number the benchmark reports.
    """
    before = reference_loop()
    wall = time.perf_counter()
    cpu = cpu_seconds()
    value = run()
    cpu = cpu_seconds() - cpu
    wall = time.perf_counter() - wall
    scale = REFERENCE_S / ((before + reference_loop()) / 2.0)
    return value, {"wall_s": wall, "cpu_s": cpu, "scale": scale,
                   "host_s": cpu * scale}
