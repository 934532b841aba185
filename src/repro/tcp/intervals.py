"""Sorted byte-range set, maintained incrementally.

Both ends of a connection track "which sequence ranges above the
cumulative point are held": the sender's SACK scoreboard (above
``snd_una``) and the receiver's out-of-order reassembly buffer (above
``rcv_nxt``).  During loss recovery that set has hundreds of members and
is consulted several times per packet, so every operation here is a
bisect plus a splice — nothing re-sorts, re-merges or re-sums the whole
set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

Interval = Tuple[int, int]


class IntervalSet:
    """Disjoint, non-touching ``[start, end)`` intervals in ascending order.

    Held as parallel ``starts`` / ``ends`` lists (both ascending, since
    the intervals neither overlap nor touch) with ``total`` kept equal to
    the bytes covered.  Hot callers read the three attributes directly;
    only the methods may mutate them.
    """

    __slots__ = ("starts", "ends", "total")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.total = 0

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[Interval]:
        return zip(self.starts, self.ends)

    def __contains__(self, interval: Interval) -> bool:
        """True when exactly ``interval`` is a member (not a sub-range)."""
        start, end = interval
        i = bisect_left(self.starts, start)
        return (i < len(self.starts) and self.starts[i] == start
                and self.ends[i] == end)

    def add(self, start: int, end: int) -> Interval:
        """Insert ``[start, end)`` (``start < end``), merging every member
        it overlaps or touches; returns the member that now covers it."""
        starts, ends = self.starts, self.ends
        lo = bisect_left(ends, start)    # members before lo end short of start
        hi = bisect_right(starts, end)   # members from hi on begin past end
        if lo < hi:
            if starts[lo] < start:
                start = starts[lo]
            if ends[hi - 1] > end:
                end = ends[hi - 1]
            self.total -= sum(ends[lo:hi]) - sum(starts[lo:hi])
        starts[lo:hi] = (start,)
        ends[lo:hi] = (end,)
        self.total += end - start
        return start, end

    def trim_below(self, floor: int) -> None:
        """Forget everything below ``floor``, clipping a member that
        straddles it."""
        starts, ends = self.starts, self.ends
        if not starts or starts[0] >= floor:
            return
        gone = bisect_right(ends, floor)
        if gone:
            self.total -= sum(ends[:gone]) - sum(starts[:gone])
            del starts[:gone]
            del ends[:gone]
        if starts and starts[0] < floor:
            self.total -= floor - starts[0]
            starts[0] = floor

    def containing(self, seq: int) -> Optional[Interval]:
        """The member with ``start <= seq < end``, if any."""
        i = bisect_right(self.starts, seq) - 1
        if i >= 0 and seq < self.ends[i]:
            return self.starts[i], self.ends[i]
        return None
