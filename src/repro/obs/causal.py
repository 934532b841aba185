"""Causal index over provenance-stamped traces.

Since record-schema v2 every :class:`~repro.obs.records.TraceRecord`
carries ``(eid, parent_eid)``: the engine event in whose execution it
was emitted and that event's nearest record-emitting causal ancestor
(see ``repro.sim.engine`` — origin threading bridges silent plumbing
events such as router forwarding and link wakes).  :class:`CausalIndex`
turns a flat record stream back into that DAG so questions like *"what
chain of events led to this SUSS accelerate decision?"* are answerable
from the trace alone, with no live simulator.

The index is pure data-plumbing over records — it lives in ``obs`` (a
leaf layer) and imports nothing above it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.records import TraceRecord

#: safety bound on chain walks; real chains are far shorter, a longer
#: one means a corrupted trace (the walk reports it as truncated).
MAX_CHAIN_HOPS = 1000


class CausalIndex:
    """Maps event ids to their records and causal parents.

    ``eid`` 0 is the root context (emitted outside any engine event) and
    is never indexed as an event: ``records_of(0)`` returns the root
    records but chains terminate there.
    """

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        self.records: List[TraceRecord] = list(records)
        self._by_eid: Dict[int, List[TraceRecord]] = {}
        for record in self.records:
            self._by_eid.setdefault(record.eid, []).append(record)
        self._children: Optional[Dict[int, List[int]]] = None

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, eid: int) -> bool:
        return eid in self._by_eid

    def eids(self) -> List[int]:
        """All event ids with records, ascending (0 excluded)."""
        return sorted(eid for eid in self._by_eid if eid > 0)

    def records_of(self, eid: int) -> List[TraceRecord]:
        """Records emitted during event ``eid`` (empty when unknown)."""
        return list(self._by_eid.get(eid, ()))

    def parent_of(self, eid: int) -> Optional[int]:
        """Causal parent eid of ``eid``, or None when ``eid`` is unknown.

        All records of one event agree on their parent (they share the
        execution context), so the first record is authoritative.
        """
        group = self._by_eid.get(eid)
        if not group:
            return None
        return group[0].parent_eid

    def children_of(self, eid: int) -> List[int]:
        """Eids whose records name ``eid`` as causal parent (ascending)."""
        if self._children is None:
            children: Dict[int, List[int]] = {}
            for child in sorted(e for e in self._by_eid if e > 0):
                parent = self._by_eid[child][0].parent_eid
                children.setdefault(parent, []).append(child)
            self._children = children
        return list(self._children.get(eid, ()))

    def chain(self, eid: int, max_hops: int = MAX_CHAIN_HOPS) -> List[int]:
        """The causal chain ``[eid, parent, grandparent, ...]``.

        Stops at the root context (parent 0), at an eid absent from this
        trace (filtered out or corrupt), on a cycle, or after
        ``max_hops`` entries.  The starting ``eid`` itself must exist.
        """
        if eid not in self._by_eid:
            return []
        out: List[int] = []
        seen = set()
        cur: Optional[int] = eid
        while (cur is not None and cur != 0 and cur not in seen
               and len(out) < max_hops):
            if cur not in self._by_eid:
                break  # parent known by id only; records were filtered
            seen.add(cur)
            out.append(cur)
            cur = self.parent_of(cur)
        return out


# ----------------------------------------------------------------------
# explanation rendering
# ----------------------------------------------------------------------
def record_summary(record: TraceRecord) -> str:
    """One-line human summary: kind plus compact sorted fields."""
    parts = "".join(f" {k}={_fmt(v)}"
                    for k, v in sorted(record.fields.items()))
    flow = f" flow={record.flow}" if record.flow >= 0 else ""
    return f"{record.kind}{flow}{parts}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def explain_event(index: CausalIndex, eid: int) -> Dict[str, Any]:
    """Structured causal explanation of event ``eid``.

    Returns ``{"target", "found", "chain", "complete"}`` where ``chain``
    lists hops from the event back toward the root, each hop carrying
    ``{"eid", "peid", "t", "records"}`` (records as flat dicts).
    ``complete`` is True when the walk ended at the root context rather
    than at a missing parent or the hop bound.
    """
    hops = index.chain(eid)
    chain = []
    for hop in hops:
        group = index.records_of(hop)
        chain.append({
            "eid": hop,
            "peid": group[0].parent_eid,
            "t": group[0].time,
            "records": [r.to_dict() for r in group],
        })
    complete = bool(hops) and index.parent_of(hops[-1]) == 0
    return {"target": eid, "found": eid in index, "chain": chain,
            "complete": complete}


def render_explanation(explanation: Dict[str, Any]) -> str:
    """Human-readable causal chain, newest event first."""
    target = explanation["target"]
    if not explanation["found"]:
        return f"event {target}: no records in this trace"
    lines = [f"causal chain for event {target} "
             f"({len(explanation['chain'])} hops, newest first):"]
    for depth, hop in enumerate(explanation["chain"]):
        arrow = "└─ caused by " if depth else ""
        indent = "  " * depth
        head = f"{indent}{arrow}event {hop['eid']} @ t={hop['t']:.6f}"
        lines.append(head)
        for rec in hop["records"]:
            fields = {k: v for k, v in rec.items()
                      if k not in ("t", "kind", "flow", "eid", "peid")}
            record = TraceRecord(rec["t"], rec["kind"], rec["flow"], fields)
            lines.append(f"{indent}     {record_summary(record)}")
    if not explanation["complete"]:
        lines.append("  (chain truncated: parent records not in trace)")
    return "\n".join(lines)


def find_record(records: Iterable[TraceRecord], *, at: Optional[float] = None,
                flow: Optional[int] = None,
                kinds: Optional[Iterable[str]] = None
                ) -> Optional[TraceRecord]:
    """Locate the most recent record at or before ``at`` (or the last
    overall), optionally restricted to a flow and/or kind set."""
    kindset = frozenset(kinds) if kinds is not None else None
    best: Optional[TraceRecord] = None
    for record in records:
        if flow is not None and record.flow != flow:
            continue
        if kindset is not None and record.kind not in kindset:
            continue
        if at is not None and record.time > at:
            continue
        if best is None or record.time >= best.time:
            best = record
    return best
