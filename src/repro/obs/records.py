"""Typed trace records — the unit of the observability subsystem.

Every instrumented component emits :class:`TraceRecord` objects: a
simulation timestamp, a *kind* from the closed vocabulary below, the
flow the record belongs to (``-1`` for flow-less records such as link
drops of unattributable packets or campaign job lifecycle events), and
a flat ``fields`` mapping of JSON-serialisable values.

The record's canonical line encoding (:meth:`TraceRecord.to_line`) is
the contract the golden-trace regression suite hashes: sorted keys, no
whitespace, ``repr``-exact floats via :func:`json.dumps`.  Two runs of
the same seeded simulation must produce byte-identical line streams —
anything wall-clock, platform, or ordering dependent is banned from
``fields``.

Since schema version 2 every record also carries causal provenance: the
engine event id in whose execution context it was emitted (``eid``) and
that event's parent event id (``peid`` on the wire).  Records emitted
outside any engine event — setup code, campaign job lifecycle — carry
``eid=0, peid=0`` (the root context).  Eids are assigned in scheduling
order, so they are exactly as deterministic as the event stream itself
and safe to include in golden digests.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

#: version of the canonical record encoding.  Bump whenever the reserved
#: key set or their semantics change; the golden store records the
#: version it was captured under so a stale store fails loudly instead
#: of producing unexplainable digest mismatches.
#:
#: * v1 — ``t``/``kind``/``flow`` + flat fields (PR 3).
#: * v2 — adds causal provenance ``eid``/``peid`` (this PR).
SCHEMA_VERSION = 2

# ----------------------------------------------------------------------
# record kinds (the closed vocabulary)
# ----------------------------------------------------------------------
#: data segment left the sender (seq, size, retx)
PKT_SEND = "pkt.send"
#: a packet reached a host's endpoint dispatch (pkind, size)
PKT_RECV = "pkt.recv"
#: a packet was dropped (site, reason; flow when attributable)
PKT_DROP = "pkt.drop"
#: cwnd/ssthresh after a congestion-control event (cwnd, ssthresh, flight)
CC_CWND = "cc.cwnd"
#: slow-start exit (cwnd, reason)
CC_SS_EXIT = "cc.ss_exit"
#: an RTT sample reached the estimator (rtt)
TCP_RTT = "tcp.rtt"
#: retransmission timeout fired (backoff)
TCP_RTO = "tcp.rto"
#: fast-recovery transition (enter, point)
TCP_RECOVERY = "tcp.recovery"
#: the sender's pacing rate changed (rate; None encoded as 0.0)
TCP_PACING = "tcp.pacing"
#: receiver-side in-order delivery progressed (delivered)
TCP_DELIVERED = "tcp.delivered"
#: SUSS Algorithm-1 decision at blue-train completion
#: (round, growth, accepted, reason)
SUSS_DECISION = "suss.decision"
#: SUSS pacing-plan install (rate, target, guard)
SUSS_PLAN = "suss.plan"
#: SUSS pacing aborted before reaching its target (cwnd)
SUSS_ABORT = "suss.abort"
#: one scheduler-level execution span (span, hash, job_kind, label,
#: status, cached, attempt, worker, queue_wait, exec, retry_of) — one
#: attempt of a campaign job, causally linked to the attempt it retried;
#: ``status != "retry"`` marks the job's final outcome.  Wall-clock
#: fields are allowed here: campaign records are never part of golden
#: digests, which hash simulation streams only.
CAMPAIGN_SPAN = "campaign.span"
#: one analytically modelled flow from the flowsim fidelity tier
#: (model, size, fct, rounds, retx).  ``t`` is the flow's arrival time
#: on the modelled timeline, not an engine timestamp — flowsim runs no
#: engine events, so these records always carry the root causal context.
FLOWSIM_FLOW = "flowsim.flow"

#: every kind the stack can emit, for filter validation
ALL_KINDS = frozenset({
    PKT_SEND, PKT_RECV, PKT_DROP,
    CC_CWND, CC_SS_EXIT,
    TCP_RTT, TCP_RTO, TCP_RECOVERY, TCP_PACING, TCP_DELIVERED,
    SUSS_DECISION, SUSS_PLAN, SUSS_ABORT,
    CAMPAIGN_SPAN, FLOWSIM_FLOW,
})


class TraceRecord:
    """One structured trace event."""

    __slots__ = ("time", "kind", "flow", "fields", "eid", "parent_eid")

    def __init__(self, time: float, kind: str, flow: int = -1,
                 fields: Optional[Mapping[str, Any]] = None,
                 eid: int = 0, parent_eid: int = 0) -> None:
        self.time = time
        self.kind = kind
        self.flow = flow
        self.fields: Dict[str, Any] = dict(fields) if fields else {}
        self.eid = eid
        self.parent_eid = parent_eid

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form (reserved keys first; fields merged in)."""
        out: Dict[str, Any] = {"t": self.time, "kind": self.kind,
                               "flow": self.flow, "eid": self.eid,
                               "peid": self.parent_eid}
        out.update(self.fields)
        return out

    def to_line(self) -> str:
        """Canonical single-line JSON encoding (the digest contract)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        data = json.loads(line)
        time = data.pop("t")
        kind = data.pop("kind")
        flow = data.pop("flow", -1)
        eid = data.pop("eid", 0)
        parent_eid = data.pop("peid", 0)
        return cls(time, kind, flow, data, eid, parent_eid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time and self.kind == other.kind
                and self.flow == other.flow and self.fields == other.fields
                and self.eid == other.eid
                and self.parent_eid == other.parent_eid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = "".join(f" {k}={v!r}" for k, v in sorted(self.fields.items()))
        return (f"<TraceRecord t={self.time:.6f} {self.kind} "
                f"flow={self.flow} eid={self.eid}<-{self.parent_eid}{extra}>")


def parse_kinds(spec: str) -> frozenset:
    """Parse a comma-separated kind filter, validating each name."""
    kinds = {part.strip() for part in spec.split(",") if part.strip()}
    unknown = kinds - ALL_KINDS
    if unknown:
        raise ValueError(
            f"unknown trace kind(s) {sorted(unknown)}; "
            f"known: {sorted(ALL_KINDS)}")
    return frozenset(kinds)
