"""Typed trace records — the unit of the observability subsystem.

Every instrumented component emits :class:`TraceRecord` objects: a
simulation timestamp, a *kind* from the closed vocabulary below, the
flow the record belongs to (``-1`` for flow-less records such as link
drops of unattributable packets or campaign job lifecycle events), and
a flat ``fields`` mapping of JSON-serialisable values.

The record's canonical line encoding (:meth:`TraceRecord.to_line`) is
the contract the golden-trace regression suite hashes: sorted keys, no
whitespace, ``repr``-exact floats — byte for byte :func:`json.dumps`
of ``to_dict()`` with ``sort_keys`` and no ``nan``, from a formatter
compiled once per record shape (DESIGN.md §7).  Two runs of
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
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

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


# ----------------------------------------------------------------------
# canonical encoding: one compiled formatter per record shape
# ----------------------------------------------------------------------
#: keys every line carries; a field may not take one of these names
_RESERVED = ("t", "kind", "flow", "eid", "peid")

#: ``line(record, *field_values)`` per ``(kind, *field names)``, built
#: when a shape is first encoded (a whole download has eight).  The cap
#: only stops a fuzzer's endless shapes growing the table; a full table
#: is emptied, not frozen, so the shapes in use recompile just once.
_SHAPES: Dict[Tuple[Any, ...], Callable[..., str]] = {}
_SHAPE_CAP = 256

_INF = float("inf")


def _check_names(names: Iterable[Any]) -> None:
    for name in names:
        if name in _RESERVED:
            raise ValueError(f"field name {name!r} is a reserved record key "
                             f"(one of {', '.join(_RESERVED)})")


def _encode(value: Any) -> str:
    """One JSON value: by *exact* type through the functions ``json``
    ends in (``repr`` is ``int.__repr__`` / ``float.__repr__`` there);
    anything else — containers, enum members, subclasses, a non-finite
    float and its ``ValueError`` — through ``json`` for that value."""
    tp = type(value)
    if tp is int:
        return repr(value)
    if tp is float:
        if -_INF < value < _INF:  # false for nan too
            return repr(value)
    elif tp is str:
        return _encode_str(value)
    elif tp is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _compile_shape(kind: Any, names: Tuple[Any, ...]) -> Callable[..., str]:
    """One shape's formatter: a ``%``-template of the sorted, escaped
    ``"key":`` literals and the encoded ``kind``, applied to the encoded
    values — fields positionally, in the insertion order the shape is
    keyed by, so no name appears in generated code."""
    _check_names(names)
    source = {"t": "r.time", "flow": "r.flow", "eid": "r.eid",
              "peid": "r.parent_eid"}
    source.update((name, f"v{i}") for i, name in enumerate(names))
    slots = dict.fromkeys(source, "%s")
    slots["kind"] = _encode(kind).replace("%", "%%")
    template = "{%s}" % ",".join(
        _encode_str(key).replace("%", "%%") + ":" + slots[key]
        for key in sorted(slots))
    params = "".join(f", v{i}" for i in range(len(names)))
    values = ", ".join(f"e({source[key]})" for key in sorted(source))
    return eval(f"lambda r{params}: {template!r} % ({values},)",
                {"e": _encode})


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
        _check_names(self.fields)
        out: Dict[str, Any] = {"t": self.time, "kind": self.kind,
                               "flow": self.flow, "eid": self.eid,
                               "peid": self.parent_eid}
        out.update(self.fields)
        return out

    def to_line(self) -> str:
        """Canonical single-line JSON encoding (the digest contract)."""
        shape = (self.kind, *self.fields)
        line = _SHAPES.get(shape)
        if line is None:
            line = _compile_shape(self.kind, shape[1:])
            # Only an exact ``str`` kind is keyed: 1, 1.0 and True are
            # one dict key and three different encodings.
            if type(self.kind) is str:
                if len(_SHAPES) >= _SHAPE_CAP:
                    _SHAPES.clear()
                _SHAPES[shape] = line
        return line(self, *self.fields.values())

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
