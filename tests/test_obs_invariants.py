"""Property-style invariants checked across randomized seeds.

These tests run short transfers under a tracing sink and assert
*structural* properties that must hold for every parameterisation — the
kind of contract a single golden trace cannot pin.  Each seed drives a
``random.Random`` that picks the path parameters, so 20 seeds cover 20
distinct RTT/buffer combinations.
"""

import random

import pytest

from tests.helpers import MSS, make_transfer
from repro.obs import records as obsrec
from repro.obs.sinks import MemorySink, RingBufferSink, TraceSink
from repro.obs.tracer import Observability, Tracer, tracing

SEEDS = list(range(20))


def _random_path(seed, salt=0):
    rng = random.Random(seed ^ salt)
    return {"rtt": rng.uniform(0.02, 0.2),
            "buffer_bdp": rng.uniform(0.3, 2.0)}


def _run(cc, seed, sink=None, salt=0, **kwargs):
    sink = sink if sink is not None else MemorySink()
    params = {**_random_path(seed, salt), **kwargs}
    bench = make_transfer(cc, obs=tracing(sink), size=150 * MSS,
                          **params).run()
    assert bench.transfer.completed
    return bench, sink


@pytest.mark.parametrize("seed", SEEDS)
def test_pacing_gaps_never_negative(seed):
    """Pacer departures are serialized: inter-send gaps are >= 0."""
    bench, _ = _run("cubic+suss", seed)
    pacer = bench.sender.pacer
    if pacer.departures > 1:
        assert pacer.min_gap >= 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_delivered_bytes_registry_matches_receiver(seed):
    """What the probe last reported as delivered equals the receiver's
    own accounting.  (The id predates the single probe: a per-flow
    registry counter used to mirror ``bytes_delivered``; now a
    ``tcp.delivered`` emit is the only report of it.)"""
    sink = RingBufferSink(capacity=64)  # bounded memory across 20 runs
    obs = tracing(sink)
    last = {}
    obs.subscribe(obsrec.TCP_DELIVERED,
                  lambda time, flow, fields: last.update(fields))
    bench = make_transfer("cubic", obs=obs, size=150 * MSS,
                          **_random_path(seed, salt=0x1234)).run()
    assert bench.receiver.bytes_delivered == bench.sender.total_bytes
    assert last["delivered"] == bench.receiver.bytes_delivered
    # the ring buffer really bounded the cost
    assert len(sink) <= 64 and sink.emitted > 64


class _CwndCheckSink:
    """Validating sink: every cc.cwnd record must match live sender state.

    Trace records are emitted synchronously, so at emission time the
    record's cwnd field and the congestion controller's cwnd must agree.
    """

    def __init__(self):
        self.sender = None
        self.checked = 0

    def emit(self, record):
        if record.kind == obsrec.CC_CWND:
            assert record.fields["cwnd"] == self.sender.cc.cwnd
            self.checked += 1

    def close(self):
        pass


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_cwnd_trace_matches_sender_state(seed):
    sink = _CwndCheckSink()
    assert isinstance(sink, TraceSink)  # duck-typed sinks satisfy the protocol
    obs = Observability(tracer=Tracer(sink))
    bench = make_transfer("cubic", obs=obs, size=150 * MSS,
                          **_random_path(seed, salt=0x777))
    sink.sender = bench.sender  # attach before the simulation runs
    bench.run()
    assert bench.transfer.completed
    assert sink.checked > 0


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_send_recv_drop_conservation(seed):
    """Every data packet sent is either delivered to a host or dropped."""
    bench, sink = _run("cubic", seed, salt=0x5EED)
    sends = len(sink.by_kind(obsrec.PKT_SEND))
    recvs = sum(1 for r in sink.by_kind(obsrec.PKT_RECV)
                if r.fields["ptype"] == "DATA")
    drops = sum(r.fields.get("count", 1)
                for r in sink.by_kind(obsrec.PKT_DROP))
    assert sends == recvs + drops
