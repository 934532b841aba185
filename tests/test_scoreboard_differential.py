"""Run-level differential: the shipped incremental scoreboard / reassembly
buffer against the rebuild-per-ACK oracle in ``reference_scoreboard``.

Same inputs, two stacks; every observable must agree exactly -- not just
the completion time but the full event trace, packet by packet.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.goldens import reorder_deliveries
from repro.net import bdp_bytes, build_path
from repro.obs.golden import first_divergence, record_lines, trace_digest
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp import TcpSender
from repro.tcp.stream import open_stream

from tests.helpers import MSS, ack, bare_sender, make_transfer
from tests.reference_scoreboard import ReferenceSender, reference_endpoints
from tests.test_integration_loss_patterns import IndexedLoss

CCS = ("reno", "cubic", "bbr", "cubic+suss")
SLOW = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
DROPS = st.sets(st.integers(min_value=0, max_value=220), max_size=40)


# ----------------------------------------------------------------------
# whole transfers
# ----------------------------------------------------------------------
def observe(sim, transfer, sink):
    sim.run(until=400.0)
    sender = transfer.sender
    assert sender.completed
    return {"fct": sender.fct,
            "data_packets_sent": sender.data_packets_sent,
            "retransmissions": sender.retransmissions,
            "fast_retransmits": sender.fast_retransmits,
            "rto_count": sender.rto_count,
            "delivered": transfer.receiver.bytes_delivered,
            "digest": trace_digest(sink.records)}, record_lines(sink.records)


def assert_same_run(run):
    """``run(obs)`` builds one transfer; build it on both stacks."""
    def once():
        sink = MemorySink()
        sim, transfer = run(Observability(tracer=Tracer(sink)))
        return observe(sim, transfer, sink)

    shipped, shipped_lines = once()
    with reference_endpoints():
        reference, reference_lines = once()
    if shipped != reference:
        diff = first_divergence(reference_lines, shipped_lines)
        pytest.fail(f"shipped {shipped}\nreference {reference}\n"
                    f"{diff.describe() if diff else 'traces equal'}")


def lossy_transfer(cc, drops, ack_drops=(), reorder_seed=None,
                   size=150 * MSS):
    def run(obs):
        bench = make_transfer(cc=cc, size=size, obs=obs)
        bench.net.bottleneck_fwd.loss = IndexedLoss(drops)
        bench.net.bottleneck_rev.loss = IndexedLoss(ack_drops)
        if reorder_seed is not None:
            reorder_deliveries(bench.sim, bench.net.clients[0],
                               RngRegistry(reorder_seed))
        return bench.sim, bench.transfer
    return run


@pytest.mark.parametrize("cc", CCS)
@settings(max_examples=12, **SLOW)
@given(DROPS)
def test_any_loss_pattern(cc, drops):
    assert_same_run(lossy_transfer(cc, drops))


@pytest.mark.parametrize("cc", CCS)
@settings(max_examples=8, **SLOW)
@given(DROPS, st.sets(st.integers(min_value=0, max_value=150), max_size=30),
       st.integers(min_value=0, max_value=1000))
def test_loss_ack_loss_and_reordering_together(cc, drops, ack_drops, seed):
    assert_same_run(lossy_transfer(cc, drops, ack_drops, reorder_seed=seed))


@pytest.mark.parametrize("cc", ("reno", "bbr"))
def test_slow_start_overshoot_burst(cc):
    """The case the rewrite is for: hundreds of holes from one burst."""
    def run(obs):
        bench = make_transfer(cc=cc, size=1500 * MSS, rate=2_500_000,
                              rtt=0.05, obs=obs)
        return bench.sim, bench.transfer
    assert_same_run(run)


WRITES = st.lists(st.tuples(st.integers(min_value=1, max_value=6 * MSS),
                            st.integers(min_value=0, max_value=40)),
                  min_size=1, max_size=25)


@pytest.mark.parametrize("cc", ("cubic", "bbr"))
@settings(max_examples=15, **SLOW)
@given(WRITES, st.sets(st.integers(min_value=0, max_value=120), max_size=30),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1000)))
def test_stream_with_short_segments(cc, writes, drops, reorder_seed):
    """Application writes that are not MSS multiples leave short segments
    mid-stream, so SACK blocks and partial ACKs fall off the MSS grid the
    retransmit cursor steps on."""
    def run(obs):
        sim = Simulator(obs=obs)
        net = build_path(sim, 12_500_000, 0.1, bdp_bytes(12_500_000, 0.1))
        source, transfer = open_stream(sim, net.servers[0], net.clients[0],
                                       flow_id=1, cc=cc)
        net.bottleneck_fwd.loss = IndexedLoss(drops)
        if reorder_seed is not None:
            reorder_deliveries(sim, net.clients[0], RngRegistry(reorder_seed))
        when = 0.0
        for nbytes, gap_ms in writes:
            when += gap_ms / 1000.0
            sim.schedule(when, source.write, nbytes)
        sim.schedule(when + 0.001, source.close)
        return sim, transfer
    assert_same_run(run)


# ----------------------------------------------------------------------
# a bare sender fed arbitrary ACKs
# ----------------------------------------------------------------------
def sender_state(sender, wire):
    return {"sent": wire.data, "sacked": sender.sacked,
            "snd_una": sender.snd_una, "snd_nxt": sender.snd_nxt,
            "flight": sender.bytes_in_flight,
            "in_recovery": sender.in_recovery,
            "marked": sorted(sender._retx_marked),
            "rto_count": sender.rto_count, "completed": sender.completed}


#: (ack point, [(block offset above it, block length)], seconds to wait) --
#: fractions of the sent range, so any draw is a plausible receiver report
ACKS = st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                       st.integers(min_value=1, max_value=5000)),
             max_size=3),
    st.sampled_from((0.001, 0.001, 0.001, 0.05, 2.0))), max_size=40)


@settings(max_examples=200, deadline=None)
@given(ACKS, st.sampled_from((997, 1000, 1448)),
       st.integers(min_value=2, max_value=40),
       st.integers(min_value=20_000, max_value=90_000))
def test_bare_sender_on_arbitrary_acks(acks, mss, cwnd_segments, total):
    """ACK points and SACK block edges land anywhere, on or off the MSS
    grid, with RTOs interleaved (the 2 s waits): after every ACK the two
    senders must have sent the same packets and hold the same state."""
    pair = [bare_sender(total, cwnd_segments * mss, mss, cls)
            for cls in (TcpSender, ReferenceSender)]
    for ack_at, blocks, wait in acks:
        states = []
        for sim, sender, wire in pair:
            sim.run(until=sim.now + wait)
            span = sender.max_sent_seq - sender.snd_una
            ack_seq = sender.snd_una + int(ack_at * span * 0.5)
            sack = []
            for offset, length in blocks:
                start = ack_seq + 1 + int(offset * span)
                end = min(start + length, sender.max_sent_seq)
                if start < end:
                    sack.append((start, end))
            sender.on_packet(ack(ack_seq, *sack))
            states.append(sender_state(sender, wire))
        assert states[0] == states[1]
        shipped = pair[0][1]
        top = max([shipped.snd_una] + shipped.scoreboard.ends[-1:])
        assert shipped._retx_cursor <= top


def test_retransmit_marks_outlive_the_cursor():
    """Why ``_retx_marked`` is kept and the cursor only says where to
    start looking: a late, short original segment splits a hole whose
    retransmissions were stepped from its old start, so the steps from
    the new start (1300, 2300) were never taken.  A cursor alone would
    sit at 10000 and leave them to the RTO."""
    results = []
    for cls in (TcpSender, ReferenceSender):
        sim, sender, wire = bare_sender(10_000, 100_000, 1000, cls)
        sender.on_packet(ack(0, (3000, 10_000)))
        assert wire.data[10:] == [(0, 1000, True), (1000, 1000, True),
                                  (2000, 1000, True)]
        sender.on_packet(ack(0, (1000, 1300)))
        results.append(wire.data[13:])
    assert results[0] == results[1] == [(1300, 1000, True), (2300, 700, True)]


def test_on_grid_sack_below_the_cursor_resends_nothing():
    sim, sender, wire = bare_sender(10_000, 100_000, 1000)
    sender.on_packet(ack(0, (3000, 10_000)))
    sent = len(wire.data)
    sender.on_packet(ack(0, (1000, 2000)))   # a retransmission arrives
    assert len(wire.data) == sent and sender._retx_cursor == 10_000


# ----------------------------------------------------------------------
# scaling guard
# ----------------------------------------------------------------------
def _per_ack_seconds(holes: int, cls=TcpSender) -> float:
    """CPU seconds per ACK over one recovery episode with ``holes`` holes:
    every other segment is lost, the rest are SACKed one duplicate ACK at
    a time (each frees room for one retransmission), then partial ACKs
    fill the holes front to back."""
    mss = 1000
    total = 2 * holes * mss
    sim, sender, wire = bare_sender(total, total, mss, cls)
    assert len(wire.data) == 2 * holes
    started = time.process_time()
    for i in range(holes):
        sender.on_packet(ack(0, ((2 * i + 1) * mss, (2 * i + 2) * mss)))
    for i in range(holes):
        sender.on_packet(ack((2 * i + 2) * mss))
    elapsed = time.process_time() - started
    assert sender.completed and sender.retransmissions == holes
    return elapsed / (2 * holes)


def test_per_ack_cost_does_not_grow_with_holes():
    """CPU-time ratio, not a wall-clock budget: a per-ACK rebuild of the
    scoreboard reads ~8 here (8x the holes, 8x the work per ACK)."""
    small = min(_per_ack_seconds(1_000) for _ in range(5))
    large = min(_per_ack_seconds(8_000) for _ in range(5))
    assert large / small < 3, (small, large)
