"""Run-level differential: the shipped sender (incremental scoreboard,
straight-line ACK path, deadline RTO timer) and reassembly buffer against
the oracle in ``reference_scoreboard`` (rebuild-per-ACK scoreboard, the
helper-by-helper ACK path, one engine record per timer arming).

Same inputs, two stacks; every observable must agree exactly -- not just
the completion time but the full trace, record by record.  Only event
numbering may differ (the two timers schedule different engine records),
so traces are compared with ``eid`` / ``peid`` dropped.
"""

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.goldens import reorder_deliveries
from repro.experiments.runner import run_topo_flow
from repro.net import CoDelQueue, LossModel, bdp_bytes, build_path
from repro.obs.golden import (eid_free, eid_free_digest, first_divergence,
                              record_lines)
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp import TcpSender, open_transfer
from repro.tcp.stream import open_stream

from tests.helpers import MSS, ack, bare_sender, make_transfer, rto_deadline
from tests.reference_scoreboard import ReferenceSender, reference_endpoints
from tests.test_integration_loss_patterns import IndexedLoss

CCS = ("reno", "cubic", "bbr", "cubic+suss")
SLOW = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
DROPS = st.sets(st.integers(min_value=0, max_value=220), max_size=40)


# ----------------------------------------------------------------------
# whole transfers
# ----------------------------------------------------------------------
def observe(sim, transfer):
    sim.run(until=400.0)
    sender = transfer.sender
    assert sender.completed
    return {"fct": sender.fct,
            "data_packets_sent": sender.data_packets_sent,
            "retransmissions": sender.retransmissions,
            "fast_retransmits": sender.fast_retransmits,
            "rto_count": sender.rto_count,
            "ecn_reductions": sender.ecn_reductions,
            "delivered": transfer.receiver.bytes_delivered}


def assert_same(once):
    """``once(obs)`` runs one simulation to its end and returns what to
    compare beside the trace; run it on both stacks."""
    def traced():
        sink = MemorySink()
        stats = once(Observability(tracer=Tracer(sink)))
        lines = record_lines(sink.records)
        return dict(stats, digest=eid_free_digest(lines)), lines

    shipped, shipped_lines = traced()
    with reference_endpoints():
        reference, reference_lines = traced()
    if shipped != reference:
        diff = first_divergence([eid_free(line) for line in reference_lines],
                                [eid_free(line) for line in shipped_lines])
        pytest.fail(f"shipped {shipped}\nreference {reference}\n"
                    f"{diff.describe() if diff else 'traces equal'}")


def assert_same_run(run):
    """``run(obs)`` builds one transfer; build it on both stacks."""
    assert_same(lambda obs: observe(*run(obs)))


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


# ----------------------------------------------------------------------
# the ACK path and the timer, scheme by situation
# ----------------------------------------------------------------------
SCHEMES = ("reno", "cubic", "bbr", "cubic+suss", "bbr+suss",
           "cubic-spread-iw32")
TAIL = 400  # segments in the tail-loss transfers


def _path(drops=(), **kwargs):
    """A dumbbell transfer that loses the packets numbered ``drops``: the
    forward bottleneck carries the SYN (index 0), then segment ``i`` as
    index ``i + 1`` until something is retransmitted."""
    def run(obs, cc):
        bench = make_transfer(cc=cc, obs=obs, **kwargs)
        bench.net.bottleneck_fwd.loss = IndexedLoss(drops)
        return bench.sim, bench.transfer
    return run


def _netem_loss(obs, cc):
    bench = make_transfer(cc=cc, size=600 * MSS, buffer_bdp=3.0, obs=obs)
    bench.net.bottleneck_fwd.loss = LossModel(0.02, random.Random(11))
    return bench.sim, bench.transfer


def _ecn_codel(obs, cc):
    sim = Simulator(obs=obs)
    rate, rtt = 2_500_000, 0.05
    buffer_bytes = 4 * bdp_bytes(rate, rtt)
    net = build_path(sim, rate, rtt, buffer_bytes,
                     queue=CoDelQueue(buffer_bytes, ecn=True))
    return sim, open_transfer(sim, net.servers[0], net.clients[0], flow_id=1,
                              size_bytes=1500 * MSS, cc=cc, ecn=True)


def _idle_stream(obs, cc):
    """Two bursts with more than an RTO of silence between them; the
    second loses its last segment, which only the RTO can recover."""
    sim = Simulator(obs=obs)
    net = build_path(sim, 12_500_000, 0.1, bdp_bytes(12_500_000, 0.1))
    source, transfer = open_stream(sim, net.servers[0], net.clients[0],
                                   flow_id=1, cc=cc)
    net.bottleneck_fwd.loss = IndexedLoss({160})
    sim.schedule_at(0.5, source.write, 80 * MSS)
    sim.schedule_at(4.0, source.write, 80 * MSS)
    sim.schedule_at(4.0, source.close)
    return sim, transfer


SITUATIONS = {
    "clean": _path(size=600 * MSS, buffer_bdp=3.0),
    "overshoot-1bdp": _path(size=1200 * MSS, rate=2_500_000, rtt=0.05,
                            buffer_bdp=1.0),
    "overshoot-0.2bdp": _path(size=1200 * MSS, rate=2_500_000, rtt=0.05,
                              buffer_bdp=0.2),
    "netem-2pct": _netem_loss,
    "tail-3": _path(range(TAIL - 2, TAIL + 1), size=TAIL * MSS,
                    buffer_bdp=3.0),
    "tail-10": _path(range(TAIL - 9, TAIL + 1), size=TAIL * MSS,
                     buffer_bdp=3.0),
    "syn-loss": _path({0}, size=200 * MSS, buffer_bdp=3.0),
    "ecn-codel": _ecn_codel,
    "idle-stream": _idle_stream,
}


@pytest.mark.parametrize("cc", SCHEMES)
@pytest.mark.parametrize("situation", sorted(SITUATIONS))
def test_scheme_by_situation(situation, cc):
    assert_same_run(lambda obs: SITUATIONS[situation](obs, cc))


@pytest.mark.parametrize("cc", SCHEMES)
def test_routed_topology_under_cross_traffic(cc):
    """A ``topo-cross`` cell: the cross-traffic senders are swapped too."""
    assert_same(lambda obs: run_topo_flow("parking-lot-3", cc, 600_000, 7,
                                          cross_load=1.0, obs=obs))


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
            "rto_count": sender.rto_count, "completed": sender.completed,
            "rto_fired_at": list(sender.cc.rto_times),
            "rto_deadline": rto_deadline(sender),
            "rto_backoff": sender._rto_backoff, "rto": sender.rtt.rto}


#: how long to let the clock run before the next ACK: a fixed wait (the
#: 2 s ones let RTOs fire), or up to an offset from the timer's deadline
#: -- just short of it, exactly on it, just past it
WAITS = st.one_of(
    st.sampled_from((0.001, 0.001, 0.001, 0.05, 2.0)),
    st.tuples(st.just("deadline"),
              st.sampled_from((-0.05, -1e-9, 0.0, 1e-9, 0.05))))

#: (ack point, [(block offset above it, block length)], wait, RTT sample
#: the ACK carries or None) -- fractions of the sent range, so any draw is
#: a plausible receiver report; a large sample followed by small ones
#: shrinks the RTO, which moves the deadline earlier than the record the
#: shipped timer has pending
ACKS = st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                       st.integers(min_value=1, max_value=5000)),
             max_size=3),
    WAITS,
    st.one_of(st.none(), st.floats(min_value=0.001, max_value=3.0))),
    max_size=40)


def run_up_to(sim, sender, wait):
    if isinstance(wait, tuple):
        deadline = rto_deadline(sender)
        until = sim.now if deadline is None else deadline + wait[1]
    else:
        until = sim.now + wait
    sim.run(until=max(until, sim.now))


def assert_same_steps(acks, mss, cwnd_segments, total):
    pair = [bare_sender(total, cwnd_segments * mss, mss, cls)
            for cls in (TcpSender, ReferenceSender)]
    for ack_at, blocks, wait, rtt_sample in acks:
        states = []
        for sim, sender, wire in pair:
            run_up_to(sim, sender, wait)
            span = sender.max_sent_seq - sender.snd_una
            ack_seq = sender.snd_una + int(ack_at * span * 0.5)
            sack = []
            for offset, length in blocks:
                start = ack_seq + 1 + int(offset * span)
                end = min(start + length, sender.max_sent_seq)
                if start < end:
                    sack.append((start, end))
            echo = None if rtt_sample is None else sim.now - rtt_sample
            sender.on_packet(ack(ack_seq, *sack, ts_echo=echo))
            states.append(dict(sender_state(sender, wire), now=sim.now))
        assert states[0] == states[1]
        shipped = pair[0][1]
        top = max([shipped.snd_una] + shipped.scoreboard.ends[-1:])
        assert shipped._retx_cursor <= top
    # let whatever timer is still running expire a few times
    states = []
    for sim, sender, wire in pair:
        sim.run(until=sim.now + 10.0)
        states.append(dict(sender_state(sender, wire), now=sim.now))
    assert states[0] == states[1]


@settings(max_examples=200, deadline=None)
@given(ACKS, st.sampled_from((997, 1000, 1448)),
       st.integers(min_value=2, max_value=40),
       st.integers(min_value=20_000, max_value=90_000))
def test_bare_sender_on_arbitrary_acks(acks, mss, cwnd_segments, total):
    """ACK points and SACK block edges land anywhere, on or off the MSS
    grid, RTT samples grow and shrink the RTO, and the gaps between ACKs
    stop short of the timer's deadline, land on it or run past it: after
    every ACK the two senders must have sent the same packets, fired
    their RTOs at the same instants and hold the same state and the same
    deadline."""
    assert_same_steps(acks, mss, cwnd_segments, total)


def test_a_shrinking_rto_replaces_the_pending_record():
    """One 2 s RTT sample puts the deadline ~2.3 s out; the 0.26 s samples
    that follow pull it earlier than the engine record the shipped timer
    holds, which must then be replaced, not slept on: both timers fire at
    the same instant."""
    acks = [(0.1, [], 0.001, 2.0), (0.1, [], 0.001, 0.26),
            (0.1, [], 0.001, 0.26), (0.0, [], ("deadline", 0.05), None)]
    assert_same_steps(acks, 1000, 10, 60_000)
    sim, sender, wire = bare_sender(60_000, 10_000)
    sender.on_packet(ack(1000, ts_echo=sim.now - 2.0))
    late = rto_deadline(sender)
    sim.run(until=sim.now + 0.001)
    sender.on_packet(ack(2000, ts_echo=sim.now - 0.26))
    early = rto_deadline(sender)
    assert early < late
    sim.run(until=late)
    assert sender.cc.rto_times == [early]


@pytest.mark.parametrize("cc", ("reno", "bbr"))
def test_the_send_loop_and_the_public_pipe_agree(cc):
    """The send loop keeps the pipe in a local; ``bytes_in_flight`` is the
    read side of the same quantity.  On a transfer that overshoots into
    recovery and an RTO (where the estimate is floored at zero), every
    segment the loop sends fits the window by the public pipe, and after
    every ACK the loop has stopped exactly where the public pipe says the
    window is full."""
    bench = make_transfer(cc=cc, size=1200 * MSS, rate=2_500_000, rtt=0.05)
    sim, sender = bench.sim, bench.sender
    send, on_packet = sender._send_segment, sender.on_packet
    checked = {"sends": 0, "stops": 0}

    def window():
        return min(sender.cc.cwnd, sender.rwnd)

    def checked_send(seq, size, retransmit):
        if seq not in sender._retx_marked:  # the loop's, not a hole fill
            assert sender.bytes_in_flight + size <= window()
            checked["sends"] += 1
        send(seq, size, retransmit)

    def checked_on_packet(packet):
        on_packet(packet)
        nxt = sender.snd_nxt
        if (sender.completed or nxt >= sender.total_bytes
                or sender.scoreboard.containing(nxt) is not None
                or not sender.pacer.can_send(sim.now)):
            return
        seg = min(sender.mss, sender.total_bytes - nxt)
        assert sender.bytes_in_flight + seg > window()
        checked["stops"] += 1

    sender._send_segment = checked_send
    sender.on_packet = checked_on_packet
    bench.run()
    assert sender.completed and sender.rto_count >= 1
    assert checked["sends"] >= 1200 and checked["stops"] >= 100


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
