"""RFC 6298 ("Computing TCP's Retransmission Timer") as a table.

One row per rule, named by its section.  The estimator rows drive
:class:`RttEstimator`; the timer rows drive a bare sender -- the shipped
one and the reference one -- and read the timer only through
``tests.helpers.rto_deadline`` (the deadline, or None when the timer is
off), so they hold for any timer implementation.

Named deviations, each pinned by its row: the initial RTO is 1 s, not
3 s (2.1; RFC 8961 / Linux); the floor is 200 ms on the variance term,
``SRTT + max(K * RTTVAR, 200 ms)``, not 1 s on the whole RTO (2.4; the
kernel's ``tcp_rtt_estimator``); clock granularity G is zero.
"""

import pytest
from hypothesis import given, strategies as st

from repro.net import PacketKind
from repro.tcp import TcpSender
from repro.tcp.rtt import RTO_INITIAL, RTO_MAX, RTO_MIN, RttEstimator
from repro.tcp.sender import MAX_RTO_BACKOFF, MAX_RTO_TIMEOUT

from tests.helpers import (MSS, ack, bare_sender, make_transfer, rto_deadline,
                           synack)
from tests.reference_scoreboard import ReferenceSender
from tests.test_integration_loss_patterns import IndexedLoss

ESTIMATOR_RULES, TIMER_RULES = [], []


def rule(table, section):
    def register(check):
        name = check.__name__.replace("_", "-")
        table.append(pytest.param(check, id=f"{section}-{name}"))
        return check
    return register


# ----------------------------------------------------------------------
# section 2: the estimator
# ----------------------------------------------------------------------
@rule(ESTIMATOR_RULES, "2.1")
def initial_rto_1s():
    """Deviation: the RFC says 3 s; RFC 8961 and Linux moved to 1 s."""
    assert RttEstimator().rto == RTO_INITIAL == 1.0


@rule(ESTIMATOR_RULES, "2.2")
def first_sample():
    """SRTT = R, RTTVAR = R / 2."""
    est = RttEstimator()
    est.update(0.3)
    assert (est.srtt, est.rttvar) == (0.3, 0.15)
    assert est.rto == pytest.approx(0.3 + 4 * 0.15)


@rule(ESTIMATOR_RULES, "2.3")
def rttvar_then_srtt():
    """RTTVAR (beta = 1/4) is updated before SRTT (alpha = 1/8); K = 4."""
    assert (RttEstimator.ALPHA, RttEstimator.BETA, RttEstimator.K) == (
        1 / 8, 1 / 4, 4)
    est = RttEstimator()
    est.update(0.1)
    est.update(0.2)
    # RTTVAR first, against the *old* SRTT (0.1); SRTT-first reads 0.059375
    assert est.rttvar == pytest.approx(0.75 * 0.05 + 0.25 * abs(0.1 - 0.2))
    assert est.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)
    assert est.rto == pytest.approx(est.srtt + 4 * est.rttvar)


@rule(ESTIMATOR_RULES, "2.4")
def floor_200ms_on_variance():
    """Deviation: the RFC rounds the whole RTO up to 1 s.  Ours is the
    kernel's: stable samples must not pull the RTO to one RTT (it would
    fire in slow start's natural ACK silence), nor hold it at a second."""
    assert RTO_MIN == 0.2
    est = RttEstimator()
    for _ in range(100):
        est.update(0.1)
    assert est.rto == pytest.approx(0.1 + RTO_MIN)
    assert est.rto < 1.0


@rule(ESTIMATOR_RULES, "2.5")
def cap_60s():
    """The cap on the RTO, and the ceiling on the backed-off timeout, are >= 60 s."""
    assert RTO_MAX >= 60.0 and MAX_RTO_TIMEOUT >= 60.0
    est = RttEstimator()
    est.update(500.0)
    assert est.rto == RTO_MAX


@pytest.mark.parametrize("check", ESTIMATOR_RULES)
def test_estimator(check):
    check()


@given(st.lists(st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
                min_size=1, max_size=60))
def test_rto_stays_within_floor_and_cap(samples):
    """2.4 / 2.5 for any sample sequence."""
    est = RttEstimator()
    for s in samples:
        est.update(s)
    assert RTO_MIN <= est.rto <= RTO_MAX


# ----------------------------------------------------------------------
# sections 3 and 5: the timer
# ----------------------------------------------------------------------
# bare_sender(): SYN at t = 0, SYN-ACK handed over at t = 0.01, so
# SRTT = 10 ms, RTTVAR = 5 ms, RTO = 0.01 + max(0.02, 0.2) = 0.21 s, and
# the first window (cwnd 3000 = 3 segments of 1000) leaves at t = 0.01.
def connected(cls, total=10_000):
    sim, sender, wire = bare_sender(total, 3000, cls=cls)
    assert sender.rtt.rto == pytest.approx(0.21)
    return sim, sender, wire


@rule(TIMER_RULES, "2.1")
def syn_uses_initial_rto(cls):
    """The SYN is timed with the initial RTO."""
    sim, sender, wire = bare_sender(10_000, 3000, cls=cls, handshake=False)
    assert rto_deadline(sender) == RTO_INITIAL


@rule(TIMER_RULES, "3")
def karn_no_echo_no_sample(cls):
    """Karn: the receiver echoes no timestamp for a retransmitted segment
    (``test_tcp_receiver.py::test_retransmit_not_echoed``), and the sender
    takes no sample from such an ACK."""
    sim, sender, wire = connected(cls)
    before = (sender.rtt.samples, sender.rtt.srtt, sender.rtt.rto)
    sim.run(until=0.5)  # one RTO: the window is resent
    sender.on_packet(ack(1000))
    assert (sender.rtt.samples, sender.rtt.srtt, sender.rtt.rto) == before


@rule(TIMER_RULES, "5.1")
def send_starts_idle_timer(cls):
    """A send starts the timer when it is not running."""
    sim, sender, wire = connected(cls)
    assert len(wire.data) == 3
    assert rto_deadline(sender) == sim.now + sender.rtt.rto


@rule(TIMER_RULES, "5.1")
def send_keeps_running_timer(cls):
    """... and leaves a running timer alone."""
    sim, sender, wire = connected(cls)
    deadline = rto_deadline(sender)
    sim.run(until=0.05)
    sender.cc.cwnd = 6000
    sender.kick()
    assert len(wire.data) == 6
    assert rto_deadline(sender) == deadline


@rule(TIMER_RULES, "5.2")
def off_when_nothing_outstanding(cls):
    """All outstanding data acknowledged: the timer is off."""
    sim, sender, wire = connected(cls, total=3000)
    sender.finished_writing = False  # a stream the application holds open
    sim.run(until=0.02)
    sender.on_packet(ack(3000))
    assert rto_deadline(sender) is None
    sim.run(until=30.0)
    assert sender.rto_count == 0 and not sender.completed
    # ... and 5.1 again: the next write's first segment starts it
    sender.total_bytes += 1000
    sender.kick()
    assert rto_deadline(sender) == 30.0 + sender.rtt.rto


@rule(TIMER_RULES, "5.3")
def new_ack_restarts(cls):
    """An ACK of new data restarts the timer to now + RTO."""
    sim, sender, wire = connected(cls)
    sim.run(until=0.06)
    sender.on_packet(ack(1000))
    assert rto_deadline(sender) == 0.06 + sender.rtt.rto
    sim.run(until=0.07)
    sender.on_packet(ack(1000))  # a duplicate ACK does not
    assert rto_deadline(sender) == 0.06 + sender.rtt.rto


@rule(TIMER_RULES, "5.4-5.6")
def expiry_resends_doubles_restarts(cls):
    """Expiry resends the earliest segment, doubles the RTO, restarts."""
    sim, sender, wire = connected(cls)
    deadline, rto = rto_deadline(sender), sender.rtt.rto
    sim.run(until=deadline)
    assert sender.cc.rto_times == [deadline]
    assert wire.data[3] == (0, 1000, True)            # 5.4
    assert sender._rto_backoff == 2.0                 # 5.5
    assert rto_deadline(sender) == deadline + 2 * rto  # 5.6


@rule(TIMER_RULES, "5.5")
def backoff_cap(cls):
    """The back-off stops at MAX_RTO_BACKOFF."""
    sim, sender, wire = connected(cls)
    rto = sender.rtt.rto
    sim.run(until=200.0)
    fired = sender.cc.rto_times
    gaps = [b - a for a, b in zip(fired, fired[1:])]
    doubling = [rto * min(2.0 ** k, MAX_RTO_BACKOFF) for k in range(1, 9)]
    assert gaps[:8] == pytest.approx(doubling)
    assert sender._rto_backoff == MAX_RTO_BACKOFF


@rule(TIMER_RULES, "5.5")
def timeout_ceiling(cls):
    """The backed-off timeout stops at MAX_RTO_TIMEOUT."""
    sim, sender, wire = connected(cls)
    sim.run(until=0.02)
    sender.on_packet(ack(1000, ts_echo=sim.now - 50.0))
    rto = sender.rtt.rto
    assert 50.0 < rto <= RTO_MAX
    sim.run(until=600.0)
    fired = [0.02] + sender.cc.rto_times
    gaps = [b - a for a, b in zip(fired, fired[1:])]
    assert gaps[:4] == pytest.approx([rto, 2 * rto, MAX_RTO_TIMEOUT,
                                      MAX_RTO_TIMEOUT])


@rule(TIMER_RULES, "5.7")
def syn_loss(cls):
    """The resent SYN doubles the timer; the SYN-ACK clears the back-off,
    and the RTO data starts with is >= 3 s because the handshake sample
    spans the lost SYN (1 s + RTT, so SRTT + 4 * SRTT / 2 >= 3 s)."""
    sim, sender, wire = bare_sender(10_000, 3000, cls=cls, handshake=False)
    sim.run(until=RTO_INITIAL)
    assert [p.kind for p in wire.sent] == [PacketKind.SYN, PacketKind.SYN]
    assert sender.rto_count == 1
    assert rto_deadline(sender) == RTO_INITIAL + 2 * RTO_INITIAL
    sim.run(until=1.01)
    sender.on_packet(synack())
    assert sender._rto_backoff == 1.0
    assert sender.rtt.rto >= 3.0
    assert rto_deadline(sender) == 1.01 + sender.rtt.rto


@rule(TIMER_RULES, "5")
def new_ack_clears_backoff(cls):
    """The section's closing note: a new measurement collapses the
    back-off; as in the kernel, the next ACK of new data does."""
    sim, sender, wire = connected(cls)
    sim.run(until=rto_deadline(sender))
    assert sender._rto_backoff == 2.0
    sim.run(until=sim.now + 0.01)
    sender.on_packet(ack(1000))
    assert sender._rto_backoff == 1.0
    assert rto_deadline(sender) == sim.now + sender.rtt.rto


@pytest.mark.parametrize("cls", (pytest.param(TcpSender, id="shipped"),
                                 pytest.param(ReferenceSender, id="oracle")))
@pytest.mark.parametrize("check", TIMER_RULES)
def test_timer(check, cls):
    check(cls)


def test_karn_end_to_end():
    """3, over a real path: the only ACK a one-segment flow ever gets is
    for the retransmission of its lost segment, so the handshake's stays
    the only sample."""
    bench = make_transfer(size=MSS, rtt=0.1)
    bench.net.bottleneck_fwd.loss = IndexedLoss({1})  # 0 is the SYN
    bench.run()
    sender = bench.sender
    assert sender.completed and sender.retransmissions == 1
    assert sender.rtt.samples == 1
    assert sender.rtt.latest == pytest.approx(0.1, abs=0.005)
