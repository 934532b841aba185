"""Differential: the shipped one-event-per-hop ``Link`` against the
two-events-per-packet oracle in ``reference_link``.

Same offers, two links; every observable must agree exactly — arrival
times with float ``==``, drops with their reasons and times, the queue's
own statistics, and the counters read mid-run.  Offers are scheduled up
front, so at an exact tie (an offer at the very instant a serialisation
ends) the offer precedes the oracle's finish event and the shipped
link's wake alike: the one order in which the two can be compared.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.experiments.goldens import RECOVERY_PATHS
from repro.experiments.runner import run_single_flow, run_topo_flow
from repro.net import (
    CoDelQueue,
    ConstantBandwidth,
    DropTailQueue,
    JitterModel,
    Link,
    LossModel,
    Packet,
    PacketKind,
    RandomWalkBandwidth,
    SteppedBandwidth,
)
from repro.obs import records as obsrec
from repro.obs.golden import eid_free, eid_free_digest, first_divergence
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer
from repro.sim import Simulator
from repro.workloads import INTERNET_SCENARIOS
from repro.workloads.scenarios import PathScenario

from tests.reference_link import (
    FinishLoggingReference,
    ReferenceLink,
    reference_links,
)

SLOW = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: payloads: a 52 B ACK, a 750 B short segment, a 1500 B full one
PAYLOADS = (0, 698, 1448)
HEADER = 52


# ----------------------------------------------------------------------
# one bare link, driven by a pre-computed offer schedule
# ----------------------------------------------------------------------
def make_bandwidth(spec):
    kind = spec[0]
    if kind == "const":
        return ConstantBandwidth(spec[1])
    if kind == "step":
        _, rate, factor, at = spec
        return SteppedBandwidth([(0.0, rate), (at, rate * factor)])
    _, rate, span, hold, seed = spec
    return RandomWalkBandwidth(rate, span=span, hold_time=hold,
                               rng=random.Random(seed))


def make_queue(spec):
    if spec[0] == "droptail":
        return DropTailQueue(spec[1])
    _, capacity, target, interval, ecn = spec
    return CoDelQueue(capacity, target=target, interval=interval, ecn=ecn)


def grid_rate(spec):
    """The rate the link will read at ``now``, as a pure function (a
    random walk is stateful: its base rate stands in, which yields
    near-misses rather than exact ties — also worth driving)."""
    if spec[0] == "step":
        profile = make_bandwidth(spec)
        return profile.rate_at
    rate = spec[1]
    return lambda now: rate


def offers_of(case):
    """``[(time, payload)]`` sorted by time: bursts at one instant, idle
    gaps, and hits *on the serialisation grid* — the float the link
    itself will compute as a finish time, when the burst finds it idle."""
    rate_at = grid_rate(case["bandwidth"])
    offers = []
    now = 0.0
    for gap, burst, hits in case["segments"]:
        now = now + gap
        grid = []
        edge = now
        for payload in burst + [burst[-1]] * 8:
            # the link's own two float operations
            edge = edge + (payload + HEADER) / rate_at(edge)
            grid.append(edge)
        offers.extend((now, payload) for payload in burst)
        offers.extend((grid[k], payload) for k, payload in hits)
        now = max([now] + [grid[k] for k, _ in hits])
    offers.sort(key=lambda offer: offer[0])
    return offers


def drive(link_cls, case):
    """Run ``case`` through one link of ``link_cls``; everything seen."""
    obs = Observability()
    drops = []
    obs.subscribe(obsrec.PKT_DROP, lambda time, flow, fields: drops.append(
        (time, fields["reason"], fields.get("seq", fields.get("count")))))
    sim = Simulator(sanitizer=None, obs=obs)
    arrivals = []

    class FarEnd:
        def receive(self, packet):
            arrivals.append((packet.seq, sim.now, packet.ce))

    jitter = case["jitter"]
    loss = case["loss"]
    link = link_cls(
        sim, FarEnd(), make_bandwidth(case["bandwidth"]), case["delay"],
        queue=make_queue(case["queue"]),
        jitter=(JitterModel(jitter[0], rng=random.Random(jitter[1]))
                if jitter else None),
        loss=(LossModel(loss[0], rng=random.Random(loss[1]))
              if loss else None),
        name="dut")
    accepted = []
    samples = []

    def offer(packet):
        queue = link.queue
        waiting = len(queue)
        ok = link.send(packet)
        # the queue's own books after *every* offer: a packet that starts
        # at once never sits in the shipped link's queue, and must count
        # exactly as the oracle's push-then-pop counts it
        accepted.append((packet.seq, sim.now, waiting, ok, queue.enqueued,
                         queue.bytes_peak, queue.drops,
                         dict(queue.flow_drops)))

    def sample():
        samples.append((sim.now, link.busy, link.packets_sent,
                        link.bytes_sent, link.utilization_rate(),
                        len(link.queue), link.queue.bytes_queued))

    offers = offers_of(case)
    for seq, (when, payload) in enumerate(offers):
        sim.schedule_at(when, offer, Packet(
            flow_id=1 + seq % 2, src="a", dst="b", kind=PacketKind.DATA,
            seq=seq, payload=payload, ect=True))
    for when in case["samples"]:
        sim.schedule_at(when, sample)
    sim.run()
    queue = link.queue
    return {
        "accepted": accepted,
        "arrivals": arrivals,
        "drops": drops,
        "queue": (queue.drops, dict(queue.flow_drops), queue.enqueued,
                  queue.bytes_peak, getattr(queue, "marks", 0),
                  len(queue), queue.bytes_queued),
        "link": (link.packets_lost, link.busy, link.packets_sent,
                 link.bytes_sent),
        "samples": samples,
    }, link


def burst_on_a_free_instant(reference, oracle):
    """True when several offers landed on the very instant a
    serialisation ended *with nothing waiting*.

    There the oracle's own answer is the eid order's: its finish event
    happens to come after these up-front offers, so it holds them all in
    the buffer for an instant; had the finish come first it would have
    served the first at once — which is what the shipped link's tie rule
    always does (``test_burst_on_a_free_instant`` pins both readings).
    """
    first_waiting = {}
    offers = {}
    for _, when, waiting, *_ in reference["accepted"]:
        first_waiting.setdefault(when, waiting)
        offers[when] = offers.get(when, 0) + 1
    return any(offers[when] > 1 and first_waiting[when] == 0
               for when in oracle.finishes if when in offers)


def assert_same_link(case, skip=lambda reference, oracle: False):
    shipped, _ = drive(Link, case)
    reference, oracle = drive(FinishLoggingReference, case)
    if skip(reference, oracle):
        return None, oracle
    for key in ("accepted", "arrivals", "drops", "queue", "link"):
        assert shipped[key] == reference[key], (
            f"{key} differ on {case}\n shipped   {shipped[key]}\n"
            f" reference {reference[key]}")
    assert len(shipped["samples"]) == len(reference["samples"])
    # offers per instant, and what the first of them found waiting
    # ("accepted" is equal on both sides by now)
    offered = {}
    for _, when, waiting, *_ in reference["accepted"]:
        offered.setdefault(when, [waiting, 0])[1] += 1
    for ours, theirs in zip(shipped["samples"], reference["samples"]):
        if ours[0] in oracle.finishes:
            # an exact tie with a finish: whether that packet counts yet
            # is the eid order's call in the oracle; the queue is not ...
            keep = 5
            first_waiting, count = offered.get(ours[0], (None, 0))
            if first_waiting == 0:
                # ... except for an offer on that very instant that found
                # nothing waiting: the oracle holds it until its finish
                # event comes round, the shipped link has started it.
                # (With packets waiting a wake is armed, both links
                # queue the offer, and the queue is compared as ever.)
                keep = 7
                if count == 1:
                    assert ours[5:] == (0, 0), (
                        f"shipped link held an idle offer on {case}: {ours}")
            ours, theirs = ours[:1] + ours[keep:], theirs[:1] + theirs[keep:]
        assert ours == theirs, (
            f"mid-run read differs on {case}\n shipped   {ours}\n"
            f" reference {theirs}")
    return shipped, oracle


RATES = st.sampled_from((1500.0, 12_500.0, 1_250_000.0, 3_333_333.0))
PAYLOAD = st.sampled_from(PAYLOADS)
GAPS = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 1e-6, 0.00012, 0.0012)),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
SEGMENTS = st.lists(
    st.tuples(GAPS,
              st.lists(PAYLOAD, min_size=1, max_size=6),
              st.lists(st.tuples(st.integers(0, 8), PAYLOAD), max_size=4)),
    min_size=1, max_size=5)
BANDWIDTHS = st.one_of(
    st.tuples(st.just("const"), RATES),
    st.tuples(st.just("step"), RATES, st.sampled_from((0.25, 0.5, 2.0, 3.0)),
              st.floats(min_value=1e-4, max_value=4.0, allow_nan=False)),
    st.tuples(st.just("walk"), RATES, st.sampled_from((0.25, 0.5)),
              st.sampled_from((0.2, 0.01)), st.integers(0, 50)))
QUEUES = st.one_of(
    st.tuples(st.just("droptail"),
              # unbounded, five / two packets, less than one packet
              st.sampled_from((10**9, 7500, 3000, 1499, 52))),
    st.tuples(st.just("codel"), st.sampled_from((10**9, 7500, 3000)),
              st.sampled_from((0.005, 0.5)), st.sampled_from((0.1, 1.0)),
              st.booleans()))
CASES = st.fixed_dictionaries({
    "bandwidth": BANDWIDTHS,
    "delay": st.sampled_from((0.0, 1e-6, 0.001, 0.05, 1.0)),
    "queue": QUEUES,
    "jitter": st.one_of(st.none(), st.tuples(
        st.sampled_from((0.0003, 0.005, 0.5)), st.integers(0, 50))),
    "loss": st.one_of(st.none(), st.tuples(
        st.sampled_from((0.02, 0.3)), st.integers(0, 50))),
    "segments": SEGMENTS,
    "samples": st.lists(st.floats(min_value=0.0, max_value=12.0,
                                  allow_nan=False), max_size=6),
})

#: 1500 B/s: an MSS packet serialises in exactly 1.0 s, so the grid is
#: the integers and every hit below is an exact tie.
ON_GRID = {
    "bandwidth": ("const", 1500.0), "delay": 0.0,
    "queue": ("droptail", 3000), "jitter": None, "loss": None,
    "segments": [(0.25, [1448, 1448, 1448],
                  [(0, 1448), (1, 1448), (2, 1448), (3, 1448), (5, 1448)])],
    "samples": [0.75, 1.25, 2.25, 3.25, 9.0],
}


def test_grid_hits_are_exact_ties_with_a_finish():
    """The schedule generator does produce what it is for: offers at the
    very float a serialisation ends on, with and without packets waiting."""
    shipped, oracle = assert_same_link(ON_GRID)
    offer_times = {when for when, _ in offers_of(ON_GRID)}
    assert len(offer_times & oracle.finishes) >= 4
    assert shipped["queue"][0] > 0          # the two-packet buffer overflowed
    assert len(shipped["arrivals"]) > 3


@settings(max_examples=500, **SLOW)
@given(CASES)
@example(ON_GRID)
@example({**ON_GRID, "queue": ("droptail", 1499)})      # sub-packet buffer
@example({**ON_GRID, "queue": ("codel", 7500, 0.005, 0.1, False)})
@example({**ON_GRID, "queue": ("codel", 7500, 0.005, 0.1, True)})
@example({**ON_GRID, "bandwidth": ("step", 1500.0, 2.0, 0.75),
          "loss": (0.3, 7), "jitter": (0.5, 3), "delay": 0.05})
# one offer and one mid-run read on the very instant the link frees up
@example({**ON_GRID, "bandwidth": ("const", 1_250_000.0),
          "queue": ("droptail", 10**9),
          "segments": [(0.0012, [698, 1448], [(1, 0)])], "samples": [0.003]})
def test_bare_link_matches_the_reference(case):
    shipped, _ = assert_same_link(case, skip=burst_on_a_free_instant)
    assume(shipped is not None)


def test_burst_on_a_free_instant():
    """Two offers on the very instant the serialiser frees up, nothing
    waiting: the shipped link serves the first at once, whatever the eid
    order; the oracle does so only when its finish event comes first."""
    case = {**ON_GRID, "queue": ("droptail", 1500),
            "segments": [(0.25, [1448], [(0, 1448), (0, 1448)])],
            "samples": []}

    def late(link_cls):
        # the same offers, scheduled *after* the first packet started —
        # so after the oracle scheduled its finish event
        sim = Simulator(sanitizer=None)
        arrivals = []

        class FarEnd:
            def receive(self, packet):
                arrivals.append((packet.seq, sim.now))

        queue = DropTailQueue(1500)
        link = link_cls(sim, FarEnd(), 1500.0, 0.0, queue=queue)
        packets = [Packet(flow_id=1, src="a", dst="b", kind=PacketKind.DATA,
                          seq=seq, payload=1448) for seq in range(3)]
        sim.schedule_at(0.25, link.send, packets[0])
        sim.schedule_at(0.5, lambda: [sim.schedule_at(1.25, link.send, p)
                                      for p in packets[1:]])
        sim.run()
        return arrivals, queue.drops, queue.bytes_peak

    # finish first: the oracle agrees with the shipped link — the first
    # is served at once, the second fits the one-packet buffer
    assert late(Link) == late(ReferenceLink) == (
        [(0, 1.25), (1, 2.25), (2, 3.25)], 0, 1500)
    # offers first: the shipped link answers the same ...
    shipped, _ = drive(Link, case)
    assert [a[:2] for a in shipped["arrivals"]] == \
        [(0, 1.25), (1, 2.25), (2, 3.25)]
    assert shipped["queue"][0] == 0
    # ... while the oracle holds both for an instant and overflows
    reference, oracle = drive(FinishLoggingReference, case)
    assert burst_on_a_free_instant(reference, oracle)
    assert reference["queue"][0] == 1


# ----------------------------------------------------------------------
# the idle path: packets the shipped link starts without queueing them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("link_cls", [Link, ReferenceLink],
                         ids=["shipped", "reference"])
def test_sub_packet_buffer_refuses_an_idle_offer(link_cls):
    """Nothing waits, nothing is in service — and the packet still does
    not fit: refused by the queue's own capacity check and counted once
    everywhere, with the caller (here a router) forwarding it once."""
    from repro.analysis.sanitize import SimSanitizer
    from repro.net import Router

    obs = Observability()
    drops = []
    obs.subscribe(obsrec.PKT_DROP,
                  lambda time, flow, fields: drops.append((time, flow, fields)))
    sanitizer = SimSanitizer()
    sim = Simulator(sanitizer=sanitizer, obs=obs)
    arrivals = []

    class FarEnd:
        def receive(self, packet):
            arrivals.append(packet.seq)

    queue = DropTailQueue(1499)
    router = Router("r")
    router.add_route("b", link_cls(sim, FarEnd(), 1500.0, 0.0, queue=queue,
                                   name="dut"))
    sanitizer.note_network_send()               # what Host.transmit does
    sim.schedule_at(0.5, router.receive, Packet(
        flow_id=7, src="a", dst="b", kind=PacketKind.DATA, seq=2896,
        payload=1448, sent_time=0.5))
    sim.run()
    assert arrivals == []
    assert (queue.drops, queue.flow_drops, queue.enqueued,
            queue.bytes_peak, len(queue)) == (1, {7: 1}, 0, 0, 0)
    assert drops == [(0.5, 7, {"link": "dut", "reason": "queue_full",
                               "seq": 2896, "size": 1500})]
    assert sanitizer.packets_dropped == 1
    sanitizer.verify_conservation(sim.pending_events)
    assert router.packets_forwarded == 1


def codel_state(queue):
    return (queue._count, queue._dropping, queue._first_above_time,
            queue._drop_next, queue.marks, queue.drops, queue.enqueued,
            queue.bytes_peak, len(queue), len(queue._enqueue_time))


def drive_codel_episode(link_cls, ecn):
    """Jumbo packets (4500 B at 4500 B/s: 1.0 s each; one alone is above
    CoDel's 2-MTU floor) so that the buffer can *empty* while the control
    law is still in its dropping state — and the next packet finds the
    link idle."""
    sim = Simulator(sanitizer=None, obs=None)
    arrivals = []

    class FarEnd:
        def receive(self, packet):
            arrivals.append((packet.seq, sim.now, packet.ce))

    queue = CoDelQueue(10**9, target=0.005, interval=0.1, ecn=ecn)
    link = link_cls(sim, FarEnd(), 4500.0, 0.0, queue=queue)
    states = []

    def offer(seq):
        before = (link.busy, codel_state(queue))
        ok = link.send(Packet(flow_id=1, src="a", dst="b",
                              kind=PacketKind.DATA, seq=seq, payload=4448,
                              ect=True))
        states.append((sim.now, seq, before, ok, codel_state(queue)))

    for seq in range(4):
        sim.schedule_at(0.0, offer, seq)
    sim.schedule_at(4.5, offer, 4)      # idle, inside the episode
    sim.schedule_at(4.75, offer, 5)     # waits behind it
    sim.schedule_at(9.0, offer, 6)      # idle again, episode over
    sim.run()
    return states, arrivals, codel_state(queue)


@pytest.mark.parametrize("ecn", [False, True], ids=["drop", "mark"])
def test_codel_law_cannot_tell_an_idle_start_from_push_then_pop(ecn):
    shipped = drive_codel_episode(Link, ecn)
    reference = drive_codel_episode(ReferenceLink, ecn)
    assert shipped == reference
    states, arrivals, _ = shipped
    when, seq, (busy, before), ok, after = states[4]
    # the offer at 4.5 found the link idle and the law mid-episode ...
    assert (when, seq, busy, ok) == (4.5, 4, False, True)
    count, dropping, first_above, drop_next = before[:4]
    assert dropping and count >= 1 and first_above > 0.0 and drop_next > 0.0
    assert before[8] == 0                       # nothing was waiting
    # ... which its zero-sojourn pass through the queue ended, as a real
    # push + pop would: the state moved, and moved the same way
    assert after[1] is False and after[2] == 0.0
    assert after[0] == count and after[3] == drop_next
    assert after[6] == before[6] + 1            # enqueued
    assert (4, 5.5, False) in arrivals
    if ecn:
        assert after[4] == before[4] >= 2       # marks, none added
        assert [a for a in arrivals if a[2]]    # CE was delivered
    else:
        assert after[5] == before[5] >= 1       # drops, none added


class CountingConstant(ConstantBandwidth):
    """A subclass may do anything in ``rate_at``: this one halves the
    rate from t = 2 on (and counts), so a link that read ``.rate`` once
    and stopped asking would serialise too fast."""

    def __init__(self, rate):
        super().__init__(rate)
        self.calls = []

    def rate_at(self, now):
        self.calls.append(now)
        return self.rate if now < 2.0 else self.rate / 2


class CountingStepped(SteppedBandwidth):
    def __init__(self, steps):
        super().__init__(steps)
        self.calls = []

    def rate_at(self, now):
        self.calls.append(now)
        return super().rate_at(now)


class CountingWalk(RandomWalkBandwidth):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def rate_at(self, now):
        self.calls.append(now)
        return super().rate_at(now)


PROFILES = {
    "constant-subclass": lambda: CountingConstant(1500.0),
    "stepped": lambda: CountingStepped([(0.0, 1500.0), (2.5, 3000.0)]),
    "walk": lambda: CountingWalk(1500.0, span=0.5, hold_time=0.2,
                                 rng=random.Random(11)),
}


def drive_profile(link_cls, make_profile):
    sim = Simulator(sanitizer=None, obs=None)
    arrivals = []

    class FarEnd:
        def receive(self, packet):
            arrivals.append((packet.seq, sim.now))

    profile = make_profile()
    link = link_cls(sim, FarEnd(), profile, 0.001)
    # idle starts (0.0, 6.0, 12.0) and starts from a wake (the bursts)
    offers = [0.0, 0.0, 0.0, 6.0, 6.0, 12.0]
    for seq, when in enumerate(offers):
        sim.schedule_at(when, link.send, Packet(
            flow_id=1, src="a", dst="b", kind=PacketKind.DATA, seq=seq,
            payload=1448))
    sim.run()
    return arrivals, profile.calls


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_a_varying_profile_is_asked_for_its_rate_at_every_start(profile):
    shipped, calls = drive_profile(Link, PROFILES[profile])
    reference, reference_calls = drive_profile(ReferenceLink,
                                               PROFILES[profile])
    assert shipped == reference                 # float ==
    assert calls == reference_calls             # same instants, same order
    assert len(calls) == 6                      # one per start, idle or not
    assert calls[0] == 0.0 and 6.0 in calls and calls[-1] == 12.0


def test_idle_start_keeps_the_packets_own_origin():
    """Traced: whether a packet starts in the frame that offered it or
    from a wake some other packet's send armed, and whatever it did at
    the hop before, its arrival cites the event that sent *it*."""
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    sim = Simulator(sanitizer=None, obs=obs)

    class FarEnd:
        def receive(self, packet):
            obs.emit(sim.now, obsrec.PKT_RECV, packet.flow_id,
                     seq=packet.seq)

    class Forward:
        def receive(self, packet):
            second.send(packet)

    # second is twice as fast: a burst waits at first, then finds
    # second idle every time
    second = Link(sim, FarEnd(), 3000.0, 0.001, name="second")
    first = Link(sim, Forward(), 1500.0, 0.001, name="first")

    def send(seq):
        obs.emit(sim.now, obsrec.PKT_SEND, 1, seq=seq)
        first.send(Packet(flow_id=1, src="a", dst="b", kind=PacketKind.DATA,
                          seq=seq, payload=1448))

    offers = [0.0, 0.1, 0.2, 7.0, 7.0, 20.0]
    for seq, when in enumerate(offers):
        sim.schedule_at(when, send, seq)
    sim.run()
    assert first._started == second._started == len(offers)
    sent_by = {r.fields["seq"]: r.eid for r in sink.records
               if r.kind == obsrec.PKT_SEND}
    arrivals = [r for r in sink.records if r.kind == obsrec.PKT_RECV]
    assert len(arrivals) == len(offers)
    assert [(r.fields["seq"], r.parent_eid) for r in arrivals] == \
        sorted(sent_by.items())


# ----------------------------------------------------------------------
# two links in series at equal rates: the late-scheduled-arrival tie
# ----------------------------------------------------------------------
def drive_series(link_cls, rate, first_delay, queue_spec, offers):
    """``first`` feeds ``second`` at the same rate, so a packet reaches
    ``second`` on (or within an ulp of) the instant the one before it
    finishes there — from an arrival event the shipped link scheduled a
    serialisation time earlier than the oracle did."""
    obs = Observability()
    drops = []
    obs.subscribe(obsrec.PKT_DROP, lambda time, flow, fields: drops.append(
        (time, fields["link"], fields["reason"], fields.get("seq"))))
    sim = Simulator(sanitizer=None, obs=obs)
    arrivals = []

    class FarEnd:
        def receive(self, packet):
            arrivals.append((packet.seq, sim.now))

    class Forward:
        def receive(self, packet):
            second.send(packet)

    second = link_cls(sim, FarEnd(), rate, 0.001,
                      queue=make_queue(queue_spec), name="second")
    first = link_cls(sim, Forward(), rate, first_delay, name="first")
    for seq, (when, payload) in enumerate(offers):
        sim.schedule_at(when, first.send, Packet(
            flow_id=1, src="a", dst="b", kind=PacketKind.DATA, seq=seq,
            payload=payload))
    sim.run()
    queue = second.queue
    return (arrivals, drops, queue.drops, queue.enqueued, queue.bytes_peak,
            first.packets_sent, second.packets_sent, second.bytes_sent)


@settings(max_examples=250, **SLOW)
@given(RATES,
       st.sampled_from((0.0, 1e-6, 0.5, 1.0, 0.00012, 0.0012, 0.05)),
       QUEUES,
       st.lists(st.tuples(GAPS, st.lists(PAYLOAD, min_size=1, max_size=8)),
                min_size=1, max_size=4))
@example(1500.0, 1.0, ("droptail", 3000), [(0.0, [1448] * 6)])
@example(1500.0, 0.5, ("droptail", 1500), [(0.0, [1448, 698, 698, 1448])])
def test_two_links_in_series_match_the_reference(rate, first_delay,
                                                 queue_spec, bursts):
    offers = []
    now = 0.0
    for gap, burst in bursts:
        now = now + gap
        offers.extend((now, payload) for payload in burst)
    shipped = drive_series(Link, rate, first_delay, queue_spec, offers)
    reference = drive_series(ReferenceLink, rate, first_delay, queue_spec,
                             offers)
    assert shipped == reference


# ----------------------------------------------------------------------
# whole transfers over reference links
# ----------------------------------------------------------------------
CCS = ("reno", "cubic", "bbr", "cubic+suss", "bbr+suss")


def lab_path(name, mbit, rtt, buffer_bdp):
    return PathScenario(name=f"lab/{name}", server="lab", link_type=name,
                        client_location="lab", rtt=rtt, btl_bw=mbit * 125_000,
                        bw_variation=0.0, jitter=0.0, loss_rate=0.0,
                        buffer_bdp=buffer_bdp)


#: name -> (scenario, size): a clean path, a slow-start overshoot into a
#: 1xBDP buffer, 2 % random loss, and a jittered random-walk WiFi path
PATHS = {
    "clean": (lab_path("clean", 20, 0.050, 4.0), 500_000),
    "overshoot": (RECOVERY_PATHS["droptail"], 600_000),
    "loss": (RECOVERY_PATHS["netem-loss"], 500_000),
    "wifi": (INTERNET_SCENARIOS["google-tokyo/wifi"], 400_000),
}
TOPO = ("parking-lot-3", 300_000)
STATS = ("fct", "completed", "data_packets_sent", "retransmissions",
         "rto_count", "drops")


def run_once(path, cc):
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    if path == "topo-cross":
        scenario, size = TOPO
        stats = run_topo_flow(scenario, cc, size, seed=1, obs=obs)
        stats = {key: stats[key] for key in STATS + ("cross_flows",)}
    else:
        scenario, size = PATHS[path]
        result = run_single_flow(scenario, cc, size, seed=1, obs=obs)
        stats = {key: getattr(result, key) for key in STATS}
    lines = [record.to_line() for record in sink.records]
    stats["eid_free_digest"] = eid_free_digest(lines)
    stats["records"] = len(lines)
    return stats, lines


@pytest.mark.parametrize("cc", CCS)
@pytest.mark.parametrize("path", sorted(PATHS) + ["topo-cross"])
def test_transfer_over_reference_links_is_the_same_run(path, cc):
    shipped, shipped_lines = run_once(path, cc)
    with reference_links():
        reference, reference_lines = run_once(path, cc)
    assert shipped["completed"]
    if shipped != reference:
        diff = first_divergence([eid_free(line) for line in reference_lines],
                                [eid_free(line) for line in shipped_lines])
        pytest.fail(f"shipped {shipped}\nreference {reference}\n"
                    f"(golden = reference links, eid / peid dropped)\n"
                    f"{diff.describe() if diff else 'same records'}")


def test_reference_links_are_really_swapped_in():
    """The matrix above compares two different links, not one twice."""
    from repro.net import build_path
    from repro.net.topogen import build_topology
    from repro.workloads.topo import resolve_topo

    with reference_links():
        net = build_path(Simulator(), 1_250_000, 0.05, 30_000)
        built = build_topology(Simulator(), resolve_topo(TOPO[0]))
    assert type(net.bottleneck_fwd) is ReferenceLink
    assert all(type(link) is ReferenceLink for link in net.access_links)
    assert all(type(link) is ReferenceLink for link in built.links.values())
    assert type(build_path(Simulator(), 1_250_000, 0.05,
                           30_000).bottleneck_fwd) is Link
