"""``IntervalSet``: unit cases, the differential oracle, and a scaling guard."""

import time

from hypothesis import given, settings, strategies as st

from repro.analysis.sanitize import SimSanitizer
from repro.tcp.intervals import IntervalSet

from tests import reference_scoreboard as ref


def make(*intervals):
    held = IntervalSet()
    for start, end in intervals:
        held.add(start, end)
    return held


class TestAdd:
    def test_disjoint_inserts_stay_sorted(self):
        held = make((50, 60), (10, 20), (30, 40))
        assert list(held) == [(10, 20), (30, 40), (50, 60)]
        assert held.total == 30 and len(held) == 3

    def test_touching_neighbours_merge(self):
        held = make((10, 20), (30, 40))
        assert held.add(20, 30) == (10, 40)
        assert list(held) == [(10, 40)] and held.total == 30

    def test_nested_and_duplicate_blocks_change_nothing(self):
        held = make((10, 40))
        assert held.add(15, 25) == (10, 40)
        assert held.add(10, 40) == (10, 40)
        assert list(held) == [(10, 40)] and held.total == 30

    def test_block_spanning_several_members_swallows_them(self):
        held = make((10, 20), (30, 40), (50, 60), (80, 90))
        assert held.add(15, 55) == (10, 60)
        assert list(held) == [(10, 60), (80, 90)] and held.total == 60

    def test_returns_the_covering_member(self):
        held = make((100, 200))
        assert held.add(300, 400) == (300, 400)
        assert held.add(200, 250) == (100, 250)
        assert held.add(290, 300) == (290, 400)


class TestTrimAndLookup:
    def test_trim_drops_covered_and_clips_the_straddler(self):
        held = make((10, 20), (30, 40), (50, 60))
        held.trim_below(35)
        assert list(held) == [(35, 40), (50, 60)] and held.total == 15

    def test_trim_at_a_member_end_drops_it_whole(self):
        held = make((10, 20), (30, 40))
        held.trim_below(20)
        assert list(held) == [(30, 40)] and held.total == 10

    def test_trim_below_everything_is_a_no_op(self):
        held = make((10, 20))
        held.trim_below(10)
        assert list(held) == [(10, 20)] and held.total == 10

    def test_trim_past_everything_empties(self):
        held = make((10, 20), (30, 40))
        held.trim_below(99)
        assert list(held) == [] and held.total == 0 and not held

    def test_containing_is_half_open(self):
        held = make((10, 20), (30, 40))
        assert held.containing(10) == (10, 20)
        assert held.containing(19) == (10, 20)
        assert held.containing(20) is None
        assert held.containing(5) is None and held.containing(45) is None

    def test_membership_is_exact(self):
        held = make((10, 20), (30, 40))
        assert (10, 20) in held and (30, 40) in held
        assert (10, 15) not in held and (20, 30) not in held


# ----------------------------------------------------------------------
# structure-level differential: random op sequences vs the sorted lists
# ----------------------------------------------------------------------
SEQ = st.integers(min_value=0, max_value=400)
OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), SEQ, st.integers(min_value=1, max_value=60)),
    st.tuples(st.just("trim"), SEQ, st.just(0)),
    st.tuples(st.just("contains"), SEQ, st.just(0)),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_matches_reference_lists_on_any_op_sequence(ops):
    """The narrow key range makes touching, nested, duplicate and
    below-floor blocks the common case rather than the rare one."""
    held, expected, floor = IntervalSet(), [], 0
    sanitizer = SimSanitizer()
    for op, seq, length in ops:
        if op == "add":
            # the sender's clip: blocks wholly below the floor are dropped,
            # straddling ones cut to it
            start, end = max(seq, floor), seq + length
            if end <= floor:
                continue
            covering = held.add(start, end)
            expected = ref.merge_intervals(expected + [(start, end)])
            assert covering == ref.containing(expected, start)
        elif op == "trim":
            floor = max(floor, seq)
            held.trim_below(floor)
            expected = ref.trim_below(expected, floor)
        else:
            assert held.containing(seq) == ref.containing(expected, seq)
        assert list(held) == expected
        assert held.total == ref.total_bytes(expected)
        assert all(member in held for member in expected)
        sanitizer.check_intervals(1, "test", held.starts, held.ends,
                                  held.total, floor - 1)


# ----------------------------------------------------------------------
# scaling guard
# ----------------------------------------------------------------------
def _per_op_seconds(holes: int) -> float:
    """CPU seconds per operation of a recovery-shaped mix at ``holes``
    live members: every other segment arrives out of order, then the
    holes fill front to back while each step is looked up and summed."""
    mss, best = 1000, float("inf")
    for _ in range(5):
        held, seen = IntervalSet(), 0
        started = time.process_time()
        for i in range(holes):
            held.add((2 * i + 1) * mss, (2 * i + 2) * mss)
            seen += held.containing(i * mss) is not None
            seen += held.total
        for i in range(holes):
            held.add(2 * i * mss, (2 * i + 1) * mss)
            held.trim_below((2 * i + 2) * mss)
            seen += held.containing((i + holes) * mss) is not None
            seen += held.total
        best = min(best, time.process_time() - started)
        assert not held and seen > 0
    return best / (7 * holes)


def test_per_operation_cost_does_not_grow_with_holes():
    """A rebuild per operation costs ~8x more per op at 8x the holes; the
    incremental structure must stay under 3x (memmove in the splices is
    the only linear term left)."""
    small = _per_op_seconds(1_000)
    large = _per_op_seconds(8_000)
    assert large / small < 3, (small, large)
