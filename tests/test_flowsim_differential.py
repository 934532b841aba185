"""Differential: the shipped column-pass fleet sweep against the per-flow
loops in ``reference_flowsim``.

The shipped code claims the *same arithmetic in the same order*, so every
comparison here is ``==`` — never ``approx``: whole ``FlowEstimate``s,
every ``FleetResult`` field, the ``flowsim.flow`` record stream line for
line, the integer sizes and the rng's position after a batch.  A size
column ships as an ``array('q')`` and the oracle's as a ``list``, which
never compare equal, so the column is compared as ``.tolist()`` and its
type is pinned on its own.
"""

import dataclasses
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flowsim.csa00 import Csa00Model
from repro.flowsim.driver import SweepConfig, estimate_fleet, run_sweep
from repro.flowsim.model import PathParams, available_models, create_model
from repro.flowsim.suss_term import SussCsa00Model
from repro.obs.records import FLOWSIM_FLOW
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer
from repro.workloads.distributions import (
    CAMPUS_FLOW_CDF,
    SAMPLE_CHUNK,
    EmpiricalCdf,
    sample_flow_sizes,
)

from tests.reference_flowsim import (
    reference_estimate_fleet,
    reference_model,
    reference_run_sweep,
    reference_sample_sizes,
)

SLOW = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

MSS = 1448


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
paths = st.builds(
    PathParams,
    rtt=st.floats(min_value=0.001, max_value=2.0),
    btl_bw=st.floats(min_value=1e3, max_value=1e9),
    loss_rate=st.one_of(st.just(0.0),
                        st.floats(min_value=1e-6, max_value=0.3)),
    delayed_ack=st.booleans(),
    rwnd=st.one_of(st.just(1 << 30),
                   st.integers(min_value=MSS, max_value=400 * MSS)),
    iw_segments=st.integers(min_value=1, max_value=64),
)

#: 1 B, exact MSS multiples and their neighbours, 10^8, anything between
sizes = st.one_of(
    st.just(1), st.just(10 ** 8),
    st.builds(lambda k, delta: max(k * MSS + delta, 1),
              st.integers(min_value=1, max_value=70_000),
              st.sampled_from((-1, 0, 1))),
    st.integers(min_value=1, max_value=10 ** 8))

k_maxes = st.integers(min_value=0, max_value=3)


def model_pairs(k_max):
    """(shipped, oracle) for the base model and for SUSS at ``k_max``."""
    return [model_pair("csa00", k_max), model_pair("csa00+suss", k_max)]


def model_pair(name, k_max):
    if name == "csa00":
        return Csa00Model(), reference_model("csa00")
    return SussCsa00Model(k_max=k_max), reference_model("csa00+suss", k_max)


def ladder_fields(ladder):
    """A shipped ``_Ladder`` (a tuple) or the oracle's dataclass, as a
    dict, so a mismatch names its field."""
    if dataclasses.is_dataclass(ladder):
        return dataclasses.asdict(ladder)
    return ladder._asdict()


# ----------------------------------------------------------------------
# the ladder: one walk per path + a bisect, against a walk per call
# ----------------------------------------------------------------------
class TestLadder:
    @settings(**SLOW)
    @given(paths, k_maxes,
           st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e8),
                              st.integers(min_value=0, max_value=10 ** 6)),
                    min_size=1, max_size=12))
    def test_rung_equals_a_fresh_walk(self, path, k_max, segment_counts):
        """Fractional and whole, in any order, through one instance."""
        for shipped, oracle in model_pairs(k_max):
            for segments in segment_counts:
                assert (ladder_fields(shipped._ladder(segments, path))
                        == ladder_fields(oracle._ladder(segments, path)))

    @pytest.mark.parametrize("path", [
        # BDP far below iw: 1.25 x 0.67 segments
        PathParams(rtt=0.001, btl_bw=1_000_000),
        # rwnd below iw
        PathParams(rtt=0.04, btl_bw=2_500_000, rwnd=5 * MSS),
        # cap == iw exactly (rwnd of ten segments)
        PathParams(rtt=0.04, btl_bw=2_500_000, rwnd=10 * MSS),
    ], ids=["sub-iw-bdp", "rwnd-below-iw", "rwnd-equals-iw"])
    def test_cap_at_or_below_iw_walks_no_round(self, path):
        for shipped, oracle in model_pairs(1):
            for segments in (0, 0.0, 0.5, 1, 10, 10_000):
                ladder = shipped._ladder(segments, path)
                assert ladder.rounds == 0
                assert ladder.saturated is (segments > 0)
                assert (ladder_fields(ladder)
                        == ladder_fields(oracle._ladder(segments, path)))

    def test_saturating_exit_leaves_data(self):
        """``cwnd >= cap`` with data left: the last rung, whatever the
        demand beyond it."""
        path = PathParams(rtt=0.04, btl_bw=2_500_000)
        for shipped, oracle in model_pairs(1):
            last = shipped._ladder(10 ** 9, path)
            assert last.saturated and last.sent < 10 ** 9
            assert last.cwnd >= path.bdp_segments * 1.25
            for segments in (last.sent, last.sent + 0.5, last.sent + 1,
                             10 ** 9):
                assert (ladder_fields(shipped._ladder(segments, path))
                        == ladder_fields(oracle._ladder(segments, path)))
            # exactly covered by the last round: data-limited, not saturated
            assert not shipped._ladder(last.sent, path).saturated

    def test_fractional_and_eq5_demands(self):
        """Eq. 5 hands the ladder an expectation below ``d`` on a lossy
        path (an ``int`` out of ``math.floor``, where the loss-free case
        passes ``float(d)``); rungs are also hit between whole segments."""
        path = PathParams(rtt=0.1, btl_bw=12_500_000, loss_rate=0.01)
        for shipped, oracle in model_pairs(2):
            e_ss = shipped.expected_ss_segments(5000, path.loss_rate)
            assert 0 < e_ss < 5000
            for segments in (e_ss, e_ss + 0.25, 9.999999, 10.000001, 29.5):
                assert (ladder_fields(shipped._ladder(segments, path))
                        == ladder_fields(oracle._ladder(segments, path)))
            assert (shipped.estimate(5000 * MSS, path)
                    == oracle.estimate(5000 * MSS, path))


# ----------------------------------------------------------------------
# whole estimates
# ----------------------------------------------------------------------
class TestEstimate:
    @settings(**SLOW)
    @given(paths, k_maxes, st.lists(sizes, min_size=1, max_size=10))
    def test_estimate_equals_reference(self, path, k_max, flow_sizes):
        for shipped, oracle in model_pairs(k_max):
            for size in flow_sizes:
                assert (shipped.estimate(size, path)
                        == oracle.estimate(size, path))

    @settings(**SLOW)
    @given(st.lists(paths, min_size=2, max_size=4), k_maxes,
           st.lists(st.tuples(st.integers(min_value=0, max_value=3), sizes),
                    min_size=2, max_size=16))
    def test_any_sequence_of_paths_through_one_instance(
            self, some_paths, k_max, calls):
        """The ladder table lives on the instance: alternating paths,
        returning to an earlier one and an equal-but-distinct
        ``PathParams`` object must all read the right rungs."""
        for shipped, oracle in model_pairs(k_max):
            for pick, size in calls:
                path = some_paths[pick % len(some_paths)]
                twin = dataclasses.replace(path)
                assert twin is not path and twin == path
                assert (shipped.estimate(size, path)
                        == oracle.estimate(size, path))
                assert (shipped.estimate(size, twin)
                        == oracle.estimate(size, path))

    def test_two_paths_then_the_first_again(self):
        fat = PathParams(rtt=0.2, btl_bw=125_000_000)
        thin = PathParams(rtt=0.02, btl_bw=250_000, delayed_ack=True)
        for shipped, oracle in model_pairs(1):
            for path in (fat, thin, fat, fat, thin):
                for size in (1, 14_480, 14_481, 3_000_000, 10 ** 8):
                    assert (shipped.estimate(size, path)
                            == oracle.estimate(size, path))


class TestSameSegmentCount:
    @settings(**SLOW)
    @given(paths, k_maxes, st.data())
    def test_estimate_depends_on_the_segment_count_only(self, path, k_max,
                                                        data):
        """The premise of memoising a fleet by segment count: for every
        registered model, two sizes that quantise to the same count give
        estimates equal in every field but ``size_bytes``."""
        d = data.draw(st.integers(min_value=1, max_value=70_000))
        low, high = (d - 1) * path.mss + 1, d * path.mss
        a = data.draw(st.integers(min_value=low, max_value=high))
        b = data.draw(st.sampled_from((low, high)))
        for name in available_models():
            model = (SussCsa00Model(k_max=k_max) if name == "csa00+suss"
                     else create_model(name))
            ea, eb = model.estimate(a, path), model.estimate(b, path)
            assert ea.segments == eb.segments == d
            assert (dataclasses.replace(ea, size_bytes=b) == eb), name


# ----------------------------------------------------------------------
# fleets: FleetResult field for field, and the record stream
# ----------------------------------------------------------------------
def fleet_pair(name, k_max, flow_sizes, path, *, arrivals=None,
               flow_base=1, traced=False):
    """(shipped fleet, oracle fleet, shipped lines, oracle lines)."""
    shipped_model, oracle_model = model_pair(name, k_max)
    results = []
    for fn, model in ((estimate_fleet, shipped_model),
                      (reference_estimate_fleet, oracle_model)):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink)) if traced else None
        fleet = fn(model, flow_sizes, path, arrivals=arrivals, obs=obs,
                   flow_base=flow_base)
        if obs is not None:
            obs.close()
        results.append((fleet, [r.to_line() for r in sink.records]))
    (shipped, shipped_lines), (oracle, oracle_lines) = results
    return shipped, oracle, shipped_lines, oracle_lines


def assert_same_fleet(shipped, oracle):
    assert type(shipped.fcts) is list
    assert type(shipped.sizes) is array and shipped.sizes.typecode == "q"
    for f in dataclasses.fields(oracle):
        value = getattr(shipped, f.name)
        if f.name == "sizes":
            value = value.tolist()
        assert value == getattr(oracle, f.name), f.name
    # the float total to the last bit, signed zero included
    assert (repr(shipped.expected_retransmits)
            == repr(oracle.expected_retransmits))


class TestFleet:
    @settings(**SLOW)
    @given(paths, k_maxes, st.sampled_from(("csa00", "csa00+suss")),
           st.lists(sizes, max_size=60), st.integers(0, 10 ** 6),
           st.booleans(), st.randoms(use_true_random=False))
    def test_fleet_and_records_equal_reference(
            self, path, k_max, name, flow_sizes, flow_base, with_arrivals,
            rng):
        # repeats, so that memoised counts see second and later sizes
        flow_sizes = flow_sizes + [rng.choice(flow_sizes) + rng.choice((0, 1))
                                   for _ in range(len(flow_sizes))]
        arrivals = ([rng.random() * i for i in range(len(flow_sizes))]
                    if with_arrivals else None)
        shipped, oracle, lines, oracle_lines = fleet_pair(
            name, k_max, flow_sizes, path, arrivals=arrivals,
            flow_base=flow_base, traced=True)
        assert_same_fleet(shipped, oracle)
        assert len(lines) == len(flow_sizes)
        assert lines == oracle_lines

    def test_sizes_may_be_any_sequence(self):
        path = PathParams(rtt=0.04, btl_bw=2_500_000)
        as_tuple = (1, 1448, 1449, 10 ** 6, 1448)
        shipped, oracle, _, _ = fleet_pair("csa00", 1, as_tuple, path)
        assert_same_fleet(shipped, oracle)
        assert shipped.sizes.tolist() == list(as_tuple)

    def test_first_size_seen_is_the_one_estimated(self):
        """``estimate`` is called once per distinct count, with the first
        size that quantised to it, in first-seen order — as the loop did."""
        class Recording(Csa00Model):
            def __init__(self):
                super().__init__()
                self.calls = []

            def estimate(self, size_bytes, path):
                self.calls.append(size_bytes)
                return super().estimate(size_bytes, path)

        path = PathParams(rtt=0.04, btl_bw=2_500_000)
        flow_sizes = [3000, 1000, 2000, 1448, 1, 5000, 2897, 2896, 4345]
        shipped, oracle = Recording(), Recording()
        estimate_fleet(shipped, flow_sizes, path)
        reference_estimate_fleet(oracle, flow_sizes, path)
        assert shipped.calls == oracle.calls == [3000, 1000, 2000, 5000]

    def test_lossy_total_keeps_the_left_to_right_order(self):
        """20 000 flows on a 1 % path: the expected-retransmit total is
        the running ``+=`` of the loop, last digit included (``sum()``
        is compensated from 3.12 on and ``fsum`` everywhere)."""
        path = PathParams(rtt=0.04, btl_bw=2_500_000, loss_rate=0.01)
        flow_sizes = CAMPUS_FLOW_CDF.sample_sizes(20_000, random.Random(3))
        for name in ("csa00", "csa00+suss"):
            shipped, oracle, _, _ = fleet_pair(name, 1, flow_sizes, path)
            assert_same_fleet(shipped, oracle)
            assert shipped.expected_retransmits > 0.0

    @pytest.mark.parametrize("dist", ["web", "heavy_tailed"])
    @pytest.mark.parametrize("path", [
        PathParams(rtt=0.04, btl_bw=2_500_000),
        PathParams(rtt=0.04, btl_bw=2_500_000, loss_rate=0.02),
    ], ids=["clean", "lossy"])
    def test_totals_on_the_other_shipped_mixes(self, dist, path):
        """The histogram totals and the flow-order float total on
        fleets drawn from the ``web`` and ``heavy_tailed`` samplers,
        whose count histograms differ from campus'."""
        flow_sizes = sample_flow_sizes(dist, 20_000, random.Random(5))
        for name in ("csa00", "csa00+suss"):
            shipped, oracle, _, _ = fleet_pair(name, 1, flow_sizes, path)
            assert_same_fleet(shipped, oracle)

    @pytest.mark.parametrize("path", [
        PathParams(rtt=0.04, btl_bw=2_500_000),
        PathParams(rtt=0.04, btl_bw=2_500_000, loss_rate=0.02),
        PathParams(rtt=0.3, btl_bw=50_000_000, delayed_ack=True),
        PathParams(rtt=0.05, btl_bw=12_500_000, rwnd=64 * MSS),
        PathParams(rtt=0.001, btl_bw=1_000_000),
    ], ids=["default", "lossy", "delayed-ack-lfn", "rwnd-limited",
            "sub-iw-bdp"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_sweep_equals_the_composed_reference(self, path, traced):
        """``run_sweep`` end to end: the sampler, the shared quantised
        columns and both models, against the three old bodies composed."""
        config = SweepConfig(path=path, flows=3000, seed=7)
        sinks = MemorySink(), MemorySink()
        obs = [Observability(tracer=Tracer(s)) if traced else None
               for s in sinks]
        shipped = run_sweep(config, obs[0]).fleets
        oracle = reference_run_sweep(config, obs[1])
        assert list(shipped) == list(oracle) == list(config.models)
        for name in config.models:
            assert_same_fleet(shipped[name], oracle[name])
        if traced:
            for o in obs:
                o.close()
            lines = [[r.to_line() for r in s.by_kind(FLOWSIM_FLOW)]
                     for s in sinks]
            assert len(lines[0]) == 2 * config.flows
            assert lines[0] == lines[1]


# ----------------------------------------------------------------------
# EmpiricalCdf.sample_sizes
# ----------------------------------------------------------------------
class ScriptedUniforms:
    """An rng whose ``random()`` plays back a script (so a draw can land
    exactly on a breakpoint, which ``random.Random`` does once in 2^53)."""

    def __init__(self, script):
        self._script = iter(script)

    def random(self):
        return next(self._script)


@st.composite
def cdfs_and_uniforms(draw):
    """A piecewise-linear CDF — flat brackets, repeated values and a
    support that starts below 1 included — and uniforms that land inside
    brackets, exactly on breakpoints, and on 0.0."""
    inner = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                          max_size=6))
    probs = [0.0] + sorted(inner) + [1.0]
    values = sorted(draw(st.lists(
        st.one_of(st.integers(min_value=0, max_value=10 ** 9),
                  st.floats(min_value=0.0, max_value=1e9)),
        min_size=len(probs), max_size=len(probs))))
    us = draw(st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                  st.sampled_from(probs)),
        max_size=40))
    return EmpiricalCdf(list(zip(values, probs))), us


class TestSampleSizes:
    @pytest.mark.parametrize("n", [0, 1, 2, SAMPLE_CHUNK - 1, SAMPLE_CHUNK,
                                   SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 3])
    def test_chunk_edges_and_stream_position(self, n):
        """Same sizes, and the rng left exactly where ``n`` single draws
        leave it, at every chunk boundary."""
        a, b = random.Random(n + 11), random.Random(n + 11)
        shipped = CAMPUS_FLOW_CDF.sample_sizes(n, a)
        assert type(shipped) is array and shipped.typecode == "q"
        assert (shipped.tolist()
                == reference_sample_sizes(CAMPUS_FLOW_CDF, n, b))
        assert len(shipped) == n and all(type(s) is int for s in shipped)
        assert a.random() == b.random()

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=300))
    def test_campus_sizes_equal_reference(self, seed, n):
        a, b = random.Random(seed), random.Random(seed)
        assert (CAMPUS_FLOW_CDF.sample_sizes(n, a).tolist()
                == reference_sample_sizes(CAMPUS_FLOW_CDF, n, b))
        assert a.random() == b.random()

    @given(cdfs_and_uniforms())
    def test_any_cdf_any_uniforms(self, cdf_and_us):
        cdf, us = cdf_and_us
        assert (cdf.sample_sizes(len(us), ScriptedUniforms(us)).tolist()
                == reference_sample_sizes(cdf, len(us), ScriptedUniforms(us)))

    def test_flat_bracket(self):
        """``p1 == p0``: ``sample`` returns ``v1``.  ``bisect_left`` can
        land there only through the clamp — ``u == 0.0`` under a flat
        first bracket, or a draw beyond 1 under a flat last one."""
        cdf = EmpiricalCdf([(10, 0.0), (20, 0.0), (30, 0.5), (40, 0.5),
                            (50, 1.0), (60, 1.0)])
        us = [0.0, 1e-300, 0.25, 0.5, 0.5000000001, 0.75, 1.0, 1.5]
        shipped = cdf.sample_sizes(len(us), ScriptedUniforms(us)).tolist()
        assert shipped == reference_sample_sizes(cdf, len(us),
                                                 ScriptedUniforms(us))
        assert shipped[0] == 20 and shipped[-1] == 60

    def test_support_below_one_is_clamped(self):
        cdf = EmpiricalCdf([(0.0, 0.0), (0.5, 0.3), (4.0, 1.0)])
        us = [0.0, 0.1, 0.3, 0.31, 0.5, 0.99]
        shipped = cdf.sample_sizes(len(us), ScriptedUniforms(us)).tolist()
        assert shipped == reference_sample_sizes(cdf, len(us),
                                                 ScriptedUniforms(us))
        assert shipped[:3] == [1, 1, 1] and min(shipped) == 1

    def test_uniform_exactly_on_every_breakpoint(self):
        us = list(CAMPUS_FLOW_CDF.probs)
        shipped = CAMPUS_FLOW_CDF.sample_sizes(
            len(us), ScriptedUniforms(us)).tolist()
        assert shipped == reference_sample_sizes(
            CAMPUS_FLOW_CDF, len(us), ScriptedUniforms(us))
        assert shipped == [int(v) for v in CAMPUS_FLOW_CDF.values]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            CAMPUS_FLOW_CDF.sample_sizes(-1, random.Random(0))
