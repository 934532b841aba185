"""Differential: the shipped ``TraceRecord.to_line`` against the
whole-record ``json.dumps`` oracle in ``reference_records``.

Same record, two encoders; the lines must be equal as ``str`` — not as
parsed JSON — because the golden digests hash the bytes.  Kinds and
field names are arbitrary text (everything a ``%``-template, a
``str.format`` or a JSON string literal could trip over), values cover
every type the stack emits plus the ones only the per-value fallback
can encode.
"""

import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import goldens
from repro.obs import records as obsrec
from repro.obs.golden import digest_lines, load_stream
from repro.obs.records import TraceRecord
from repro.obs.sinks import DigestSink

from tests.reference_records import reference_line

RESERVED = ("t", "kind", "flow", "eid", "peid")


class Phase(enum.IntEnum):
    SLOW_START = 1
    AVOIDANCE = 2


class Seconds(float):
    """A ``float`` subclass: exact-type dispatch must not claim it."""


#: text a template, a format string or a JSON literal could trip over,
#: and names that sort before, between and after the reserved keys
#: (``eid`` < ``flow`` < ``kind`` < ``peid`` < ``t``)
AWKWARD_TEXT = (
    "", "a", "eid0", "f", "g", "kind_", "m", "q", "tz", "z", "T", "EID",
    "%", "%s", "%(t)s", "%%", "100%", "{", "}", "{}", "{0}", "{t}",
    'quo"te', "back\\slash", "\\u0041", "new\nline", "tab\t", "\x00",
    "\x1f", "\x7f", "é", "日本", "\U0001F600", "\ud800", "/", "pkt.send",
)
text = st.one_of(st.sampled_from(AWKWARD_TEXT), st.text(max_size=6),
                 st.text(st.characters(), max_size=3))
names = text.filter(lambda name: name not in RESERVED)

ints = st.one_of(
    st.sampled_from([0, -1, 1448, 2 ** 63, 2 ** 64 + 1, -(2 ** 70)]),
    st.integers())
finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     1e22, 1e21, 9999999999999998.0, 1e16, 1e-7, 1e-5,
                     0.0001, 0.25066797600000007, 0.1 + 0.2, 1.5,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
scalars = st.one_of(
    ints, finite_floats, st.booleans(), st.none(), text,
    st.sampled_from(list(Phase)), finite_floats.map(Seconds))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(text, inner, max_size=3)),
    max_leaves=6)

records = st.builds(
    TraceRecord,
    time=st.one_of(finite_floats, ints),
    kind=text,
    flow=st.integers(min_value=-1, max_value=2 ** 33),
    fields=st.dictionaries(names, values, max_size=6),
    eid=st.integers(min_value=0, max_value=2 ** 40),
    parent_eid=st.integers(min_value=0, max_value=2 ** 40))


def reordered(record):
    """The same record with its fields inserted in reverse order."""
    return TraceRecord(record.time, record.kind, record.flow,
                       dict(reversed(list(record.fields.items()))),
                       record.eid, record.parent_eid)


# ----------------------------------------------------------------------
# (a) the shipped line is the oracle's line, byte for byte
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(record=records)
def test_line_equals_the_oracle(record):
    line = record.to_line()
    assert line == reference_line(record)
    # the canonical line does not depend on insertion order, though the
    # compiled shape does
    assert reordered(record).to_line() == line
    assert TraceRecord.from_line(line) == record
    assert len(obsrec._SHAPES) <= obsrec._SHAPE_CAP


@settings(max_examples=50, deadline=None)
@given(stream=st.lists(records, max_size=8))
def test_digest_equals_hashing_the_oracle_lines(stream):
    sink = DigestSink()
    for record in stream:
        sink.emit(record)
    assert sink.records == len(stream)
    assert sink.digest() == digest_lines(map(reference_line, stream))


def test_the_stack_own_shapes_match_the_oracle():
    """The eight shapes of a download plus a ``campaign.span`` (nested
    ``resources``), spelled out so a failure names a real record."""
    cases = [
        TraceRecord(0.25066797600000007, "pkt.recv", 1,
                    {"host": "client", "ptype": "data", "seq": 1448,
                     "size": 1500}, eid=41, parent_eid=37),
        TraceRecord(0.1, "pkt.send", 1,
                    {"seq": 0, "size": 1448, "retx": False}, eid=3),
        TraceRecord(1e-7, "cc.cwnd", 1, {"cwnd": 14480, "ssthresh": 2 ** 62,
                                         "flight": 0}),
        TraceRecord(2.0, "tcp.pacing", 1, {"rate": 0.0}),
        TraceRecord(3.5, "suss.decision", 1,
                    {"round": 2, "growth": 4, "accepted": True,
                     "reason": "ok"}),
        TraceRecord(12.0, "campaign.span", -1,
                    {"span": "abc#1", "job_kind": "flow", "cached": False,
                     "worker": None, "retry_of": None, "error": None,
                     "resources": {"max_rss_kb": 30000, "cpu_s": 0.5}}),
        TraceRecord(0.0, "flowsim.flow", 7, {}),
    ]
    for record in cases:
        assert record.to_line() == reference_line(record), record


# ----------------------------------------------------------------------
# (b) non-finite floats are refused wherever the oracle refuses them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 Seconds("nan")])
@pytest.mark.parametrize("where", ["time", "field", "nested"])
def test_non_finite_floats_raise_in_both(bad, where):
    if where == "time":
        record = TraceRecord(bad, "tcp.rtt", 1, {"rtt": 0.1})
    elif where == "field":
        record = TraceRecord(0.5, "tcp.rtt", 1, {"rtt": bad})
    else:
        record = TraceRecord(0.5, "campaign.span", -1,
                             {"resources": {"cpu_s": [1.0, bad]}})
    with pytest.raises(ValueError, match="Out of range float"):
        reference_line(record)
    with pytest.raises(ValueError, match="Out of range float"):
        record.to_line()
    with pytest.raises(ValueError, match="Out of range float"):
        DigestSink().emit(record)


# ----------------------------------------------------------------------
# (c) every committed golden line re-encodes to itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(goldens.GOLDEN_RUNS))
def test_golden_lines_reencode_to_themselves(name):
    lines = load_stream(goldens.DEFAULT_GOLDEN_DIR, name)
    assert len(lines) > 100
    for line in lines:
        assert TraceRecord.from_line(line).to_line() == line


# ----------------------------------------------------------------------
# (d) shapes without end cannot grow the table without end
# ----------------------------------------------------------------------
def test_shape_table_stays_within_its_cap():
    steady = TraceRecord(0.5, "cc.cwnd", 1, {"cwnd": 14480, "flight": 0})
    for i in range(2 * obsrec._SHAPE_CAP + 10):
        novel = TraceRecord(0.5, "pkt.send", 1, {f"field{i}": i})
        assert novel.to_line() == reference_line(novel)
        assert steady.to_line() == reference_line(steady)
        assert len(obsrec._SHAPES) <= obsrec._SHAPE_CAP
    # a shape in steady use is cached again after the table was emptied
    assert ("cc.cwnd", "cwnd", "flight") in obsrec._SHAPES


def test_only_exact_str_kinds_are_cached():
    """1, 1.0 and True are one dict key and three encodings."""
    for kind in (1, 1.0, True, Phase.SLOW_START):
        record = TraceRecord(0.0, kind, 1, {"only_exact_str": 0})
        assert record.to_line() == reference_line(record)
    assert not any("only_exact_str" in shape for shape in obsrec._SHAPES)
