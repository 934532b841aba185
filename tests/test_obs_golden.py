"""Golden-trace machinery + the committed-golden regression suite."""

import gzip

import pytest

from repro.experiments import goldens
from repro.obs.golden import (
    RECOVERY_DIGEST_FILE,
    Divergence,
    digest_lines,
    eid_free,
    eid_free_digest,
    first_divergence,
    load_digests,
    load_stream,
    save_digest,
    save_golden,
    stored_schema,
    stream_path,
    trace_digest,
)
from repro.obs.records import SCHEMA_VERSION, TraceRecord

from tests.reference_scoreboard import reference_endpoints


# ----------------------------------------------------------------------
# pure digest/diff machinery
# ----------------------------------------------------------------------
class TestDigests:
    def test_digest_lines_is_newline_terminated_sha256(self):
        import hashlib
        lines = ['{"a":1}', '{"b":2}']
        expected = hashlib.sha256(b'{"a":1}\n{"b":2}\n').hexdigest()
        assert digest_lines(lines) == expected

    def test_trace_digest_matches_line_digest(self):
        records = [TraceRecord(0.1, "pkt.send", 1, {"seq": 0}),
                   TraceRecord(0.2, "pkt.recv", 1, {"seq": 0})]
        assert trace_digest(records) == \
            digest_lines([r.to_line() for r in records])

    def test_eid_free_line_drops_only_the_event_numbering(self):
        record = TraceRecord(0.25, "pkt.recv", 1, {"seq": 1448, "size": 1500},
                             eid=226, parent_eid=200)
        assert eid_free(record.to_line()) == (
            '{"flow":1,"kind":"pkt.recv","seq":1448,"size":1500,"t":0.25}')
        # a line without the columns is its own eid-free form
        assert eid_free('{"kind":"x","t":1}') == '{"kind":"x","t":1}'

    def test_eid_free_digest_ignores_renumbering_only(self):
        def lines(eid, seq):
            return [TraceRecord(0.1, "pkt.send", 1, {"seq": seq},
                                eid=eid, parent_eid=eid - 1).to_line()]
        assert digest_lines(lines(8, 0)) != digest_lines(lines(5, 0))
        assert eid_free_digest(lines(8, 0)) == eid_free_digest(lines(5, 0))
        assert eid_free_digest(lines(8, 0)) != eid_free_digest(lines(8, 1448))


class TestFirstDivergence:
    def test_identical_streams(self):
        assert first_divergence(["a", "b"], ["a", "b"]) is None

    def test_mid_stream_divergence(self):
        d = first_divergence(["a", "b", "c"], ["a", "X", "c"])
        assert d == Divergence(1, "b", "X")
        text = d.describe()
        assert "line 1" in text and "golden: b" in text and "actual: X" in text

    def test_actual_stream_longer(self):
        d = first_divergence(["a"], ["a", "extra"])
        assert d.index == 1 and d.golden is None
        assert "extra line" in d.describe()

    def test_actual_stream_shorter(self):
        d = first_divergence(["a", "b"], ["a"])
        assert d.index == 1 and d.actual is None
        assert "ended after 1 lines" in d.describe()


class TestGoldenStore:
    def test_save_and_load_roundtrip(self, tmp_path):
        lines = ['{"kind":"x","t":1}', '{"kind":"y","t":2}']
        digest = save_golden(tmp_path, "cubic+suss", lines)
        assert digest == digest_lines(lines)
        assert load_stream(tmp_path, "cubic+suss") == lines
        index = load_digests(tmp_path)
        assert index["cubic+suss"] == {
            "digest": digest, "eid_free_digest": eid_free_digest(lines),
            "records": 2}

    def test_stream_path_sanitizes_name(self, tmp_path):
        path = stream_path(tmp_path, "bbr+suss/wired")
        assert path.name == "bbr_suss_wired.jsonl.gz"

    def test_regeneration_is_byte_identical(self, tmp_path):
        lines = ['{"t":1}']
        save_golden(tmp_path, "run", lines)
        first = stream_path(tmp_path, "run").read_bytes()
        save_golden(tmp_path, "run", lines)
        assert stream_path(tmp_path, "run").read_bytes() == first

    def test_load_digests_missing_dir(self, tmp_path):
        assert load_digests(tmp_path / "nope") == {}

    def test_digest_only_entry_stores_no_stream(self, tmp_path):
        lines = ['{"t":1}', '{"t":2}']
        digest = save_digest(tmp_path, "droptail/reno", lines,
                             RECOVERY_DIGEST_FILE)
        assert load_digests(tmp_path, RECOVERY_DIGEST_FILE) == {
            "droptail/reno": {"digest": digest_lines(lines),
                              "eid_free_digest": eid_free_digest(lines),
                              "records": 2}}
        assert digest == digest_lines(lines)
        assert [p.name for p in tmp_path.iterdir()] == [RECOVERY_DIGEST_FILE]

    def test_gzip_mtime_pinned(self, tmp_path):
        save_golden(tmp_path, "run", ['{"t":1}'])
        raw = stream_path(tmp_path, "run").read_bytes()
        # gzip header bytes 4-7 are the mtime field
        assert raw[4:8] == b"\x00\x00\x00\x00"


# ----------------------------------------------------------------------
# capture side + the actual regression suite against committed goldens
# ----------------------------------------------------------------------
class TestCapture:
    def test_update_goldens_rejects_unknown_name(self, tmp_path):
        with pytest.raises(KeyError, match="unknown golden run"):
            goldens.update_goldens(golden_dir=tmp_path, names=["nope"])

    def test_run_to_run_digest_stability(self):
        name = "cubic"
        assert goldens.capture_digest(name) == goldens.capture_digest(name)

    def test_update_goldens_routes_recovery_runs_to_digest_index(
            self, tmp_path):
        digests = goldens.update_goldens(golden_dir=tmp_path,
                                         names=["droptail/cubic"])
        index = load_digests(tmp_path, RECOVERY_DIGEST_FILE)
        assert index["droptail/cubic"]["digest"] == digests["droptail/cubic"]
        assert load_digests(tmp_path) == {}

    def test_update_goldens_writes_store(self, tmp_path):
        digests = goldens.update_goldens(golden_dir=tmp_path,
                                         names=["cubic"])
        index = load_digests(tmp_path)
        assert index["cubic"]["digest"] == digests["cubic"]
        assert gzip.open(stream_path(tmp_path, "cubic"), "rt").read()


def test_golden_store_schema_is_current():
    """The committed store must match the live record schema.

    A digest mismatch caused by a schema change is unexplainable from
    the line diff alone; this check names the real cause.
    """
    assert stored_schema(goldens.DEFAULT_GOLDEN_DIR) == SCHEMA_VERSION, (
        f"tests/golden was captured under record-schema "
        f"v{stored_schema(goldens.DEFAULT_GOLDEN_DIR)}, but the code is at "
        f"v{SCHEMA_VERSION}; run `python -m repro trace --update-golden`")


def test_save_golden_stamps_schema(tmp_path):
    save_golden(tmp_path, "run", ['{"t":1}'])
    assert stored_schema(tmp_path) == SCHEMA_VERSION
    # the schema marker never shadows a stream entry
    assert "_schema" not in load_digests(tmp_path)


def test_unmarked_store_reads_as_schema_v1(tmp_path):
    save_golden(tmp_path, "run", ['{"t":1}'])
    index_file = tmp_path / "digests.json"
    import json
    index = json.loads(index_file.read_text())
    del index["_schema"]
    index_file.write_text(json.dumps(index))
    assert stored_schema(tmp_path) == 1


def test_golden_streams_carry_resolvable_provenance():
    """Every committed record's peid must resolve inside the same stream."""
    lines = goldens.golden_stream("cubic+suss")
    records = [TraceRecord.from_line(line) for line in lines]
    eids = {record.eid for record in records}
    assert all(record.eid > 0 for record in records)
    for record in records:
        assert record.parent_eid == 0 or record.parent_eid in eids, (
            f"dangling peid {record.parent_eid} at t={record.time}")


@pytest.mark.parametrize(
    "name", sorted(goldens.GOLDEN_RUNS) + sorted(goldens.RECOVERY_RUNS))
def test_data_arrival_is_attributed_to_its_own_send(name):
    """Every DATA ``pkt.recv`` cites the event that emitted the
    ``pkt.send`` of that very segment — however long the packet waited
    in link queues behind packets other events had sent (a queued packet
    used to inherit the origin of whatever started the busy period:
    18 of 277 on ``cubic``), and whether it waited at all: one that finds
    a link idle starts in the frame that offered it and never has an
    ``_origin`` written."""
    records = goldens.capture_records(name)
    sent_by = {}
    for record in records:
        if record.kind == "pkt.send":
            sent_by.setdefault(record.eid, set()).add(record.fields["seq"])
    arrivals = [r for r in records if r.kind == "pkt.recv"
                and r.fields["ptype"] == "DATA"]
    assert arrivals and (name != "cubic" or len(arrivals) == 277)
    wrong = [r for r in arrivals
             if r.fields["seq"] not in sent_by.get(r.parent_eid, ())]
    assert not wrong, (
        f"{len(wrong)} of {len(arrivals)} DATA arrivals cite an event "
        f"that did not send them; first: {wrong[0]!r}")


def _numbering_note(entry, actual_lines):
    """Which of the entry's two digests moved, in words."""
    if eid_free_digest(actual_lines) == entry["eid_free_digest"]:
        return ("only event numbering moved: the eid-free digest still "
                "matches, so every record is the same at the same time "
                "and only eid / peid differ")
    return ("the eid-free digest moved too: the simulation itself "
            "changed, not just the engine's event numbering")


@pytest.mark.parametrize("name", sorted(goldens.GOLDEN_RUNS))
def test_golden_trace_regression(name):
    """Fixed-seed runs must reproduce the committed trace digests.

    On mismatch, the stored stream turns the bare hash failure into a
    first-divergence report; refresh deliberately with
    ``python -m repro trace --update-golden``.
    """
    index = load_digests(goldens.DEFAULT_GOLDEN_DIR)
    assert name in index, (
        f"no committed golden for {name!r}; run "
        "`python -m repro trace --update-golden`")
    actual_lines = goldens.capture_lines(name)
    actual = digest_lines(actual_lines)
    expected = index[name]["digest"]
    if actual != expected:
        golden_lines = goldens.golden_stream(name)
        diff = first_divergence(golden_lines, actual_lines)
        pytest.fail(
            f"golden trace {name!r} changed "
            f"(expected {expected[:12]}…, got {actual[:12]}…)\n"
            f"{_numbering_note(index[name], actual_lines)}\n"
            f"{diff.describe() if diff else 'streams equal, digest bug?'}\n"
            "If intentional: python -m repro trace --update-golden")
    assert eid_free_digest(actual_lines) == index[name]["eid_free_digest"]
    assert len(actual_lines) == index[name]["records"]


@pytest.mark.parametrize("name", sorted(goldens.RECOVERY_RUNS))
def test_recovery_trace_regression(name):
    """Loss-recovery dynamics are pinned event by event (digest only).

    The committed digests were captured before the sender's scoreboard
    and the receiver's reassembly buffer became incremental; they hold
    any later change to the same packets at the same times.
    """
    index = load_digests(goldens.DEFAULT_GOLDEN_DIR, RECOVERY_DIGEST_FILE)
    assert name in index, (
        f"no committed recovery digest for {name!r}; run "
        "`python -m repro trace --update-golden`")
    actual_lines = goldens.capture_lines(name)
    assert any('"kind":"tcp.recovery"' in line for line in actual_lines), (
        f"{name!r} never entered loss recovery; it pins nothing")
    actual = digest_lines(actual_lines)
    expected = index[name]["digest"]
    if actual != expected:
        # No stream is committed for these runs; the rebuild-per-ACK
        # oracle replays the captured behaviour and stands in for it.
        with reference_endpoints():
            oracle_lines = goldens.capture_lines(name)
        if digest_lines(oracle_lines) == expected:
            where = first_divergence(oracle_lines, actual_lines).describe()
        else:
            where = ("the reference endpoints moved too, so the change is "
                     "outside the scoreboard / reassembly buffer")
        pytest.fail(
            f"recovery trace {name!r} changed "
            f"(expected {expected[:12]}…, got {actual[:12]}…)\n"
            f"{_numbering_note(index[name], actual_lines)}\n{where}\n"
            "If intentional: python -m repro trace --update-golden")
    assert eid_free_digest(actual_lines) == index[name]["eid_free_digest"]
    assert len(actual_lines) == index[name]["records"]
