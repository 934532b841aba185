"""Golden-trace digests: stable hashes of structured event streams.

A golden trace pins the *dynamics* of a fixed-seed run: every packet
departure, cwnd update, and SUSS decision, in order.  The digest is the
SHA-256 of the canonical JSONL encoding (identical to hashing the
corresponding ``.jsonl`` file), so a digest mismatch means the event
stream itself changed.

Alongside each digest the full gzipped JSONL stream is stored, which is
what turns a bare hash mismatch into a *readable first-divergence diff*
(:func:`first_divergence`): the failing test reports the index, the
golden line, and the actual line where the streams part ways.

Each index entry carries two digests.  ``digest`` hashes the lines as
emitted, engine event ids included, so it moves whenever the engine
numbers events differently.  ``eid_free_digest`` hashes the same lines
with ``eid`` and ``peid`` removed (:func:`eid_free`): time, kind, flow
and fields, in order — the simulation itself.  A change that removes or
reorders plumbing events may move the first; only a change to what
happens, or when, moves the second.

This module is pure record-plumbing; the runs that *produce* golden
streams live in :mod:`repro.experiments.goldens` (the layer that may
build simulations), and ``repro trace --update-golden`` regenerates the
stored files deliberately.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.obs.records import SCHEMA_VERSION, TraceRecord

#: digest index filename inside a golden directory
DIGEST_FILE = "digests.json"

#: digest-only index (no stored streams) of the loss-recovery runs
RECOVERY_DIGEST_FILE = "recovery_digests.json"

#: reserved key in the digest index recording the record-schema version
#: the store was captured under (absent = v1, the pre-provenance schema)
SCHEMA_KEY = "_schema"


def record_lines(records: Iterable[TraceRecord]) -> List[str]:
    """Canonical line encoding of a record stream."""
    return [record.to_line() for record in records]


def digest_lines(lines: Iterable[str]) -> str:
    """SHA-256 over newline-terminated canonical lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def trace_digest(records: Iterable[TraceRecord]) -> str:
    return digest_lines(record_lines(records))


def eid_free(line: str) -> str:
    """The canonical line with its ``eid`` / ``peid`` columns removed."""
    data = json.loads(line)
    data.pop("eid", None)
    data.pop("peid", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def eid_free_digest(lines: Iterable[str]) -> str:
    """:func:`digest_lines` over the event-numbering-free lines."""
    return digest_lines(eid_free(line) for line in lines)


class Divergence(NamedTuple):
    """First point where two line streams differ."""

    index: int            # 0-based line index
    golden: Optional[str]  # None when the golden stream ended first
    actual: Optional[str]  # None when the actual stream ended first

    def describe(self) -> str:
        if self.golden is None:
            return (f"actual stream has {self.index} matching lines, then "
                    f"extra line {self.index}:\n  + {self.actual}")
        if self.actual is None:
            return (f"actual stream ended after {self.index} lines; golden "
                    f"continues with:\n  - {self.golden}")
        return (f"first divergence at line {self.index}:\n"
                f"  golden: {self.golden}\n"
                f"  actual: {self.actual}")


def first_divergence(golden: List[str],
                     actual: List[str]) -> Optional[Divergence]:
    """Locate the first differing line, or None when streams match."""
    for index, (g, a) in enumerate(zip(golden, actual)):
        if g != a:
            return Divergence(index, g, a)
    if len(golden) > len(actual):
        return Divergence(len(actual), golden[len(actual)], None)
    if len(actual) > len(golden):
        return Divergence(len(golden), None, actual[len(golden)])
    return None


# ----------------------------------------------------------------------
# golden store (digests.json + <name>.jsonl.gz per stream)
# ----------------------------------------------------------------------
def stream_path(golden_dir: Path, name: str) -> Path:
    safe = name.replace("/", "_").replace("+", "_")
    return Path(golden_dir) / f"{safe}.jsonl.gz"


def load_digests(golden_dir: Path, index_file: str = DIGEST_FILE
                 ) -> Dict[str, Dict[str, object]]:
    """The digest index (stream entries only), or {} when missing."""
    index = load_index(golden_dir, index_file)
    return {name: entry for name, entry in index.items()
            if name != SCHEMA_KEY}


def load_index(golden_dir: Path, index_file: str = DIGEST_FILE
               ) -> Dict[str, object]:
    """The raw digest index including the schema marker, or {}."""
    path = Path(golden_dir) / index_file
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stored_schema(golden_dir: Path) -> int:
    """Record-schema version the store was captured under (1 if unmarked)."""
    return int(load_index(golden_dir).get(SCHEMA_KEY, 1))


def load_stream(golden_dir: Path, name: str) -> List[str]:
    """The stored golden line stream for ``name``."""
    path = stream_path(golden_dir, name)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return fh.read().splitlines()


def save_golden(golden_dir: Path, name: str, lines: List[str]) -> str:
    """Persist one golden stream + its digest; returns the digest.

    The gzip stream is written with ``mtime=0`` so regeneration without
    a dynamics change is byte-identical (no spurious VCS churn).
    """
    golden_dir = Path(golden_dir)
    golden_dir.mkdir(parents=True, exist_ok=True)
    payload = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    with open(stream_path(golden_dir, name), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(payload)
    return save_digest(golden_dir, name, lines)


def save_digest(golden_dir: Path, name: str, lines: List[str],
                index_file: str = DIGEST_FILE) -> str:
    """Record one stream's two digests and record count in ``index_file``.

    On its own this pins a run without committing its stream (the
    recovery runs are too long to live in git); a mismatch is then
    localised by diffing against a fresh reference run instead.
    """
    golden_dir = Path(golden_dir)
    golden_dir.mkdir(parents=True, exist_ok=True)
    digest = digest_lines(lines)
    index = load_index(golden_dir, index_file)
    index[name] = {"digest": digest,
                   "eid_free_digest": eid_free_digest(lines),
                   "records": len(lines)}
    index[SCHEMA_KEY] = SCHEMA_VERSION
    with open(golden_dir / index_file, "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digest
