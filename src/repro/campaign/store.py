"""Content-addressed on-disk result store.

Records are JSON files keyed by ``(code fingerprint, job hash)``:

    <root>/<fingerprint[:16]>/<hash[:2]>/<hash>.json

The *code fingerprint* is a SHA-256 over the source of every ``.py`` file
in the ``repro`` package, so editing any simulator/CC/experiment code
invalidates the whole cache (stale results can never leak across code
versions), while re-running an unchanged tree is pure cache hits.  The
``REPRO_CAMPAIGN_FINGERPRINT`` environment variable overrides the
computed fingerprint (used by tests and for local cache reuse across
edits).

Only successful job results are stored — failures and timeouts stay
uncached so an interrupted or partially failed campaign retries exactly
the unfinished work on the next invocation (that is the resume
mechanism: resume *is* replaying the campaign against a warm cache).
Writes are atomic (temp file + ``os.replace``) so a killed campaign
never leaves a torn record, and unreadable/corrupt records degrade to
cache misses.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

_FINGERPRINT_CACHE: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of all ``repro`` package sources (cached per process)."""
    env = os.environ.get("REPRO_CAMPAIGN_FINGERPRINT")
    if env:
        return env
    global _FINGERPRINT_CACHE
    if _FINGERPRINT_CACHE is not None:
        return _FINGERPRINT_CACHE
    import repro
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _FINGERPRINT_CACHE = digest.hexdigest()
    return _FINGERPRINT_CACHE


class ResultStore:
    """JSON record store addressed by job hash under one code fingerprint."""

    def __init__(self, root: os.PathLike, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()

    @property
    def generation_dir(self) -> Path:
        return self.root / self.fingerprint[:16]

    def path_for(self, job_hash: str) -> Path:
        return self.generation_dir / job_hash[:2] / f"{job_hash}.json"

    def get(self, job_hash: str) -> Optional[Dict[str, Any]]:
        """Load a record, or None on miss/corruption (corrupt = miss)."""
        path = self.path_for(job_hash)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "value" not in record:
            return None
        return record

    def put(self, job_hash: str, record: Dict[str, Any]) -> Path:
        """Atomically persist a record for ``job_hash``."""
        path = self.path_for(job_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{job_hash}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)
        return path

    def iter_hashes(self) -> Iterator[str]:
        if not self.generation_dir.is_dir():
            return
        for path in self.generation_dir.glob("*/*.json"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_hashes())

    def __contains__(self, job_hash: str) -> bool:
        return self.path_for(job_hash).is_file()
