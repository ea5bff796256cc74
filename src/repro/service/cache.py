"""Content-addressed result cache with staleness accounting.

The cache is the service's graceful-degradation store: when the live
measurement path is unhealthy (circuit open, retries exhausted), the
service answers from here — *labeled* as degraded — rather than failing
outright.  Three properties make that safe:

* **Content addressing.** The key is the SHA-256 of the canonical JSON
  of (request, campaign fingerprint, code version).  Any change to the
  request, the machine/fault configuration, or the reproduction itself
  yields a different key, so a cache answer can never silently mix
  configurations.
* **Torn-write immunity.** Entries are written with the same atomic
  temp-file + rename discipline as result artifacts; a kill mid-``put``
  leaves either the old entry or none.  A corrupt entry on disk (e.g.
  pre-atomic debris) reads as a *miss*, never as a crash.
* **Honest staleness.** Every entry records its store time; ``get``
  reports the entry's age so callers can distinguish a fresh hit from a
  stale fallback and label responses accordingly.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.results_io import atomic_write_text
from repro.obs.metrics import counter as _counter

#: Bump when the entry layout changes (old entries then read as misses).
ENTRY_VERSION = 1

#: Entries removed by the cache's eviction policy
#: (docs/observability.md).
_C_EVICTIONS = _counter("cache.evictions")


def cache_key(request_canonical: dict, fingerprint: str,
              version: str) -> str:
    """SHA-256 content address of a (request, config, code) identity."""
    identity = {
        "request": request_canonical,
        "fingerprint": fingerprint,
        "version": version,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One retrieved cache entry.

    Attributes:
        key: The content address it was stored under.
        result: The measurement payload (:func:`repro.service.catalog.
            result_to_json` shape).
        stored_at: ``time.time()`` at store time.
        age_seconds: Age at retrieval (>= 0).
    """

    key: str
    result: dict
    stored_at: float
    age_seconds: float


class ResultCache:
    """Directory-backed content-addressed measurement cache.

    Args:
        directory: Cache root; created on first ``put``.
        clock: Wall-clock source (injectable for staleness tests).
        max_entries: Entry-count ceiling; each ``put`` evicts the
            oldest-mtime entries beyond it (counted as
            ``cache.evictions``).  ``None`` = unbounded (the
            pre-existing behavior).
    """

    def __init__(self, directory: Path | str,
                 clock=time.time,
                 max_entries: int | None = None) -> None:
        self.directory = Path(directory)
        self._clock = clock
        self.max_entries = max_entries

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def put(self, key: str, result: dict, request: dict) -> Path:
        """Store a measurement result under its content address.

        The write is atomic: a concurrent reader (or a post-kill
        resume) sees the previous entry or the complete new one.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "entry_version": ENTRY_VERSION,
            "key": key,
            "request": request,
            "result": result,
            "stored_at": self._clock(),
        }
        path = atomic_write_text(
            self._path(key),
            json.dumps(entry, separators=(",", ":")) + "\n")
        self._evict()
        return path

    def _evict(self) -> None:
        """Drop the oldest entries beyond ``max_entries`` (by mtime).

        Atomic puts make mtime a faithful recency signal; a concurrent
        writer racing an unlink at worst re-creates the entry, never
        tears it.
        """
        if self.max_entries is None:
            return
        try:
            paths = list(self.directory.glob("*.json"))
        except OSError:
            return
        excess = len(paths) - self.max_entries
        if excess <= 0:
            return
        stamped = []
        for path in paths:
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        stamped.sort(key=lambda pair: (pair[0], pair[1].name))
        for _, path in stamped[:excess]:
            try:
                path.unlink()
                _C_EVICTIONS.add(1)
            except OSError:
                pass

    def get(self, key: str) -> CacheEntry | None:
        """Retrieve an entry, or None on miss.

        A missing file, unreadable file, corrupt JSON, or wrong entry
        version all read as a miss — the cache degrades availability,
        it must never add a failure mode of its own.
        """
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or \
                    entry.get("entry_version") != ENTRY_VERSION or \
                    entry.get("key") != key or \
                    not isinstance(entry.get("result"), dict):
                return None
            stored_at = float(entry["stored_at"])
        except (ValueError, TypeError, KeyError):
            return None
        return CacheEntry(
            key=key, result=entry["result"], stored_at=stored_at,
            age_seconds=max(0.0, self._clock() - stored_at))

    def age(self, entry: CacheEntry) -> float:
        """Seconds since ``entry`` was stored, as of now (>= 0)."""
        return max(0.0, self._clock() - entry.stored_at)

    def entries(self) -> dict[str, dict]:
        """All *well-formed* entries on disk, by key.

        Used by the chaos harness's integrity sweep; raises on a
        malformed entry file (that is the torn-write bug it hunts)
        rather than skipping it.

        Raises:
            ValueError: An entry file exists but does not parse as a
                complete entry of the current version.
        """
        found: dict[str, dict] = {}
        if not self.directory.is_dir():
            return found
        for path in sorted(self.directory.glob("*.json")):
            entry = json.loads(path.read_text())
            if not isinstance(entry, dict) or \
                    entry.get("entry_version") != ENTRY_VERSION or \
                    "result" not in entry or "key" not in entry:
                raise ValueError(f"torn or foreign cache entry: {path}")
            if f"{entry['key']}.json" != path.name:
                raise ValueError(
                    f"cache entry {path} stored under wrong key")
            found[entry["key"]] = entry
        return found
