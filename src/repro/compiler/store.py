"""Persistent on-disk plan cache for the dispatcher's lifted tier.

Lifted plans (:class:`~repro.compiler.lift.BlockPlan` lists for CUDA,
:class:`~repro.compiler.lift.RegionPlan` for OpenMP) are pure data:
effect lists over slot environments.  They survive pickling, so a plan
captured once can warm every later process — cold measurement-service
workers in particular — as long as nothing the plan depends on
changed.

Three things key an entry, all already folded into the shape digest by
the dispatcher: the machine fingerprint (cost parameters), the
structural launch/region signature (kernel code plus the values of its
closure cells, defaults, and module globals; launch config; array
names, dtypes, and shapes), and :data:`DISPATCH_VERSION` (bumped
whenever plan or effect encoding changes).  A load therefore needs no
re-validation: a process whose globals differ computes another digest.

Entries are written atomically (temp file + fsync + ``os.replace``) and
framed with a magic string plus a SHA-256 payload checksum, the same
torn-entry pattern as :mod:`repro.service.cache`: a partial or corrupt
file reads as a miss, never as wrong data.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time

from repro.obs.metrics import counter

#: Bump when BlockPlan/RegionPlan or entry encoding changes — stale
#: on-disk entries from older encodings then simply never match a key.
DISPATCH_VERSION = 2

_MAGIC = b"syncperf-plan/v1\n"
_CHECKSUM_BYTES = 32

_C_HIT = counter("dispatch.disk_hit")
_C_MISS = counter("dispatch.disk_miss")
_C_WRITE = counter("dispatch.disk_write")
_C_CORRUPT = counter("dispatch.disk_corrupt")
_C_EVICT = counter("cache.evictions")


def default_store_root() -> str:
    """Resolve the plan-store directory from the environment.

    ``SYNCPERF_PLAN_CACHE`` wins; otherwise ``$XDG_CACHE_HOME`` or
    ``~/.cache``, under ``syncperf/plans``.
    """
    override = os.environ.get("SYNCPERF_PLAN_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "syncperf", "plans")


def store_from_env():
    """A :class:`PlanStore` iff ``SYNCPERF_PLAN_CACHE`` is set.

    The dispatcher stays memory-only by default — tests and one-shot
    runs should not write to the user's home directory unasked.  The
    measurement service opts in explicitly (its workers are exactly the
    cold-process case the store exists for).
    """
    root = os.environ.get("SYNCPERF_PLAN_CACHE")
    if not root:
        return None
    return PlanStore(root)


class PlanStore:
    """Atomic, checksummed, bounded directory of pickled plan sets.

    One file per shape digest: ``<digest-hex>.plan`` containing
    ``MAGIC + sha256(payload) + payload`` where payload is the pickled
    ``{"version", "digest", "plans"}`` dict.  ``load`` returns
    ``None`` on any mismatch (magic, checksum, version, digest) and
    counts ``dispatch.disk_corrupt`` when the file was framed but bad.

    Size is bounded by ``max_entries``; ``save`` evicts the
    oldest-mtime entries beyond the cap (counted as
    ``cache.evictions``).
    """

    def __init__(self, root: str | None = None, max_entries: int = 256,
                 clock=time.time) -> None:
        self.root = root or default_store_root()
        self.max_entries = max_entries
        self.clock = clock

    # ------------------------------------------------------------------ #

    def _path(self, digest: bytes) -> str:
        return os.path.join(self.root, digest.hex() + ".plan")

    def load(self, digest: bytes):
        """Return the plans stored for ``digest`` or None."""
        try:
            with open(self._path(digest), "rb") as fh:
                blob = fh.read()
        except (OSError, ValueError):
            _C_MISS.add(1)
            return None
        if not blob.startswith(_MAGIC):
            _C_MISS.add(1)
            if blob:
                _C_CORRUPT.add(1)
            return None
        body = blob[len(_MAGIC):]
        checksum, payload = body[:_CHECKSUM_BYTES], body[_CHECKSUM_BYTES:]
        if hashlib.sha256(payload).digest() != checksum:
            _C_MISS.add(1)
            _C_CORRUPT.add(1)
            return None
        try:
            entry = pickle.loads(payload)
        except Exception:
            _C_MISS.add(1)
            _C_CORRUPT.add(1)
            return None
        if not isinstance(entry, dict) \
                or entry.get("version") != DISPATCH_VERSION \
                or entry.get("digest") != digest:
            _C_MISS.add(1)
            return None
        _C_HIT.add(1)
        return entry["plans"]

    def save(self, digest: bytes, plans) -> bool:
        """Persist a plan set; returns False when it cannot be pickled."""
        payload_dict = {
            "version": DISPATCH_VERSION,
            "digest": digest,
            "plans": plans,
        }
        try:
            payload = pickle.dumps(payload_dict,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._path(digest)
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        _C_WRITE.add(1)
        self._evict()
        return True

    def _evict(self) -> None:
        try:
            names = [n for n in os.listdir(self.root)
                     if n.endswith(".plan")]
        except OSError:
            return
        excess = len(names) - self.max_entries
        if excess <= 0:
            return
        stamped = []
        for name in names:
            path = os.path.join(self.root, name)
            try:
                stamped.append((os.path.getmtime(path), path))
            except OSError:
                continue
        stamped.sort()
        for _, path in stamped[:excess]:
            try:
                os.unlink(path)
                _C_EVICT.add(1)
            except OSError:
                pass

    def entries(self) -> int:
        """Number of plan files currently on disk (0 if absent)."""
        try:
            return sum(1 for n in os.listdir(self.root)
                       if n.endswith(".plan"))
        except OSError:
            return 0
