"""Process-wide JIT-style dispatch cache for the interpreters.

The paper's characterization sweeps re-launch the same interpreted
kernels thousands of times per (primitive, contention, machine) point,
so per-launch interpretation cost dominates.  This module memoizes work
per **signature** — (kernel identity, machine fingerprint, launch
config, memory contents; for an OpenMP region the config is the team
size, affinity, consistency model and whether the race detector
runs) — the way a JIT dispatcher memoizes a
specialized callable per type signature:

* **Replay tier**: the first successful launch of a signature records
  its outcome (changed memory bytes, per-block cycles, stats, step
  charges); identical re-launches apply the recorded effects without
  stepping a single generator.  Sound because eligibility requires the
  kernel to pass :func:`repro.compiler.lift.kernel_purity`, and the key
  covers every remaining input: the kernel signature
  (:func:`function_signature`) freezes the current values of its
  closure cells, defaults, and the module globals it loads, and strict
  mode accepts only deeply immutable values there.  The key is a
  ``(shape digest, content digest)`` pair: the shape digest covers the
  kernel signature, launch config, machine fingerprint and array
  names/dtypes/shapes; the content digest covers the array bytes.
* **Fast/reference tiers**: every miss, and every ineligible launch,
  runs on the batched fast path (or the scalar reference) untouched;
  a miss's outcome is then recorded for the next identical launch.

Replay is byte-identical to the reference interpreter; the
differential-fuzz harness pins this with the dispatcher forced on.

Keys include a **machine fingerprint**: a digest of the machine's
parameter dataclasses, revalidated against the live objects on every
launch, so mutating or swapping machine parameters invalidates cached
entries immediately (stale entries age out of the LRU).

Counters (docs/observability.md): ``dispatch.hit`` / ``dispatch.miss``
(keyed launches served / not served from the replay cache),
``dispatch.fallback`` (launches left to the fast/scalar tiers because
they are ineligible), and ``dispatch.evictions``.  When a recorder is
installed a replay hit also emits a ``dispatch.replay`` span, which
traced service requests carry across process boundaries
(docs/observability.md, "Cross-process trace context").

The ``SYNCPERF_DISPATCH`` environment variable (``on`` default,
``off``, ``force``) and the :func:`dispatch_disabled` /
:func:`dispatch_forced` context managers control engagement; ``force``
skips the static purity proof and lets the signature freeze mutable
cells and globals by value; it is meant for the fuzz harness.
"""

from __future__ import annotations

import enum
import hashlib
import marshal
import os
import threading
import types
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import fields as _dc_fields
from dataclasses import is_dataclass

import numpy as np

from repro.compiler import lift
from repro.obs import span as obs_span
from repro.obs.metrics import counter as _counter

_C_HIT = _counter("dispatch.hit")
_C_MISS = _counter("dispatch.miss")
_C_FALLBACK = _counter("dispatch.fallback")
_C_EVICT = _counter("dispatch.evictions")


# --------------------------------------------------------------------- #
# Engagement mode
# --------------------------------------------------------------------- #

_MODE_STACK: list[str] = []


def dispatch_mode() -> str:
    """Current engagement mode: ``"on"``, ``"off"``, or ``"force"``."""
    if _MODE_STACK:
        return _MODE_STACK[-1]
    mode = os.environ.get("SYNCPERF_DISPATCH", "on").lower()
    return mode if mode in ("on", "off", "force") else "on"


@contextmanager
def dispatch_disabled():
    """Context: route every launch straight to the fast/scalar tiers."""
    _MODE_STACK.append("off")
    try:
        yield
    finally:
        _MODE_STACK.pop()


@contextmanager
def dispatch_forced():
    """Context: key launches without the static purity proof, freezing
    mutable cells and globals by value.  For the fuzz/equivalence
    harnesses."""
    _MODE_STACK.append("force")
    try:
        yield
    finally:
        _MODE_STACK.pop()


# --------------------------------------------------------------------- #
# Fingerprints and signatures
# --------------------------------------------------------------------- #

class _Unfingerprintable(Exception):
    pass


def _freeze_state(x, depth: int = 0):
    """Recursively convert parameter objects into a stable value tree."""
    if depth > 8:
        raise _Unfingerprintable("nesting too deep")
    if x is None or isinstance(x, (bool, int, float, str, bytes)):
        return x
    if isinstance(x, enum.Enum):
        return ("enum", type(x).__qualname__, x.name)
    if isinstance(x, np.dtype):
        return ("dtype", x.str)
    if isinstance(x, (np.integer, np.floating, np.bool_)):
        return ("np", x.dtype.str, x.item())
    if isinstance(x, (tuple, list)):
        return ("seq", tuple(_freeze_state(v, depth + 1) for v in x))
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted(
            (_freeze_state(v, depth + 1) for v in x), key=repr)))
    if isinstance(x, dict):
        return ("map", tuple(sorted(
            ((k, _freeze_state(v, depth + 1)) for k, v in x.items()),
            key=repr)))
    if is_dataclass(x) and not isinstance(x, type):
        return ("dc", type(x).__qualname__,
                tuple((f.name, _freeze_state(getattr(x, f.name), depth + 1))
                      for f in _dc_fields(x)))
    if isinstance(x, np.ndarray):
        return ("nd", x.dtype.str, x.shape,
                hashlib.blake2b(x.tobytes(), digest_size=16).digest())
    raise _Unfingerprintable(type(x).__name__)


_fp_cache: dict[int, tuple] = {}


def machine_fingerprint(machine) -> bytes | None:
    """Digest of a machine's full parameter state, or None when the
    machine is not fingerprintable (dispatch then disengages).

    The parameter tree is re-frozen and compared against the cached
    state on every call, so in-place parameter mutation invalidates the
    fingerprint immediately.
    """
    try:
        if hasattr(machine, "spec") and hasattr(machine, "atomics"):
            state = ("gpu", type(machine).__qualname__,
                     _freeze_state(machine.spec),
                     _freeze_state(machine.params),
                     _freeze_state(machine.atomics))
        elif hasattr(machine, "topology") and hasattr(machine, "jitter"):
            state = ("cpu", type(machine).__qualname__,
                     _freeze_state(machine.topology),
                     _freeze_state(machine.params),
                     _freeze_state(machine.jitter))
        else:
            return None
    except _Unfingerprintable:
        return None
    cached = _fp_cache.get(id(machine))
    if cached is not None and cached[0] == state:
        return cached[1]
    digest = hashlib.blake2b(repr(state).encode(), digest_size=16).digest()
    _fp_cache[id(machine)] = (state, digest)
    return digest


_code_digests: dict = {}


def _code_digest(code) -> bytes:
    d = _code_digests.get(code)
    if d is None:
        d = hashlib.blake2b(marshal.dumps(code), digest_size=16).digest()
        _code_digests[code] = d
    return d


class _Unsignable(Exception):
    pass


def _freeze_cell(v, permissive: bool, depth: int = 0, seen=None):
    if depth > 6:
        raise _Unsignable("cell nesting too deep")
    if lift.immutable_value(v):
        return _freeze_state(v)
    if not permissive:
        raise _Unsignable(f"mutable value {type(v).__name__}")
    if isinstance(v, (list, tuple)):
        return ("seq", tuple(_freeze_cell(x, True, depth + 1, seen)
                             for x in v))
    if isinstance(v, dict):
        return ("map", tuple(sorted(
            ((k, _freeze_cell(x, True, depth + 1, seen))
             for k, x in v.items()), key=repr)))
    if isinstance(v, (set, frozenset)):
        return ("set", tuple(sorted(
            (_freeze_cell(x, True, depth + 1, seen) for x in v),
            key=repr)))
    if isinstance(v, np.ndarray):
        return ("nd", v.dtype.str, v.shape,
                hashlib.blake2b(v.tobytes(), digest_size=16).digest())
    if isinstance(v, types.FunctionType):
        return ("fn", function_signature(v, True, depth + 1, seen))
    raise _Unsignable(f"unsignable value {type(v).__name__}")


def function_signature(fn, permissive: bool, depth: int = 0,
                       seen=None) -> tuple:
    """Identity of a kernel/body: code digest plus the current values
    of its closure cells, defaults, and every module global its code
    loads (:func:`repro.compiler.lift._global_load_names`; names that
    resolve to builtins are absent from ``fn.__globals__`` and skipped).

    Because the values enter the signature, and the signature enters
    the shape digest of the replay key, rebinding a global or a cell
    simply keys a different entry: nothing cached under the old values
    can be served.

    Recursive closures (a function whose cell holds itself, directly or
    through another function) are frozen as a cycle marker carrying the
    revisited function's code digest — sound because the cycle shape is
    itself part of the structure being digested.

    Raises:
        _Unsignable: when a cell, default, or global cannot be frozen
            (mutable in strict mode, or an exotic type).
    """
    if seen is None:
        seen = set()
    if id(fn) in seen:
        return ("fn-cycle", _code_digest(fn.__code__))
    seen.add(id(fn))
    try:
        cells = tuple(_freeze_cell(cell.cell_contents, permissive,
                                   depth, seen)
                      for cell in (fn.__closure__ or ()))
        defaults = tuple(_freeze_cell(v, permissive, depth, seen)
                         for v in (fn.__defaults__ or ()))
        module = fn.__globals__
        globals_ = tuple(
            (name, _freeze_cell(module[name], permissive, depth, seen))
            for name in lift._global_load_names(fn.__code__)
            if name in module)
    finally:
        seen.discard(id(fn))
    return (_code_digest(fn.__code__), cells, defaults, globals_)


def _shape_digest(sig: tuple) -> bytes:
    """Collapse a launch's structural signature into 16 bytes.

    The signature holds only primitives, bytes digests, enums, and
    (frozen) dataclasses, all with deterministic ``repr``.  The digest
    prefixes the replay key; ``repr`` keeps apart values that tuple
    equality would merge (``1``, ``1.0``, ``True``; ``0.0`` and
    ``-0.0``).
    """
    return hashlib.blake2b(repr(sig).encode(), digest_size=16).digest()


# --------------------------------------------------------------------- #
# Cache entries
# --------------------------------------------------------------------- #

class _CudaEntry:
    __slots__ = ("writes", "block_cycles", "stats", "steps", "nbytes")

    def __init__(self, writes, block_cycles, stats, steps):
        self.writes = writes
        self.block_cycles = block_cycles
        self.stats = stats
        self.steps = steps
        self.nbytes = sum(len(b) for b in writes.values()) + 256


class _OmpEntry:
    __slots__ = ("writes", "times", "elapsed", "barriers", "requests",
                 "max_steps", "nbytes")

    def __init__(self, writes, times, elapsed, barriers, requests,
                 max_steps):
        self.writes = writes
        self.times = times
        self.elapsed = elapsed
        self.barriers = barriers
        self.requests = requests
        self.max_steps = max_steps
        self.nbytes = sum(len(b) for b in writes.values()) + 256


def _apply_writes(writes: dict[str, bytes],
                  memory: dict[str, np.ndarray]) -> None:
    for var, buf in writes.items():
        arr = memory[var]
        arr.reshape(-1)[:] = np.frombuffer(buf, dtype=arr.dtype)


def _diff_writes(pre: dict[str, bytes],
                 memory: dict[str, np.ndarray]) -> dict[str, bytes]:
    writes = {}
    for var, before in pre.items():
        after = memory[var].tobytes()
        if after != before:
            writes[var] = after
    return writes


# --------------------------------------------------------------------- #
# The dispatcher
# --------------------------------------------------------------------- #

class Dispatcher:
    """Process-wide launch/region memo table with LRU bounds.

    Args:
        max_entries: Replay-entry count ceiling.
        max_bytes: Total recorded-write bytes ceiling.
        memory_cap: Per-launch total memory bytes above which replay
            is not attempted (hashing would eat the win).
    """

    def __init__(self, max_entries: int = 1024,
                 max_bytes: int = 64 << 20,
                 memory_cap: int = 8 << 20) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.memory_cap = memory_cap
        self._lock = threading.RLock()
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0

    # ------------------------------ shared ---------------------------- #

    def clear(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """Cache occupancy snapshot."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
            }

    def _get_entry(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def _put_entry(self, key, entry) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            while self._entries and (
                    len(self._entries) > self.max_entries
                    or self._bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                _C_EVICT.add(1)

    def _digest_memory(self, memory) -> tuple | None:
        """(static signature, content digest, pre-bytes snapshot), or
        None when memory is ineligible (non-arrays, too large)."""
        static = []
        pre = {}
        total = 0
        h = hashlib.blake2b(digest_size=16)
        for name in sorted(memory):
            arr = memory[name]
            if not isinstance(arr, np.ndarray):
                return None
            buf = arr.tobytes()
            total += len(buf)
            if total > self.memory_cap:
                return None
            static.append((name, arr.dtype.str, arr.shape))
            pre[name] = buf
            h.update(name.encode())
            h.update(arr.dtype.str.encode())
            h.update(repr(arr.shape).encode())
            h.update(buf)
        return tuple(static), h.digest(), pre

    # ------------------------------- CUDA ----------------------------- #

    def begin_cuda(self, cuda, kernel, launch, memory, shared_decls):
        """Key one CUDA launch; returns a ticket or None (disengaged).

        Eligibility: dispatch mode on/force, fingerprintable device,
        statically pure kernel with immutable cells (skipped under
        ``force``), all-ndarray memory under the size cap.
        """
        mode = dispatch_mode()
        if mode == "off":
            return None
        fp = machine_fingerprint(cuda.device)
        if fp is None:
            _C_FALLBACK.add(1)
            return None
        forced = mode == "force"
        if not forced and not lift.kernel_purity(kernel)[0]:
            _C_FALLBACK.add(1)
            return None
        try:
            ksig = function_signature(kernel, forced)
        except _Unsignable:
            _C_FALLBACK.add(1)
            return None
        digested = self._digest_memory(memory)
        if digested is None:
            _C_FALLBACK.add(1)
            return None
        static, content, pre = digested
        shared_sig = tuple(sorted(
            (name, size, np.dtype(dt).str)
            for name, (size, dt) in shared_decls.items()))
        shape = _shape_digest(
            ("cuda", ksig, launch, shared_sig, fp, static))
        return _CudaTicket(self, launch, memory, (shape, content), pre)

    # ------------------------------ OpenMP ---------------------------- #

    def begin_omp(self, omp, body, shared):
        """Key one OpenMP parallel region; returns a ticket or None.

        The key covers the body signature, team size, affinity,
        consistency model, ``detect_races``, machine fingerprint and
        memory contents.
        """
        mode = dispatch_mode()
        if mode == "off":
            return None
        fp = machine_fingerprint(omp.machine)
        if fp is None:
            _C_FALLBACK.add(1)
            return None
        forced = mode == "force"
        if not forced and not lift.kernel_purity(body)[0]:
            _C_FALLBACK.add(1)
            return None
        try:
            bsig = function_signature(body, forced)
        except _Unsignable:
            _C_FALLBACK.add(1)
            return None
        shared_map = dict(shared or {})
        digested = self._digest_memory(shared_map)
        if digested is None:
            _C_FALLBACK.add(1)
            return None
        static, content, pre = digested
        # An entry recorded without the detector may hide a race, so it
        # must never serve a detecting region.  A detecting entry is
        # always race-free: ``record`` refuses races, and a raising run
        # never records.
        shape = _shape_digest(
            ("omp", bsig, omp.n_threads, omp.affinity,
             omp.relaxed_consistency, omp.detect_races, fp, static))
        return _OmpTicket(self, omp, shared_map, (shape, content), pre)


class _CudaTicket:
    """One keyed CUDA launch: replay, or record after a miss."""

    __slots__ = ("disp", "launch", "memory", "key", "pre", "hit")

    def __init__(self, disp, launch, memory, key, pre):
        self.disp = disp
        self.launch = launch
        self.memory = memory
        self.key = key
        self.pre = pre
        self.hit = False

    def replay(self, stats, budget) -> list[float] | None:
        """Apply a recorded launch, or None on miss."""
        entry = self.disp._get_entry(self.key)
        if entry is None or entry.steps > budget.remaining:
            _C_MISS.add(1)
            return None
        with obs_span("dispatch.replay", kind="cuda",
                      blocks=self.launch.grid_blocks):
            _apply_writes(entry.writes, self.memory)
            for name, delta in entry.stats:
                setattr(stats, name, getattr(stats, name) + delta)
            budget.charge(entry.steps)
        self.hit = True
        _C_HIT.add(1)
        return list(entry.block_cycles)

    def run_lifted(self, *args) -> None:
        """Always None; nothing in the package calls it.

        Kept only because the benchmark's traced layer table
        (``syncbench/tracing.py``) wraps this method by name.  It goes
        with the next benchmark change, once that table drops it.
        """
        return None

    def record(self, block_cycles, stats, budget) -> None:
        """Store the completed launch for future replay (miss only)."""
        if self.hit:
            return
        writes = _diff_writes(self.pre, self.memory)
        entry = _CudaEntry(
            writes=writes,
            block_cycles=tuple(block_cycles),
            stats=tuple((f.name, getattr(stats, f.name))
                        for f in _dc_fields(stats)
                        if getattr(stats, f.name)),
            steps=budget.used,
        )
        if entry.nbytes <= self.disp.memory_cap:
            self.disp._put_entry(self.key, entry)


class _OmpTicket:
    """One keyed OpenMP region: replay, or record after a miss."""

    __slots__ = ("disp", "omp", "shared_map", "key", "pre", "hit")

    def __init__(self, disp, omp, shared_map, key, pre):
        self.disp = disp
        self.omp = omp
        self.shared_map = shared_map
        self.key = key
        self.pre = pre
        self.hit = False

    def replay(self):
        """Apply a recorded region; returns a ParallelResult or None."""
        entry = self.disp._get_entry(self.key)
        if entry is None or self.omp.max_steps < entry.max_steps:
            _C_MISS.add(1)
            return None
        from repro.openmp.interpreter import ParallelResult
        with obs_span("dispatch.replay", kind="omp"):
            memory = dict(self.shared_map)
            _apply_writes(entry.writes, memory)
        self.hit = True
        _C_HIT.add(1)
        return ParallelResult(
            memory=memory,
            thread_times_ns=list(entry.times),
            elapsed_ns=entry.elapsed,
            races=[],
            barriers=entry.barriers,
            requests=entry.requests,
            trace=None,
        )

    def run_lifted(self, *args) -> None:
        """Always None; nothing in the package calls it.

        Kept only because the benchmark's traced layer table
        (``syncbench/tracing.py``) wraps this method by name.  It goes
        with the next benchmark change, once that table drops it.
        """
        return None

    def record(self, result) -> None:
        """Store the completed region for future replay (miss only)."""
        if self.hit or result.trace is not None or result.races:
            return
        writes = _diff_writes(self.pre, self.shared_map)
        entry = _OmpEntry(
            writes=writes,
            times=tuple(result.thread_times_ns),
            elapsed=result.elapsed_ns,
            barriers=result.barriers,
            requests=result.requests,
            max_steps=self.omp.max_steps,
        )
        if entry.nbytes <= self.disp.memory_cap:
            self.disp._put_entry(self.key, entry)


#: The process-wide dispatcher every interpreter shares.
DISPATCHER = Dispatcher()
