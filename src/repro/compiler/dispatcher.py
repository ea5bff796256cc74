"""Process-wide JIT-style dispatch cache for the interpreters.

The paper's characterization sweeps re-launch the same interpreted
kernels thousands of times per (primitive, contention, machine) point,
so per-launch interpretation cost dominates.  This module memoizes
whole CUDA launches and OpenMP regions the way a JIT dispatcher
memoizes a specialized callable per type signature: the first
successful launch of a key records its outcome (changed memory bytes,
per-block cycles or thread times, stats, step charges, and the
timeline of a traced launch), and identical
re-launches apply the recorded effects without stepping a single
generator.  Misses and ineligible launches run the interpreter
untouched; a miss's outcome is then recorded.

Every key is a value.  :meth:`Dispatcher._key` is the one keying path
and holds the whole eligibility chain:

1. the mode (:func:`dispatch_disabled` turns keying off);
2. the machine's identity: its class and the frozen parameter objects
   its ``PARTS`` declare (:meth:`repro.common.machine.Machine.identity`),
   the same values its run contexts key on.  A machine that is not a
   ``Machine`` (a fault wrapper) falls back;
3. purity: :func:`repro.compiler.lift.kernel_purity` (skipped by
   :func:`dispatch_forced`);
4. the kernel signature (:func:`function_signature`), which freezes the
   current values of its closure cells, defaults and the module globals
   it loads; a read-only ndarray among them is frozen by a digest of
   its bytes, taken at this launch;
5. the memory: array names, dtypes and shapes, plus a digest of the
   bytes.  The memory and the signed read-only arrays together must
   fit the dispatcher's ``memory_cap``.

The key is a ``(shape digest, content digest)`` pair.  The shape digest
is the ``repr`` of everything but the array bytes, taken at launch
time, so swapping a machine's parameters or flipping a field inside
them in place keys a different entry; nothing cached under the old
values can be served, and stale entries age out of the LRU.

A traced launch or region is keyed like any other, with the trace
request in its configuration: an entry recorded with a timeline keeps
the timeline's events and serves only traced relaunches, and an
untraced entry serves only untraced ones.  A replayed traced launch
hands back the recorded events in a fresh timeline.

Replay is byte-identical to the reference interpreter, timelines
included; the differential-fuzz harness pins this with the dispatcher
forced on.

Counters (docs/observability.md): ``dispatch.hit`` / ``dispatch.miss``
(keyed launches served / not served from the replay cache),
``dispatch.fallback`` (launches left to the interpreter because they
are ineligible), and ``dispatch.evictions``.  When a recorder is
installed a replay hit also emits a ``dispatch.replay`` span, which
traced service requests carry across process boundaries
(docs/observability.md, "Cross-process trace context").
"""

from __future__ import annotations

import enum
import hashlib
import marshal
import threading
import types
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import fields as _dc_fields
from dataclasses import is_dataclass

import numpy as np

from repro.common.machine import Machine
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
    return _MODE_STACK[-1] if _MODE_STACK else "on"


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
# Machine identity and signatures
# --------------------------------------------------------------------- #

def _machine_identity(machine) -> tuple | None:
    """``(type qualname, *machine.identity())``, or None when the machine
    is not a :class:`~repro.common.machine.Machine` (dispatch then falls
    back).  The replay key takes the parts' ``repr`` at launch time, so
    the key follows their current values."""
    if not isinstance(machine, Machine):
        return None
    parts = machine.identity()
    # A dataclass's repr lists its field values; anything else might
    # print an object address that hides an in-place change.
    if not all(map(is_dataclass, parts)):
        return None
    return (type(machine).__qualname__, *parts)


_code_digests: dict = {}


def _code_digest(code) -> bytes:
    d = _code_digests.get(code)
    if d is None:
        d = hashlib.blake2b(marshal.dumps(code), digest_size=16).digest()
        _code_digests[code] = d
    return d


class _Unsignable(Exception):
    pass


class _Signer:
    """One signing pass over a kernel and the functions it reaches.

    ``permissive`` freezes mutable cells by value (``dispatch_forced``);
    ``seen`` holds the functions on the current path, so a revisit is a
    cycle; ``nbytes`` sums the array bytes digested so far, which may
    not pass ``cap``.
    """

    __slots__ = ("permissive", "cap", "seen", "nbytes")

    def __init__(self, permissive: bool, cap: float) -> None:
        self.permissive = permissive
        self.cap = cap
        self.seen: set[int] = set()
        self.nbytes = 0

    def state(self, x):
        """A value tree for a deeply immutable value
        (:func:`repro.compiler.lift.immutable_value`) whose ``repr``
        keeps apart values that print alike.  An array is frozen by a
        digest of its bytes as they are now."""
        if isinstance(x, enum.Enum):
            return ("enum", type(x).__qualname__, x.name)
        if isinstance(x, np.dtype):
            return ("dtype", x.str)
        if isinstance(x, (np.integer, np.floating, np.bool_)):
            return ("np", x.dtype.str, x.item())
        if isinstance(x, np.ndarray):
            self.nbytes += x.nbytes
            if self.nbytes > self.cap:
                raise _Unsignable("arrays over the memory cap")
            return ("nd", x.dtype.str, x.shape,
                    hashlib.blake2b(x.tobytes(), digest_size=16).digest())
        if isinstance(x, tuple):
            return ("seq", tuple(self.state(v) for v in x))
        if isinstance(x, frozenset):
            return ("set", tuple(sorted(map(self.state, x), key=repr)))
        return x

    def cell(self, v, depth: int = 0):
        if depth > 6:
            raise _Unsignable("cell nesting too deep")
        if lift.immutable_value(v):
            return self.state(v)
        if not self.permissive:
            raise _Unsignable(f"mutable value {type(v).__name__}")
        if isinstance(v, (list, tuple)):
            return ("seq", tuple(self.cell(x, depth + 1) for x in v))
        if isinstance(v, dict):
            return ("map", tuple(sorted(
                ((k, self.cell(x, depth + 1)) for k, x in v.items()),
                key=repr)))
        if isinstance(v, (set, frozenset)):
            return ("set", tuple(sorted(
                (self.cell(x, depth + 1) for x in v), key=repr)))
        if isinstance(v, np.ndarray):
            return self.state(v)
        if isinstance(v, types.FunctionType):
            return ("fn", self.function(v, depth + 1))
        raise _Unsignable(f"unsignable value {type(v).__name__}")

    def function(self, fn, depth: int = 0) -> tuple:
        """See :func:`function_signature`."""
        if id(fn) in self.seen:
            return ("fn-cycle", _code_digest(fn.__code__))
        self.seen.add(id(fn))
        try:
            cells = tuple(self.cell(cell.cell_contents, depth)
                          for cell in (fn.__closure__ or ()))
            defaults = tuple(self.cell(v, depth)
                             for v in (fn.__defaults__ or ()))
            module = fn.__globals__
            globals_ = tuple(
                (name, self.cell(module[name], depth))
                for name in lift._global_load_names(fn.__code__)
                if name in module)
        finally:
            self.seen.discard(id(fn))
        return (_code_digest(fn.__code__), cells, defaults, globals_)


def function_signature(fn, permissive: bool) -> tuple:
    """Identity of a kernel/body: code digest plus the current values
    of its closure cells, defaults, and every module global its code
    loads (:func:`repro.compiler.lift._global_load_names`; names that
    resolve to builtins are absent from ``fn.__globals__`` and skipped).

    Because the values enter the signature, and the signature enters
    the shape digest of the replay key, rebinding a global or a cell
    simply keys a different entry: nothing cached under the old values
    can be served.  A read-only array enters by a digest of its bytes,
    taken at every launch, so re-enabling writes and changing it keys a
    different entry too.

    Recursive closures (a function whose cell holds itself, directly or
    through another function) are frozen as a cycle marker carrying the
    revisited function's code digest — sound because the cycle shape is
    itself part of the structure being digested.

    Raises:
        _Unsignable: when a cell, default, or global cannot be frozen
            (mutable in strict mode, or an exotic type).
    """
    return _Signer(permissive, float("inf")).function(fn)


def _shape_digest(sig: tuple) -> bytes:
    """Collapse a launch's structural signature into 16 bytes.

    The signature holds only primitives, bytes digests, enums, and
    frozen dataclasses (the launch config, the machine's parameter
    objects), all with deterministic ``repr``.  The digest prefixes the
    replay key; ``repr`` keeps apart values that tuple equality would
    merge (``1``, ``1.0``, ``True``; ``0.0`` and ``-0.0``).
    """
    return hashlib.blake2b(repr(sig).encode(), digest_size=16).digest()


# --------------------------------------------------------------------- #
# Cache entries
# --------------------------------------------------------------------- #

#: Bytes one recorded trace event holds (a frozen dataclass, its
#: ``__dict__`` and two floats), as ``tracemalloc`` measures it.
_EVENT_BYTES = 168


class _Entry:
    """One recorded launch: the changed memory bytes, the interpreter's
    result fields, the step count a replay must still have room for,
    and the timeline's events when the launch was traced."""

    __slots__ = ("writes", "result", "steps", "events", "nbytes")

    def __init__(self, writes, result, steps, events):
        self.writes = writes
        self.result = result
        self.steps = steps
        self.events = events
        self.nbytes = (sum(len(b) for b in writes.values())
                       + _EVENT_BYTES * len(events) + 256)


def _apply_writes(writes: dict[str, bytes],
                  memory: dict[str, np.ndarray]) -> None:
    for var, buf in writes.items():
        arr = memory[var]
        arr.reshape(-1)[:] = np.frombuffer(buf, dtype=arr.dtype)


# --------------------------------------------------------------------- #
# The dispatcher
# --------------------------------------------------------------------- #

class Dispatcher:
    """Process-wide launch/region memo table with LRU bounds.

    Args:
        max_entries: Replay-entry count ceiling.
        max_bytes: Ceiling on the bytes of every entry's recorded
            writes and timeline events together.
        memory_cap: Per-launch ceiling on the memory bytes plus the
            read-only array bytes in the kernel's signature, above
            which replay is not attempted (hashing would eat the win).
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

    def _digest_memory(self, memory, total: int) -> tuple | None:
        """(static signature, content digest, pre-bytes snapshot), or
        None when memory is ineligible (non-arrays, or more than
        ``memory_cap`` bytes on top of the ``total`` already signed)."""
        static = []
        pre = {}
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

    def _key(self, machine, fn, memory, extra: tuple) -> tuple | None:
        """``((shape digest, content digest), pre-bytes snapshot)`` for
        one launch, or None when it is not keyed.

        The one eligibility chain of the module docstring: mode,
        machine identity, purity (skipped under ``force``), signature,
        memory.  ``extra`` is the launch configuration, trace request
        included.
        """
        mode = dispatch_mode()
        if mode == "off":
            return None
        identity = _machine_identity(machine)
        forced = mode == "force"
        if identity is None or \
                (not forced and not lift.kernel_purity(fn)[0]):
            _C_FALLBACK.add(1)
            return None
        signer = _Signer(forced, self.memory_cap)
        try:
            sig = signer.function(fn)
        except _Unsignable:
            _C_FALLBACK.add(1)
            return None
        digested = self._digest_memory(memory, signer.nbytes)
        if digested is None:
            _C_FALLBACK.add(1)
            return None
        static, content, pre = digested
        shape = _shape_digest((extra, sig, identity, static))
        return (shape, content), pre

    def begin_cuda(self, cuda, kernel, launch, memory, shared_decls,
                   trace=None):
        """Key one CUDA launch; returns a ticket or None (not keyed).

        ``trace`` is the launch's fresh :class:`repro.cuda.trace.Trace`,
        or None; a replay fills it with the recorded events.
        """
        shared_sig = tuple(sorted(
            (name, size, np.dtype(dt).str)
            for name, (size, dt) in shared_decls.items()))
        keyed = self._key(cuda.device, kernel, memory,
                          ("cuda", launch, shared_sig, trace is not None))
        if keyed is None:
            return None
        return _CudaTicket(self, *keyed, memory, launch, trace)

    def begin_omp(self, omp, body, shared, trace: bool = False):
        """Key one OpenMP parallel region; returns a ticket or None.

        The configuration covers team size, affinity, consistency model,
        ``detect_races`` and ``trace``: an entry recorded without the
        detector may hide a race, so it must never serve a detecting
        region.  A detecting entry is always race-free: ``record``
        refuses races, and a raising run never records.
        """
        shared_map = dict(shared or {})
        keyed = self._key(omp.machine, body, shared_map,
                          ("omp", omp.n_threads, omp.affinity,
                           omp.relaxed_consistency, omp.detect_races,
                           trace))
        if keyed is None:
            return None
        return _OmpTicket(self, *keyed, shared_map, omp, trace)


def _run_lifted(self, *args) -> None:
    """Always None; nothing in the package calls it.

    Kept only because the benchmark's traced layer table
    (``syncbench/tracing.py``) wraps ``run_lifted`` by name on each
    ticket class.  It goes with the next benchmark change, once that
    table drops it.
    """
    return None


class _Ticket:
    """One keyed launch: replay, or record after a miss."""

    __slots__ = ("disp", "key", "pre", "memory", "hit")

    def __init__(self, disp, key, pre, memory):
        self.disp = disp
        self.key = key
        self.pre = pre
        self.memory = memory
        self.hit = False

    def _lookup(self, room: int):
        """The recorded entry, or None (a miss) when there is none or
        its steps exceed ``room``."""
        entry = self.disp._get_entry(self.key)
        if entry is None or entry.steps > room:
            _C_MISS.add(1)
            return None
        self.hit = True
        _C_HIT.add(1)
        return entry

    def _store(self, result: tuple, steps: int, events: tuple) -> None:
        writes = {}
        for var, before in self.pre.items():
            after = self.memory[var].tobytes()
            if after != before:
                writes[var] = after
        entry = _Entry(writes, result, steps, events)
        if entry.nbytes <= self.disp.memory_cap:
            self.disp._put_entry(self.key, entry)


class _CudaTicket(_Ticket):
    """One keyed CUDA launch."""

    __slots__ = ("launch", "trace")

    def __init__(self, disp, key, pre, memory, launch, trace):
        super().__init__(disp, key, pre, memory)
        self.launch = launch
        self.trace = trace

    def replay(self, stats, budget) -> list[float] | None:
        """Apply a recorded launch, or None on miss."""
        entry = self._lookup(budget.remaining)
        if entry is None:
            return None
        block_cycles, stat_deltas = entry.result
        with obs_span("dispatch.replay", kind="cuda",
                      blocks=self.launch.grid_blocks):
            _apply_writes(entry.writes, self.memory)
            for name, delta in stat_deltas:
                setattr(stats, name, getattr(stats, name) + delta)
            budget.charge(entry.steps)
            if self.trace is not None:
                self.trace.events.extend(entry.events)
        return list(block_cycles)

    run_lifted = _run_lifted

    def record(self, block_cycles, stats, budget) -> None:
        """Store the completed launch for future replay (miss only)."""
        if self.hit:
            return
        stat_deltas = tuple((f.name, getattr(stats, f.name))
                            for f in _dc_fields(stats)
                            if getattr(stats, f.name))
        events = () if self.trace is None else tuple(self.trace.events)
        self._store((tuple(block_cycles), stat_deltas), budget.used,
                    events)


class _OmpTicket(_Ticket):
    """One keyed OpenMP region."""

    __slots__ = ("omp", "traced")

    def __init__(self, disp, key, pre, memory, omp, traced):
        super().__init__(disp, key, pre, memory)
        self.omp = omp
        self.traced = traced

    def replay(self):
        """Apply a recorded region; returns a ParallelResult or None."""
        entry = self._lookup(self.omp.max_steps)
        if entry is None:
            return None
        from repro.openmp.interpreter import ParallelResult
        from repro.openmp.trace import CpuTrace
        times, elapsed, barriers, requests = entry.result
        with obs_span("dispatch.replay", kind="omp"):
            memory = dict(self.memory)
            _apply_writes(entry.writes, memory)
        return ParallelResult(
            memory=memory,
            thread_times_ns=list(times),
            elapsed_ns=elapsed,
            races=[],
            barriers=barriers,
            requests=requests,
            trace=CpuTrace(list(entry.events)) if self.traced else None,
        )

    run_lifted = _run_lifted

    def record(self, result) -> None:
        """Store the completed region for future replay (miss only)."""
        if self.hit or result.races:
            return
        events = () if result.trace is None else tuple(result.trace.events)
        self._store((tuple(result.thread_times_ns), result.elapsed_ns,
                     result.barriers, result.requests),
                    self.omp.max_steps, events)


#: The process-wide dispatcher every interpreter shares.
DISPATCHER = Dispatcher()
