"""Cooperative interpreter for OpenMP parallel regions.

Thread bodies are generator functions taking a :class:`ThreadContext` and
yielding :mod:`repro.openmp.requests` objects.  The interpreter schedules
the team round-robin (deterministically), executes each request against
numpy-backed shared memory, charges its cost from the machine's cost
model, and feeds every access to the race detector.

Timing semantics: each thread carries a local clock (ns).  A request
advances the issuing thread's clock by the op's modeled cost.  A barrier
aligns all clocks to the team maximum plus the barrier cost — the paper's
"threads spend, on average, more time waiting for the other threads".

Memory semantics: plain stores land in a per-thread *store buffer* and
become visible to other threads only at a flush point (an explicit
``flush``, any atomic operation, a critical section, a lock operation, or
a barrier) — the relaxed consistency that makes ``#pragma omp flush``
meaningful (§II-A4: "the compiler and the hardware may reorder the
accesses ... memory fences prevent such reorderings").  A thread always
sees its own buffered stores.  Pass ``relaxed_consistency=False`` for a
sequentially consistent toy memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Mapping

import numpy as np

from repro.common.budget import StepBudget
from repro.common.datatypes import INT, DataType, dtype_of
from repro.common.errors import ConfigurationError, SimulationError
from repro.compiler.ops import PrimitiveKind
from repro.core.engine import fast_path_default
from repro.cpu.affinity import Affinity
from repro.cpu.machine import CpuMachine, CpuRunContext
from repro.openmp import requests as rq
from repro.openmp.fastpath import (
    ATOMIC_CAPTURE,
    ATOMIC_READ,
    ATOMIC_UPDATE,
    ATOMIC_WRITE,
    FLUSH,
    PLAIN_READ,
    PLAIN_UPDATE,
    make_cost_model,
    uniform_handlers,
)
from repro.openmp.race import AccessKind, RaceDetector, RaceReport
from repro.openmp.trace import CpuTrace
from repro.obs import attach_timeline
from repro.obs import span as obs_span
from repro.obs.metrics import _SUBSCRIBER as _metric_subscriber
from repro.obs.metrics import counter as _counter

# Observability counters (docs/observability.md), accumulated per region
# and flushed once at region end, so ``uniform_rounds + fallback_rounds
# == rounds`` holds by construction.
_C_UNIFORM = _counter("interp.omp.uniform_rounds")
_C_FALLBACK = _counter("interp.omp.fallback_rounds")
_C_ROUNDS = _counter("interp.omp.rounds")
_C_REGIONS_FAST = _counter("interp.omp.regions_fast")
_C_REGIONS_REFERENCE = _counter("interp.omp.regions_reference")

#: Walk item: the thread's generator finished during the gather.
_STOP = object()

#: Walk item: nothing was gathered for the thread this round.
_NOTHING = object()

_CRITICAL = PrimitiveKind.OMP_CRITICAL_UPDATE
_BARRIER = PrimitiveKind.OMP_BARRIER
_LOCK_ACQUIRE = PrimitiveKind.OMP_LOCK_ACQUIRE
_LOCK_RELEASE = PrimitiveKind.OMP_LOCK_RELEASE

#: Trace label of each op kind.
_TRACE_LABELS = {kind: kind.value.removeprefix("omp_")
                 for kind in PrimitiveKind}

#: A thread body: generator function yielding requests.
ThreadBody = Callable[["ThreadContext"], Generator]


class ThreadContext:
    """Per-thread handle passed to a thread body.

    Provides the thread's identity and sugar constructors for requests, so
    bodies read like OpenMP code::

        def body(tc):
            yield tc.atomic_update("hist", tc.tid % 4, lambda v: v + 1)
            yield tc.barrier()
            total = yield tc.atomic_read("hist", 0)
    """

    def __init__(self, tid: int, n_threads: int) -> None:
        self.tid = tid
        self.n_threads = n_threads

    # ----------------------------- sugar ------------------------------ #

    def barrier(self) -> rq.Barrier:
        """``#pragma omp barrier``."""
        return rq.Barrier()

    def flush(self) -> rq.Flush:
        """``#pragma omp flush``."""
        return rq.Flush()

    def read(self, var: str, idx: int) -> rq.Read:
        """Plain load of ``var[idx]``."""
        return rq.Read(var, idx)

    def write(self, var: str, idx: int, value: object) -> rq.Write:
        """Plain store to ``var[idx]``."""
        return rq.Write(var, idx, value)

    def atomic_read(self, var: str, idx: int) -> rq.AtomicRead:
        """``#pragma omp atomic read``."""
        return rq.AtomicRead(var, idx)

    def atomic_write(self, var: str, idx: int,
                     value: object) -> rq.AtomicWrite:
        """``#pragma omp atomic write``."""
        return rq.AtomicWrite(var, idx, value)

    def atomic_update(self, var: str, idx: int,
                      func: Callable[[object], object]) -> rq.AtomicUpdate:
        """``#pragma omp atomic update`` applying ``func``."""
        return rq.AtomicUpdate(var, idx, func)

    def atomic_capture(self, var: str, idx: int,
                       func: Callable[[object], object],
                       capture_old: bool = True) -> rq.AtomicCapture:
        """``#pragma omp atomic capture`` (old or new value)."""
        return rq.AtomicCapture(var, idx, func, capture_old=capture_old)

    def critical(self, func: Callable[[dict], object],
                 touches: tuple[tuple[str, int, bool], ...] = ()
                 ) -> rq.Critical:
        """``#pragma omp critical`` executing ``func(memory)``."""
        return rq.Critical(func, touches=touches)

    def lock_acquire(self, name: str = "lock") -> rq.LockAcquire:
        """``omp_set_lock(name)``."""
        return rq.LockAcquire(name)

    def lock_release(self, name: str = "lock") -> rq.LockRelease:
        """``omp_unset_lock(name)``."""
        return rq.LockRelease(name)

    def single(self, func: Callable[[dict], object],
               name: str = "single",
               touches: tuple[tuple[str, int, bool], ...] = ()
               ) -> rq.Single:
        """``#pragma omp single`` executing ``func`` once."""
        return rq.Single(name, func, touches)

    @property
    def is_master(self) -> bool:
        """``#pragma omp master``: true only on thread 0 (no implied
        barrier — pair with an explicit one when ordering matters)."""
        return self.tid == 0


@dataclass
class ParallelResult:
    """Outcome of one parallel region.

    Attributes:
        memory: The shared-memory mapping after the region (the same numpy
            arrays that were passed in, mutated in place).
        thread_times_ns: Final per-thread clocks.
        elapsed_ns: Region runtime (max thread clock, plus the implicit
            closing barrier).
        races: Data races found (empty unless ``raise_on_race=False``).
        barriers: Explicit barriers executed.
        requests: Total requests executed.
    """

    memory: dict[str, np.ndarray]
    thread_times_ns: list[float]
    elapsed_ns: float
    races: list[RaceReport] = field(default_factory=list)
    barriers: int = 0
    requests: int = 0
    trace: CpuTrace | None = None


class OpenMP:
    """An OpenMP runtime bound to a simulated CPU.

    Args:
        machine: The CPU to run on.
        n_threads: Team size (2 .. machine.max_threads).
        affinity: Thread placement policy.
        detect_races: Run the race detector (raises
            :class:`repro.common.errors.DataRaceError` on the first race).
        collect_races: Collect races into the result instead of raising.
        max_steps: Interpreter step budget (guards against runaway bodies).
        fast: Force content replay and batched uniform rounds on/off;
            ``None`` follows the process default (fast unless inside
            :func:`repro.core.engine.reference_engine`).  Both settings
            run the race detector and report the same races.
        lint: Opt-in static sanitizer check before each region.
            ``True`` or ``"error"`` raises
            :class:`~repro.common.errors.SanitizerError` when
            :mod:`repro.sanitize` reports an ERROR or WARNING for the
            thread body; ``"warn"`` emits a Python warning instead.
    """

    def __init__(self, machine: CpuMachine, n_threads: int,
                 affinity: Affinity = Affinity.DEFAULT,
                 detect_races: bool = True,
                 collect_races: bool = False,
                 relaxed_consistency: bool = True,
                 max_steps: int = 10_000_000,
                 fast: bool | None = None,
                 lint: bool | str = False) -> None:
        if n_threads < 1:
            raise ConfigurationError(
                f"need at least 1 thread, got {n_threads}")
        self.machine = machine
        self.n_threads = n_threads
        self.affinity = affinity
        self.detect_races = detect_races or collect_races
        self.collect_races = collect_races
        self.relaxed_consistency = relaxed_consistency
        self.max_steps = max_steps
        self.fast = fast_path_default() if fast is None else fast
        self.lint = lint
        # Resolve the placement now, so an oversubscribed team fails
        # here.  Each region resolves its context again
        # (:meth:`_context`): contexts key on the machine's current
        # parameter values, as the dispatcher's replay key does.
        self._context()

    def _context(self) -> CpuRunContext:
        # A 1-thread region is legal in the interpreter (unlike the
        # measurement sweeps, which start at 2): fall back to a 2-thread
        # placement context for costing, since costs are placement-based.
        return self.machine.context(max(self.n_threads, 2), self.affinity)

    # ------------------------------------------------------------------ #

    def parallel(self, body: ThreadBody,
                 shared: Mapping[str, np.ndarray] | None = None,
                 trace: bool = False) -> ParallelResult:
        """Run ``body`` on every thread of the team to completion.

        With ``fast`` enabled the region first goes to the dispatcher's
        content replay; a miss, and every ``fast=False`` region, runs
        the one region loop (:meth:`_run_region`), batched on a ``fast``
        runtime and gather-free otherwise.  Both settings produce
        identical results, race reports included.

        Args:
            body: Generator function over a :class:`ThreadContext`.
            shared: Shared arrays by name (mutated in place).
            trace: Record a per-request execution timeline in
                ``result.trace``.

        Raises:
            SanitizerError: when the runtime was built with
                ``lint=True``/``"error"`` and the static sanitizer
                reports a defect in ``body``.
        """
        if self.lint:
            from repro.sanitize import lint_kernel
            lint_kernel(body, "openmp", self.lint)
        with obs_span("omp.parallel", n_threads=self.n_threads,
                      path="fast" if self.fast else "reference"):
            # The dispatcher memoizes whole regions per (body, machine,
            # config, trace request, memory-contents) signature,
            # timeline included; replay hits skip the region loop
            # entirely.  ``detect_races`` is part of the configuration,
            # and a region that reports races is never recorded.
            ticket = None
            if self.fast:
                from repro.compiler.dispatcher import DISPATCHER
                ticket = DISPATCHER.begin_omp(self, body, shared, trace)
            result = ticket.replay() if ticket is not None else None
            if result is None:
                result = self._run_region(body, shared, trace)
            if ticket is not None:
                ticket.record(result)
        if result.trace is not None:
            attach_timeline("openmp", result.trace, "ns")
        return result

    def _run_region(self, body: ThreadBody,
                    shared: Mapping[str, np.ndarray] | None,
                    trace: bool) -> ParallelResult:
        """Run one region to completion: the one OpenMP region loop.

        Each round does one of two things.  On a batched runtime
        (``fast``) it gathers one send per runnable thread, and a round
        whose requests share one class with a handler in
        :mod:`repro.openmp.fastpath` (no thread finished, none waits on
        a lock) runs through that handler.  Every other round walks the
        thread slots in id order: lock-wait turns, threads that
        finished, barriers, singles and locks, and every other request
        through the per-request oracle :meth:`_execute`.  A
        ``fast=False`` runtime gathers nothing, so its walk sends each
        thread itself: the scalar reference sweep.
        """
        n = self.n_threads
        memory: dict[str, np.ndarray] = dict(shared or {})
        trace_obj = CpuTrace() if trace else None
        detector = RaceDetector(raise_on_race=not self.collect_races) \
            if self.detect_races else None
        region = _Region(self, memory, trace_obj, detector)
        clocks = region.clocks
        pending = region.pending
        held_locks = region.held_locks
        drain = region.drain
        sends = [body(ThreadContext(tid, n)).send for tid in range(n)]
        # Arrival key at a blocking construct: ("barrier", "") or
        # ("single", name); None while running.
        arrival: list[tuple[str, str] | None] = [None] * n
        single_requests: list[rq.Single | None] = [None] * n
        done = [False] * n
        barriers = 0
        budget = StepBudget(self.max_steps, hint="runaway thread body?")
        charge_step = budget.charge
        lock_holder: dict[str, int] = {}
        lock_wait: dict[int, str] = {}
        handler_of = uniform_handlers(region).get if self.fast else None

        def acquire(tid: int, name: str) -> None:
            lock_holder[name] = tid
            held_locks[tid].add(name)
            region.charge(tid, region.plain_cost(_LOCK_ACQUIRE),
                          _LOCK_ACQUIRE)

        def release_arrivals() -> None:
            """All active threads arrived at the same construct: run a
            single's body if applicable, then synchronize clocks."""
            nonlocal barriers
            barriers += 1
            keys = {arrival[t] for t in range(n) if not done[t]}
            assert len(keys) == 1
            key = keys.pop()
            assert key is not None
            for t in range(n):
                drain(t)
            if key[0] == "single":
                executor = min(t for t in range(n) if not done[t])
                request = single_requests[executor]
                assert request is not None
                region.record_touches(executor, request.touches)
                pending[executor] = request.func(memory)
            arrive_time = max(clocks)
            sync_time = arrive_time + region.plain_cost(_BARRIER)
            for t in range(n):
                if trace_obj is not None:
                    if clocks[t] < arrive_time:
                        trace_obj.add(t, "wait", clocks[t], arrive_time)
                    trace_obj.add(t, "barrier", arrive_time, sync_time)
                clocks[t] = sync_time
                arrival[t] = None
                single_requests[t] = None
            if detector is not None:
                detector.barrier()
            region.location_threads.clear()

        def handle(tid: int, request) -> None:
            """One request through the scalar sweep's control logic."""
            if isinstance(request, (rq.Barrier, rq.Single)):
                if isinstance(request, rq.Single):
                    arrival[tid] = ("single", request.name)
                    single_requests[tid] = request
                else:
                    arrival[tid] = ("barrier", "")
                if any(done):
                    raise SimulationError(
                        "barrier/single reached while some threads "
                        "already finished the region; every thread "
                        "must encounter the same constructs")
                keys = {arrival[t] for t in range(n) if not done[t]}
                if None not in keys:
                    if len(keys) > 1:
                        raise SimulationError(
                            "threads blocked at different "
                            f"synchronization constructs: {sorted(keys)}")
                    release_arrivals()
                return
            if isinstance(request, rq.LockAcquire):
                drain(tid)  # a lock operation is a flush point
                if request.name in lock_holder:
                    lock_wait[tid] = request.name
                else:
                    acquire(tid, request.name)
                return
            if isinstance(request, rq.LockRelease):
                if lock_holder.get(request.name) != tid:
                    raise SimulationError(
                        f"thread {tid} released lock "
                        f"{request.name!r} it does not hold")
                drain(tid)  # publish the critical section's stores
                del lock_holder[request.name]
                held_locks[tid].discard(request.name)
                region.charge(tid, region.plain_cost(_LOCK_RELEASE),
                              _LOCK_RELEASE)
                return
            if region.relaxed and not isinstance(request,
                                                 (rq.Read, rq.Write)):
                # Flushes, atomics, and critical sections are flush
                # points; plain accesses are not.
                drain(tid)
            pending[tid] = self._execute(region, request, tid)

        nothing = [_NOTHING] * n
        n_uniform = n_fallback = 0
        while not all(done):
            items = nothing
            if handler_of is not None:
                # Gather: one send per runnable thread, the budget
                # charged before each send as the scalar sweep does.
                items = [_NOTHING] * n
                tids: list[int] = []
                reqs: list[object] = []
                n_stop = 0
                for tid in range(n):
                    if done[tid] or arrival[tid] is not None \
                            or tid in lock_wait:
                        continue
                    charge_step()
                    try:
                        request = sends[tid](pending[tid])
                    except StopIteration:
                        items[tid] = _STOP
                        n_stop += 1
                        continue
                    pending[tid] = None
                    items[tid] = request
                    tids.append(tid)
                    reqs.append(request)
                if reqs and not n_stop and not lock_wait:
                    cls = reqs[0].__class__
                    handler = handler_of(cls)
                    if handler is not None:
                        for r in reqs:
                            if r.__class__ is not cls:
                                handler = None
                                break
                        if handler is not None:
                            handler(tids, reqs)
                            n_uniform += 1
                            continue

            # The walk: every thread slot in id order, acting on the
            # gathered item, or sending the thread itself when nothing
            # was gathered for it (always, on a fast=False runtime; after
            # a release earlier in this walk unblocked it, otherwise).
            n_fallback += 1
            progressed = False
            for tid in range(n):
                item = items[tid]
                if item is _NOTHING:
                    if done[tid]:
                        continue
                    if tid in lock_wait:
                        name = lock_wait[tid]
                        if name in lock_holder:
                            continue  # still held by someone else
                        # The lock freed up: acquire and resume.
                        del lock_wait[tid]
                        acquire(tid, name)
                        progressed = True
                        continue
                    if arrival[tid] is not None:
                        continue
                    charge_step()
                    try:
                        item = sends[tid](pending[tid])
                    except StopIteration:
                        item = _STOP
                    else:
                        pending[tid] = None
                progressed = True
                if item is not _STOP:
                    handle(tid, item)
                elif held_locks[tid]:
                    raise SimulationError(
                        f"thread {tid} finished while holding "
                        f"lock(s) {sorted(held_locks[tid])}")
                else:
                    done[tid] = True
            if not progressed:
                if lock_wait:
                    raise SimulationError(
                        f"lock deadlock: threads {sorted(lock_wait)} wait "
                        f"on locks {sorted(set(lock_wait.values()))} whose "
                        "holders cannot progress")
                raise SimulationError(
                    "deadlock: no thread can make progress")

        regions = _C_REGIONS_FAST if self.fast else _C_REGIONS_REFERENCE
        if _metric_subscriber[0] is None:
            # No recorder: direct increments keep the per-region flush
            # cheap next to a short region's own rounds.
            regions.value += 1
            _C_UNIFORM.value += n_uniform
            _C_FALLBACK.value += n_fallback
            _C_ROUNDS.value += n_uniform + n_fallback
        else:
            regions.add(1)
            if n_uniform:
                _C_UNIFORM.add(n_uniform)
            if n_fallback:
                _C_FALLBACK.add(n_fallback)
            if n_uniform or n_fallback:
                _C_ROUNDS.add(n_uniform + n_fallback)
        # Implicit barrier at region end: publish everything.
        for t in range(n):
            drain(t)
        elapsed = max(clocks) if clocks else 0.0
        elapsed += region.plain_cost(_BARRIER)
        return ParallelResult(
            memory=memory,
            thread_times_ns=clocks,
            elapsed_ns=elapsed,
            races=list(detector.races) if detector is not None else [],
            barriers=barriers,
            requests=budget.used,
            trace=trace_obj,
        )

    # ------------------------------------------------------------------ #

    def _execute(self, region: "_Region", request, tid: int) -> object:
        """Execute one non-barrier, non-lock request; returns the
        produced value.  The per-request oracle: every request of a
        round that no uniform handler runs comes here.

        A plain access of a thread holding a lock is lock-protected for
        the race detector.  Under relaxed consistency a plain write
        lands in the thread's store buffer, and a plain read sees that
        buffer first.
        """
        if isinstance(request, rq.Flush):
            region.charge(tid, region.plain_cost(FLUSH), FLUSH)
            return None
        if isinstance(request, rq.Critical):
            return self._execute_critical(region, request, tid)
        if not isinstance(request, rq.MemoryRequest):
            raise SimulationError(
                f"thread {tid} yielded a non-request: {request!r}")

        var, idx = request.var, request.idx
        flat = region.validate(tid, var, idx)
        dtype = getattr(request, "dtype", None)
        if dtype is None:
            dtype = region.dtype(var)
        hot = region.contended(var, idx, tid)
        locked = bool(region.held_locks[tid])
        # AtomicCapture extends AtomicUpdate; check the subclass first.
        if isinstance(request, rq.AtomicCapture):
            kind, access = ATOMIC_CAPTURE, AccessKind.ATOMIC_WRITE
        elif isinstance(request, rq.AtomicUpdate):
            kind, access = ATOMIC_UPDATE, AccessKind.ATOMIC_WRITE
        elif isinstance(request, rq.AtomicWrite):
            kind, access = ATOMIC_WRITE, AccessKind.ATOMIC_WRITE
        elif isinstance(request, rq.AtomicRead):
            kind, access = ATOMIC_READ, AccessKind.ATOMIC_READ
        elif isinstance(request, rq.Write):
            kind, access = PLAIN_UPDATE, AccessKind.LOCKED_WRITE \
                if locked else AccessKind.PLAIN_WRITE
        elif isinstance(request, rq.Read):
            kind, access = PLAIN_READ, AccessKind.LOCKED_READ \
                if locked else AccessKind.PLAIN_READ
        else:
            raise SimulationError(f"unknown request {request!r}")
        if region.record is not None:
            region.record(tid, var, idx, access)
        region.charge(tid, region.mem_cost(kind, dtype, hot), kind)

        buffer = region.store_buffers[tid] if region.relaxed else None
        if kind is PLAIN_READ:
            if buffer is not None and (var, idx) in buffer:
                return buffer[(var, idx)]
            return flat[idx].item()
        if kind is PLAIN_UPDATE:
            if buffer is not None:
                buffer[(var, idx)] = request.value
            else:
                flat[idx] = request.value
            return None
        if kind is ATOMIC_READ:
            return flat[idx].item()
        if kind is ATOMIC_WRITE:
            flat[idx] = request.value
            return None
        old = flat[idx].item()
        new = request.func(old)
        flat[idx] = new
        if kind is ATOMIC_UPDATE:
            return None
        return old if request.capture_old else new

    def _execute_critical(self, region: "_Region", request: rq.Critical,
                          tid: int) -> object:
        dtype = request.dtype or INT
        region.charge(tid, region.mem_cost(_CRITICAL, dtype, True),
                      _CRITICAL)
        region.record_touches(tid, request.touches)
        return request.func(region.memory)


class _Region:
    """The state of one running parallel region.

    Shared by the region loop (:meth:`OpenMP._run_region`), the
    per-request oracle (:meth:`OpenMP._execute`) and the uniform-round
    handlers (:func:`repro.openmp.fastpath.uniform_handlers`), so the
    validation, contention, charging and store-buffer rules below each
    have one definition.
    """

    __slots__ = ("memory", "clocks", "pending", "held_locks",
                 "store_buffers", "relaxed", "record", "trace",
                 "location_threads", "mem_cost", "plain_cost", "_flats",
                 "_dtypes")

    def __init__(self, omp: OpenMP, memory: dict[str, np.ndarray],
                 trace: CpuTrace | None,
                 detector: RaceDetector | None) -> None:
        n = omp.n_threads
        self.memory = memory
        self.clocks = [0.0] * n
        # The value sent into each thread's generator on its next step.
        self.pending: list[object] = [None] * n
        self.held_locks: list[set[str]] = [set() for _ in range(n)]
        # Per-thread store buffers (relaxed consistency): plain stores
        # sit here until the thread reaches a flush point.
        self.store_buffers: list[dict[tuple[str, int], object]] = \
            [{} for _ in range(n)]
        self.relaxed = omp.relaxed_consistency
        self.record = detector.record if detector is not None else None
        self.trace = trace
        # Which threads touched each location this epoch.
        self.location_threads: dict[tuple[str, int], set[int]] = {}
        self.mem_cost, self.plain_cost = make_cost_model(omp.machine,
                                                         omp._context())
        # Flat views and element types per variable: ``reshape(-1)``
        # allocates a fresh view per call, and ``memory`` is never
        # re-keyed mid-region.
        self._flats: dict[str, np.ndarray] = {}
        self._dtypes: dict[str, DataType] = {}

    def validate(self, tid: int, var: str, idx: int) -> np.ndarray:
        """The error contract of a memory access; returns the flat view
        of ``var``."""
        flat = self._flats.get(var)
        if flat is None:
            if var not in self.memory:
                raise SimulationError(
                    f"thread {tid} accessed undeclared shared variable "
                    f"{var!r}")
            flat = self._flats[var] = self.memory[var].reshape(-1)
        if not 0 <= idx < flat.size:
            raise SimulationError(
                f"thread {tid} accessed {var}[{idx}] out of bounds "
                f"(size {flat.size})")
        return flat

    def dtype(self, var: str) -> DataType:
        """The element type a (validated) variable is priced as."""
        dt = self._dtypes.get(var)
        if dt is None:
            dt = self._dtypes[var] = dtype_of(self.memory[var].dtype)
        return dt

    def contended(self, var: str, idx: int, tid: int) -> bool:
        """Note ``tid``'s access to ``var[idx]``: the location prices as
        a contended shared scalar once several threads touched it this
        epoch, otherwise as a private element on its own line."""
        touched = self.location_threads.get((var, idx))
        if touched is None:
            self.location_threads[(var, idx)] = {tid}
            return False
        touched.add(tid)
        return len(touched) > 1

    def charge(self, tid: int, cost: float, kind: PrimitiveKind) -> None:
        """Advance ``tid``'s clock by an op's ``cost``, tracing it."""
        clocks = self.clocks
        if self.trace is not None and cost > 0:
            self.trace.add(tid, _TRACE_LABELS[kind], clocks[tid],
                           clocks[tid] + cost)
        clocks[tid] += cost

    def drain(self, tid: int) -> None:
        """Publish a thread's buffered stores to shared memory."""
        buf = self.store_buffers[tid]
        if buf:
            flats = self._flats
            for (var, idx), value in buf.items():
                flats[var][idx] = value
            buf.clear()

    def record_touches(self, tid: int,
                       touches: tuple[tuple[str, int, bool], ...]) -> None:
        """Feed a critical's or single's declared accesses to the race
        detector, as lock-protected."""
        if self.record is not None:
            for var, idx, is_write in touches:
                self.record(tid, var, idx,
                            AccessKind.LOCKED_WRITE if is_write
                            else AccessKind.LOCKED_READ)
