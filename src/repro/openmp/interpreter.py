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
from repro.common.errors import ConfigurationError, SimulationError
from repro.compiler.ops import Op, PrimitiveKind
from repro.core.engine import fast_path_default
from repro.cpu.affinity import Affinity
from repro.cpu.machine import CpuMachine, CpuRunContext
from repro.mem.layout import PrivateArrayElement, SharedScalar
from repro.openmp import requests as rq
from repro.openmp.race import AccessKind, RaceDetector, RaceReport
from repro.openmp.trace import CpuTrace
from repro.obs import attach_timeline
from repro.obs import span as obs_span
from repro.obs.metrics import counter as _counter

#: Regions executed by the scalar reference scheduler (observability;
#: the fast scheduler's counterpart is ``interp.omp.regions_fast``).
_C_REGIONS_REFERENCE = _counter("interp.omp.regions_reference")

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
        fast: Force the batched fast scheduler on/off; ``None`` follows
            the process default (fast unless ``SYNCPERF_ENGINE=reference``
            or inside :func:`repro.core.engine.reference_engine`).  Both
            schedulers run the race detector and report the same races.
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
        # A 1-thread region is legal in the interpreter (unlike the
        # measurement sweeps, which start at 2): fall back to a 2-thread
        # placement context for costing, since costs are placement-based.
        self._ctx: CpuRunContext = machine.context(max(n_threads, 2),
                                                   affinity)

    # ------------------------------------------------------------------ #

    def parallel(self, body: ThreadBody,
                 shared: Mapping[str, np.ndarray] | None = None,
                 trace: bool = False) -> ParallelResult:
        """Run ``body`` on every thread of the team to completion.

        With ``fast`` enabled the region goes to the dispatcher's content
        replay, then to the batched fast scheduler
        (:func:`repro.openmp.fastpath.parallel_fast`), which feeds the
        race detector when one is active; the scalar reference scheduler
        below is authoritative and produces identical results, races
        included.

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
            if self.fast:
                # The dispatcher memoizes whole regions per (body,
                # machine, config, memory-contents) signature; replay
                # hits skip the scheduler entirely.  Identical replay
                # requires identical inputs, so a trace request opts
                # out (the timeline object cannot be replayed).
                ticket = None
                if not trace:
                    from repro.compiler.dispatcher import DISPATCHER
                    ticket = DISPATCHER.begin_omp(self, body, shared)
                result = ticket.replay() if ticket is not None else None
                if result is None:
                    from repro.openmp.fastpath import parallel_fast
                    result = parallel_fast(self, body, shared, trace)
                if ticket is not None:
                    ticket.record(result)
            else:
                result = self._parallel_reference(body, shared, trace)
        if result.trace is not None:
            attach_timeline("openmp", result.trace, "ns")
        return result

    def _parallel_reference(self, body: ThreadBody,
                            shared: Mapping[str, np.ndarray] | None = None,
                            trace: bool = False) -> ParallelResult:
        """The scalar reference scheduler (authoritative semantics)."""
        _C_REGIONS_REFERENCE.add(1)
        memory: dict[str, np.ndarray] = dict(shared or {})
        trace_obj = CpuTrace() if trace else None
        detector = RaceDetector(raise_on_race=not self.collect_races) \
            if self.detect_races else None
        contexts = [ThreadContext(tid, self.n_threads)
                    for tid in range(self.n_threads)]
        gens = [body(tc) for tc in contexts]
        clocks = [0.0] * self.n_threads
        pending_value: list[object] = [None] * self.n_threads
        # Arrival key at a blocking construct: ("barrier", "") or
        # ("single", name); None while running.
        arrival: list[tuple[str, str] | None] = [None] * self.n_threads
        single_requests: list[rq.Single | None] = [None] * self.n_threads
        done = [False] * self.n_threads
        barriers = 0
        budget = StepBudget(self.max_steps, hint="runaway thread body?")
        # Which threads touched each location (for contention costing).
        location_threads: dict[tuple[str, int], set[int]] = {}
        # Lock runtime state.
        lock_holder: dict[str, int] = {}
        held_locks: list[set[str]] = [set() for _ in range(self.n_threads)]
        lock_wait: dict[int, str] = {}
        # Per-thread store buffers (relaxed consistency): plain stores sit
        # here until the thread reaches a flush point.
        store_buffers: list[dict[tuple[str, int], object]] = \
            [{} for _ in range(self.n_threads)]

        def drain(tid: int) -> None:
            """Publish a thread's buffered stores to shared memory."""
            for (var, idx), value in store_buffers[tid].items():
                memory[var].reshape(-1)[idx] = value
            store_buffers[tid].clear()

        def charge(tid: int, op: Op) -> None:
            cost = self.machine.op_cost(op, self._ctx)
            if trace_obj is not None and cost > 0:
                label = op.kind.value.removeprefix("omp_")
                trace_obj.add(tid, label, clocks[tid],
                              clocks[tid] + cost)
            clocks[tid] += cost

        def release_arrivals() -> None:
            """All active threads arrived at the same construct: run a
            single's body if applicable, then synchronize clocks."""
            nonlocal barriers
            barriers += 1
            keys = {arrival[t] for t in range(self.n_threads)
                    if not done[t]}
            assert len(keys) == 1
            key = keys.pop()
            assert key is not None
            for t in range(self.n_threads):
                drain(t)
            if key[0] == "single":
                executor = min(t for t in range(self.n_threads)
                               if not done[t])
                request = single_requests[executor]
                assert request is not None
                for var, idx, is_write in request.touches:
                    self._record(detector, executor, var, idx,
                                 AccessKind.LOCKED_WRITE if is_write
                                 else AccessKind.LOCKED_READ)
                pending_value[executor] = request.func(memory)
            barrier_cost = self.machine.op_cost(
                Op(kind=PrimitiveKind.OMP_BARRIER), self._ctx)
            arrive_time = max(clocks)
            sync_time = arrive_time + barrier_cost
            for t in range(self.n_threads):
                if trace_obj is not None:
                    if clocks[t] < arrive_time:
                        trace_obj.add(t, "wait", clocks[t], arrive_time)
                    trace_obj.add(t, "barrier", arrive_time, sync_time)
                clocks[t] = sync_time
                arrival[t] = None
                single_requests[t] = None
            if detector is not None:
                detector.barrier()
            location_threads.clear()

        while not all(done):
            progressed = False
            for tid in range(self.n_threads):
                if done[tid] or arrival[tid] is not None:
                    continue
                if tid in lock_wait:
                    name = lock_wait[tid]
                    if name in lock_holder:
                        continue  # still held by someone else
                    # The lock freed up: acquire and resume the thread.
                    del lock_wait[tid]
                    lock_holder[name] = tid
                    held_locks[tid].add(name)
                    charge(tid, Op(kind=PrimitiveKind.OMP_LOCK_ACQUIRE))
                    progressed = True
                    continue
                budget.charge()
                try:
                    request = gens[tid].send(pending_value[tid])
                except StopIteration:
                    if held_locks[tid]:
                        raise SimulationError(
                            f"thread {tid} finished while holding "
                            f"lock(s) {sorted(held_locks[tid])}")
                    done[tid] = True
                    progressed = True
                    continue
                pending_value[tid] = None
                progressed = True
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
                    keys = {arrival[t] for t in range(self.n_threads)
                            if not done[t]}
                    if None not in keys:
                        if len(keys) > 1:
                            raise SimulationError(
                                "threads blocked at different "
                                f"synchronization constructs: "
                                f"{sorted(keys)}")
                        release_arrivals()
                    continue
                if isinstance(request, rq.LockAcquire):
                    drain(tid)  # a lock operation is a flush point
                    if request.name in lock_holder:
                        lock_wait[tid] = request.name
                    else:
                        lock_holder[request.name] = tid
                        held_locks[tid].add(request.name)
                        charge(tid, Op(kind=PrimitiveKind.OMP_LOCK_ACQUIRE))
                    continue
                if isinstance(request, rq.LockRelease):
                    if lock_holder.get(request.name) != tid:
                        raise SimulationError(
                            f"thread {tid} released lock "
                            f"{request.name!r} it does not hold")
                    drain(tid)  # publish the critical section's stores
                    del lock_holder[request.name]
                    held_locks[tid].discard(request.name)
                    charge(tid, Op(kind=PrimitiveKind.OMP_LOCK_RELEASE))
                    continue
                if self.relaxed_consistency and not isinstance(
                        request, (rq.Read, rq.Write)):
                    # Flushes, atomics, and critical sections are flush
                    # points; plain accesses are not.
                    drain(tid)
                buffer = store_buffers[tid] if self.relaxed_consistency \
                    else None
                pending_value[tid] = self._execute(
                    request, tid, memory, detector, location_threads,
                    charge, locked=bool(held_locks[tid]), buffer=buffer)
            if not progressed:
                if lock_wait:
                    raise SimulationError(
                        f"lock deadlock: threads {sorted(lock_wait)} wait "
                        f"on locks {sorted(set(lock_wait.values()))} whose "
                        "holders cannot progress")
                raise SimulationError(
                    "deadlock: no thread can make progress")

        # Implicit barrier at region end: publish everything.
        for t in range(self.n_threads):
            drain(t)
        elapsed = max(clocks) if clocks else 0.0
        elapsed += self.machine.op_cost(
            Op(kind=PrimitiveKind.OMP_BARRIER), self._ctx)
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

    def _cost_target(self, var: str, idx: int, dtype,
                     location_threads: dict[tuple[str, int], set[int]],
                     tid: int):
        """Classify a location for costing: contended scalar if several
        threads have touched it this epoch, otherwise a private element on
        its own line."""
        touched = location_threads.setdefault((var, idx), set())
        touched.add(tid)
        if len(touched) > 1:
            return SharedScalar(dtype)
        line = self.machine.topology.line_bytes
        return PrivateArrayElement(dtype, stride=line // dtype.size_bytes)

    @staticmethod
    def _dtype_of(request, memory: dict[str, np.ndarray], var: str):
        if getattr(request, "dtype", None) is not None:
            return request.dtype
        from repro.common.datatypes import DTYPES, INT
        arr = memory.get(var)
        if arr is not None:
            for dt in DTYPES:
                if dt.np_dtype == arr.dtype:
                    return dt
        return INT

    def _execute(self, request, tid: int, memory: dict[str, np.ndarray],
                 detector: RaceDetector | None,
                 location_threads: dict[tuple[str, int], set[int]],
                 charge, locked: bool = False,
                 buffer: dict[tuple[str, int], object] | None = None
                 ) -> object:
        """Execute one non-barrier request; returns the produced value.

        Args:
            locked: The thread holds at least one lock, so its plain
                accesses are lock-protected for the race detector.
            buffer: The thread's store buffer under relaxed consistency
                (plain writes land here; plain reads see it first).
        """
        if isinstance(request, rq.Flush):
            charge(tid, Op(kind=PrimitiveKind.OMP_FLUSH))
            return None
        if isinstance(request, rq.Critical):
            return self._execute_critical(request, tid, memory, detector,
                                          charge)
        if not isinstance(request, rq.MemoryRequest):
            raise SimulationError(
                f"thread {tid} yielded a non-request: {request!r}")

        var, idx = request.var, request.idx
        if var not in memory:
            raise SimulationError(
                f"thread {tid} accessed undeclared shared variable {var!r}")
        arr = memory[var]
        if not 0 <= idx < arr.size:
            raise SimulationError(
                f"thread {tid} accessed {var}[{idx}] out of bounds "
                f"(size {arr.size})")
        dtype = self._dtype_of(request, memory, var)
        target = self._cost_target(var, idx, dtype, location_threads, tid)
        flat = arr.reshape(-1)

        # AtomicCapture extends AtomicUpdate; check the subclass first.
        if isinstance(request, rq.AtomicCapture):
            self._record(detector, tid, var, idx, AccessKind.ATOMIC_WRITE)
            charge(tid, Op(kind=PrimitiveKind.OMP_ATOMIC_CAPTURE,
                           dtype=dtype, target=target))
            old = flat[idx].item()
            new = request.func(old)
            flat[idx] = new
            return old if request.capture_old else new
        if isinstance(request, rq.AtomicUpdate):
            self._record(detector, tid, var, idx, AccessKind.ATOMIC_WRITE)
            charge(tid, Op(kind=PrimitiveKind.OMP_ATOMIC_UPDATE,
                           dtype=dtype, target=target))
            flat[idx] = request.func(flat[idx].item())
            return None
        if isinstance(request, rq.AtomicWrite):
            self._record(detector, tid, var, idx, AccessKind.ATOMIC_WRITE)
            charge(tid, Op(kind=PrimitiveKind.OMP_ATOMIC_WRITE,
                           dtype=dtype, target=target))
            flat[idx] = request.value
            return None
        if isinstance(request, rq.AtomicRead):
            self._record(detector, tid, var, idx, AccessKind.ATOMIC_READ)
            charge(tid, Op(kind=PrimitiveKind.OMP_ATOMIC_READ,
                           dtype=dtype, target=target))
            return flat[idx].item()
        if isinstance(request, rq.Write):
            self._record(detector, tid, var, idx,
                         AccessKind.LOCKED_WRITE if locked
                         else AccessKind.PLAIN_WRITE)
            charge(tid, Op(kind=PrimitiveKind.PLAIN_UPDATE,
                           dtype=dtype, target=target))
            if buffer is not None:
                buffer[(var, idx)] = request.value
            else:
                flat[idx] = request.value
            return None
        if isinstance(request, rq.Read):
            self._record(detector, tid, var, idx,
                         AccessKind.LOCKED_READ if locked
                         else AccessKind.PLAIN_READ)
            charge(tid, Op(kind=PrimitiveKind.PLAIN_READ,
                           dtype=dtype, target=target))
            if buffer is not None and (var, idx) in buffer:
                return buffer[(var, idx)]
            return flat[idx].item()
        raise SimulationError(f"unknown request {request!r}")

    def _execute_critical(self, request: rq.Critical, tid: int,
                          memory: dict[str, np.ndarray],
                          detector: RaceDetector | None, charge) -> object:
        from repro.common.datatypes import INT
        dtype = request.dtype or INT
        charge(tid, Op(kind=PrimitiveKind.OMP_CRITICAL_UPDATE, dtype=dtype,
                       target=SharedScalar(dtype)))
        for var, idx, is_write in request.touches:
            self._record(detector, tid, var, idx,
                         AccessKind.LOCKED_WRITE if is_write
                         else AccessKind.LOCKED_READ)
        return request.func(memory)

    @staticmethod
    def _record(detector: RaceDetector | None, tid: int, var: str, idx: int,
                kind: AccessKind) -> None:
        if detector is not None:
            detector.record(tid, var, idx, kind)
