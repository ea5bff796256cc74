"""Batched fast scheduler for the OpenMP interpreter.

The scalar reference scheduler in :mod:`repro.openmp.interpreter`
interleaves one send per thread per sweep and pays, for every request:
an ``isinstance`` chain, an :class:`~repro.compiler.ops.Op` construction
plus its dataclass hash, a dtype lookup over the type table, a cost
target allocation, and a trace/detector check.  This module keeps the
reference's exact scheduling semantics while removing that per-request
overhead:

* **Gather-then-execute rounds.**  Each round first *sends* into every
  runnable generator (thread bodies cannot observe shared memory between
  yield points, so hoisting the sends out of the interleaved sweep is
  invisible), then executes the collected requests in thread-id order —
  the reference's exact execution order.  A thread that finished is
  recorded as a sentinel and processed at its position in the walk so
  completion is observed exactly when the reference would observe it.
* **Uniform rounds.**  When every collected request is the same class of
  plain/atomic memory access (or flush) and no thread waits on a lock,
  the round is executed by one class-specialized handler: a single
  dispatch, memoized per-``(kind, dtype, contended)`` op costs, cached
  flat views and dtype lookups — instead of the per-request machinery.
* **Hoisted observability.**  The trace check is resolved once per
  region into the cost-charging closure, so ``trace=False`` costs
  nothing per request.  The race detector, when the runtime has one,
  sees every access: each uniform handler records it at the point
  where the reference does (after validation and contention
  classification, before the cost is charged), inline requests pass
  the detector to :meth:`OpenMP._execute`, and a completed
  ``single``/barrier feeds it in the reference's order — so the same
  races are collected, or the same first race is raised.

Mixed rounds, lock traffic, barriers/singles/criticals, and every error
case run through the same logic as the reference sweep (partly by
calling :meth:`OpenMP._execute` itself), so results — memory, clocks,
elapsed time, barrier/request counts, trace events, and error messages —
are identical.  ``tests/test_interpreter_fastpath.py`` and the
differential fuzz suite pin that down, race reports included.

The public ``interp.omp.uniform_rounds`` counter (:mod:`repro.obs`)
lets the bench suite and CI smoke checks assert the batched dispatcher
actually ran.  The module-level :data:`UNIFORM_ROUNDS` global is its
backward-compatible twin.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.common.budget import StepBudget
from repro.common.datatypes import INT, dtype_of
from repro.common.errors import SimulationError
from repro.compiler.ops import Op, PrimitiveKind
from repro.mem.layout import PrivateArrayElement, SharedScalar
from repro.openmp import requests as rq
from repro.openmp.interpreter import ParallelResult, ThreadContext
from repro.openmp.race import AccessKind, RaceDetector
from repro.openmp.trace import CpuTrace
from repro.obs.metrics import _SUBSCRIBER as _metric_subscriber
from repro.obs.metrics import counter as _counter

#: Uniform rounds executed by the batched scheduler since import.
#: Monotonic; sample before/after a run to see whether it was used.
#: Kept for backward compatibility — new code should read the
#: ``interp.omp.uniform_rounds`` counter from :mod:`repro.obs` instead.
UNIFORM_ROUNDS = 0

# Observability counters (docs/observability.md).  Scheduler rounds are
# accumulated locally per region and flushed once at region end; the
# invariant ``uniform_rounds + fallback_rounds == rounds`` holds by
# construction.
_C_UNIFORM = _counter("interp.omp.uniform_rounds")
_C_FALLBACK = _counter("interp.omp.fallback_rounds")
_C_ROUNDS = _counter("interp.omp.rounds")
_C_REGIONS_FAST = _counter("interp.omp.regions_fast")

#: Sentinel: the thread's generator finished this round (recorded during
#: the gather, acted upon at the thread's position in the walk).
_STOP = object()

#: Sentinel: the thread was not sendable during the gather.
_NOTHING = object()


def make_cost_model(machine, ctx):
    """Memoized ``(mem_cost, plain_cost)`` closures for one region.

    ``mem_cost(kind, dtype, contended)`` prices a memory request against
    a contended :class:`SharedScalar` or a thread-private line-strided
    element — the exact target selection of the reference scheduler's
    ``_cost_target``.  ``plain_cost(kind)`` prices target-less ops
    (barriers, flushes, locks).
    """
    line = machine.topology.line_bytes
    mem_cost_cache: dict[tuple, float] = {}

    def mem_cost(kind: PrimitiveKind, dtype, contended: bool) -> float:
        key = (kind, dtype, contended)
        c = mem_cost_cache.get(key)
        if c is None:
            target = SharedScalar(dtype) if contended else \
                PrivateArrayElement(dtype,
                                    stride=line // dtype.size_bytes)
            c = machine.op_cost(Op(kind=kind, dtype=dtype, target=target),
                                ctx)
            mem_cost_cache[key] = c
        return c

    plain_cost_cache: dict[PrimitiveKind, float] = {}

    def plain_cost(kind: PrimitiveKind) -> float:
        c = plain_cost_cache.get(kind)
        if c is None:
            c = machine.op_cost(Op(kind=kind), ctx)
            plain_cost_cache[kind] = c
        return c

    return mem_cost, plain_cost


def parallel_fast(omp, body, shared: Mapping[str, np.ndarray] | None = None,
                  trace: bool = False) -> ParallelResult:
    """Run a parallel region with batched uniform-round dispatch.

    Mirrors :meth:`OpenMP._parallel_reference` exactly — same memory
    effects, clocks, counters, trace, race reports, and errors (a
    raised :class:`~repro.common.errors.DataRaceError` included).
    Builds the runtime's race detector when ``omp.detect_races`` is set,
    collecting instead of raising under ``omp.collect_races``.
    """
    global UNIFORM_ROUNDS
    machine = omp.machine
    ctx = omp._ctx
    n = omp.n_threads
    relaxed = omp.relaxed_consistency

    memory: dict[str, np.ndarray] = dict(shared or {})
    trace_obj = CpuTrace() if trace else None
    detector = RaceDetector(raise_on_race=not omp.collect_races) \
        if omp.detect_races else None
    # Bound once: the uniform handlers test it per access.
    record = detector.record if detector is not None else None
    contexts = [ThreadContext(tid, n) for tid in range(n)]
    gens = [body(tc) for tc in contexts]
    sends = [g.send for g in gens]
    clocks = [0.0] * n
    pending: list[object] = [None] * n
    arrival: list[tuple[str, str] | None] = [None] * n
    single_requests: list[rq.Single | None] = [None] * n
    done = [False] * n
    barriers = 0
    budget = StepBudget(omp.max_steps, hint="runaway thread body?")
    charge_step = budget.charge
    location_threads: dict[tuple[str, int], set[int]] = {}
    lock_holder: dict[str, int] = {}
    held_locks: list[set[str]] = [set() for _ in range(n)]
    lock_wait: dict[int, str] = {}
    store_buffers: list[dict[tuple[str, int], object]] = \
        [{} for _ in range(n)]

    def drain(tid: int) -> None:
        buf = store_buffers[tid]
        if buf:
            for (var, idx), value in buf.items():
                flat_of(var)[idx] = value
            buf.clear()

    # ------------------------- memoized lookups ------------------------ #

    flats: dict[str, np.ndarray] = {}

    def flat_of(var):
        flat = flats.get(var)
        if flat is None:
            flat = memory[var].reshape(-1)
            flats[var] = flat
        return flat

    dtype_by_var: dict[str, object] = {}

    def var_dtype(var):
        dt = dtype_by_var.get(var)
        if dt is None:
            arr = memory.get(var)
            dt = INT if arr is None else dtype_of(arr.dtype)
            dtype_by_var[var] = dt
        return dt

    mem_cost, plain_cost = make_cost_model(machine, ctx)

    def classify(var: str, idx: int, tid: int) -> bool:
        """Contention classification, identical to ``_cost_target``."""
        touched = location_threads.setdefault((var, idx), set())
        touched.add(tid)
        return len(touched) > 1

    # Trace check hoisted out of the per-request path: the charging
    # closure is picked once per region.
    if trace_obj is None:
        def charge_cost(tid: int, cost: float, kind) -> None:
            clocks[tid] += cost
    else:
        labels: dict[PrimitiveKind, str] = {}

        def charge_cost(tid: int, cost: float, kind) -> None:
            if cost > 0:
                label = labels.get(kind)
                if label is None:
                    label = kind.value.removeprefix("omp_")
                    labels[kind] = label
                trace_obj.add(tid, label, clocks[tid], clocks[tid] + cost)
            clocks[tid] += cost

    def charge_op(tid: int, op: Op) -> None:
        """Reference-signature charge for the mixed/inline path."""
        cost = machine.op_cost(op, ctx)
        if trace_obj is not None and cost > 0:
            label = op.kind.value.removeprefix("omp_")
            trace_obj.add(tid, label, clocks[tid], clocks[tid] + cost)
        clocks[tid] += cost

    def validate(tid: int, var: str, idx: int):
        """Reference error contract for a memory access; returns flat."""
        if var not in memory:
            raise SimulationError(
                f"thread {tid} accessed undeclared shared variable {var!r}")
        flat = flat_of(var)
        if not 0 <= idx < flat.size:
            raise SimulationError(
                f"thread {tid} accessed {var}[{idx}] out of bounds "
                f"(size {flat.size})")
        return flat

    # ------------------------- uniform handlers ------------------------ #
    # One per simple request class; each executes the whole round's
    # requests in thread-id order (the reference's execution order),
    # with validation/cost/effect sequencing identical per entry.

    PLAIN_READ = PrimitiveKind.PLAIN_READ
    PLAIN_UPDATE = PrimitiveKind.PLAIN_UPDATE
    ATOMIC_READ = PrimitiveKind.OMP_ATOMIC_READ
    ATOMIC_WRITE = PrimitiveKind.OMP_ATOMIC_WRITE
    ATOMIC_UPDATE = PrimitiveKind.OMP_ATOMIC_UPDATE
    ATOMIC_CAPTURE = PrimitiveKind.OMP_ATOMIC_CAPTURE
    PLAIN_READ_ACCESS = AccessKind.PLAIN_READ
    PLAIN_WRITE_ACCESS = AccessKind.PLAIN_WRITE
    LOCKED_READ_ACCESS = AccessKind.LOCKED_READ
    LOCKED_WRITE_ACCESS = AccessKind.LOCKED_WRITE
    ATOMIC_READ_ACCESS = AccessKind.ATOMIC_READ
    ATOMIC_WRITE_ACCESS = AccessKind.ATOMIC_WRITE

    def u_read(tids, reqs):
        for tid, r in zip(tids, reqs):
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            contended = classify(var, idx, tid)
            if record is not None:
                record(tid, var, idx, LOCKED_READ_ACCESS if held_locks[tid]
                       else PLAIN_READ_ACCESS)
            charge_cost(tid, mem_cost(PLAIN_READ, var_dtype(var),
                                      contended), PLAIN_READ)
            if relaxed:
                buf = store_buffers[tid]
                if buf and (var, idx) in buf:
                    pending[tid] = buf[(var, idx)]
                    continue
            pending[tid] = flat[idx].item()

    def u_write(tids, reqs):
        for tid, r in zip(tids, reqs):
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            contended = classify(var, idx, tid)
            if record is not None:
                record(tid, var, idx, LOCKED_WRITE_ACCESS if held_locks[tid]
                       else PLAIN_WRITE_ACCESS)
            charge_cost(tid, mem_cost(PLAIN_UPDATE, var_dtype(var),
                                      contended), PLAIN_UPDATE)
            if relaxed:
                store_buffers[tid][(var, idx)] = r.value
            else:
                flat[idx] = r.value

    def u_atomic_read(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            contended = classify(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_READ_ACCESS)
            charge_cost(tid, mem_cost(ATOMIC_READ, dtype, contended),
                        ATOMIC_READ)
            pending[tid] = flat[idx].item()

    def u_atomic_write(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            contended = classify(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_WRITE_ACCESS)
            charge_cost(tid, mem_cost(ATOMIC_WRITE, dtype, contended),
                        ATOMIC_WRITE)
            flat[idx] = r.value

    def u_atomic_update(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            contended = classify(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_WRITE_ACCESS)
            charge_cost(tid, mem_cost(ATOMIC_UPDATE, dtype, contended),
                        ATOMIC_UPDATE)
            flat[idx] = r.func(flat[idx].item())

    def u_atomic_capture(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            contended = classify(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_WRITE_ACCESS)
            charge_cost(tid, mem_cost(ATOMIC_CAPTURE, dtype, contended),
                        ATOMIC_CAPTURE)
            old = flat[idx].item()
            new = r.func(old)
            flat[idx] = new
            pending[tid] = old if r.capture_old else new

    def u_flush(tids, reqs):
        cost = plain_cost(PrimitiveKind.OMP_FLUSH)
        for tid in tids:
            if relaxed:
                drain(tid)
            charge_cost(tid, cost, PrimitiveKind.OMP_FLUSH)

    handlers = {
        rq.Read: u_read,
        rq.Write: u_write,
        rq.AtomicRead: u_atomic_read,
        rq.AtomicWrite: u_atomic_write,
        rq.AtomicUpdate: u_atomic_update,
        rq.AtomicCapture: u_atomic_capture,
        rq.Flush: u_flush,
    }
    handlers_get = handlers.get

    # --------------------------- region loop --------------------------- #

    def release_arrivals() -> None:
        """Verbatim reference semantics for a completed barrier/single."""
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
            if record is not None:
                for var, idx, is_write in request.touches:
                    record(executor, var, idx,
                           LOCKED_WRITE_ACCESS if is_write
                           else LOCKED_READ_ACCESS)
            pending[executor] = request.func(memory)
        barrier_cost = plain_cost(PrimitiveKind.OMP_BARRIER)
        arrive_time = max(clocks)
        sync_time = arrive_time + barrier_cost
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
        location_threads.clear()

    def handle_inline(tid: int, request) -> None:
        """One request through the reference sweep's control logic."""
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
            drain(tid)
            if request.name in lock_holder:
                lock_wait[tid] = request.name
            else:
                lock_holder[request.name] = tid
                held_locks[tid].add(request.name)
                charge_op(tid, Op(kind=PrimitiveKind.OMP_LOCK_ACQUIRE))
            return
        if isinstance(request, rq.LockRelease):
            if lock_holder.get(request.name) != tid:
                raise SimulationError(
                    f"thread {tid} released lock "
                    f"{request.name!r} it does not hold")
            drain(tid)
            del lock_holder[request.name]
            held_locks[tid].discard(request.name)
            charge_op(tid, Op(kind=PrimitiveKind.OMP_LOCK_RELEASE))
            return
        if relaxed and not isinstance(request, (rq.Read, rq.Write)):
            drain(tid)
        buffer = store_buffers[tid] if relaxed else None
        pending[tid] = omp._execute(
            request, tid, memory, detector, location_threads, charge_op,
            locked=bool(held_locks[tid]), buffer=buffer)

    def finish(tid: int) -> None:
        """Reference handling of a generator that raised StopIteration."""
        if held_locks[tid]:
            raise SimulationError(
                f"thread {tid} finished while holding "
                f"lock(s) {sorted(held_locks[tid])}")
        done[tid] = True

    uniform_start = UNIFORM_ROUNDS
    n_fallback = 0
    while not all(done):
        # Gather: one send per runnable thread.  Bodies cannot observe
        # interpreter state between yields, so hoisting the sends out of
        # the interleaved sweep preserves the reference behavior; the
        # budget is still charged per send, before it, as the reference
        # does.
        items: list[object] = [_NOTHING] * n
        tids: list[int] = []
        reqs: list[object] = []
        n_stop = 0
        for tid in range(n):
            if done[tid] or arrival[tid] is not None or tid in lock_wait:
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

        # Uniform round: no completions, no lock traffic, one simple
        # request class — run the class-specialized batch handler.
        if reqs and not n_stop and not lock_wait:
            cls = reqs[0].__class__
            uniform = True
            for r in reqs:
                if r.__class__ is not cls:
                    uniform = False
                    break
            if uniform:
                handler = handlers_get(cls)
                if handler is not None:
                    handler(tids, reqs)
                    UNIFORM_ROUNDS += 1
                    continue

        # Mixed round: walk every thread slot in id order, replaying the
        # reference sweep (lock-wait turns, completion sentinels, and —
        # after a mid-walk barrier release — sends for threads that were
        # still blocked during the gather).
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
                        continue
                    del lock_wait[tid]
                    lock_holder[name] = tid
                    held_locks[tid].add(name)
                    charge_op(tid, Op(kind=PrimitiveKind.OMP_LOCK_ACQUIRE))
                    progressed = True
                    continue
                if arrival[tid] is not None:
                    continue
                # A release earlier in this walk unblocked the thread:
                # the reference sweep would reach and send it now.
                charge_step()
                try:
                    request = sends[tid](pending[tid])
                except StopIteration:
                    finish(tid)
                    progressed = True
                    continue
                pending[tid] = None
                progressed = True
                handle_inline(tid, request)
                continue
            if item is _STOP:
                finish(tid)
                progressed = True
                continue
            progressed = True
            handle_inline(tid, item)
        if not progressed:
            if lock_wait:
                raise SimulationError(
                    f"lock deadlock: threads {sorted(lock_wait)} wait "
                    f"on locks {sorted(set(lock_wait.values()))} whose "
                    "holders cannot progress")
            raise SimulationError(
                "deadlock: no thread can make progress")

    # Implicit barrier at region end: publish everything.
    n_uniform = UNIFORM_ROUNDS - uniform_start
    if _metric_subscriber[0] is None:
        # No recorder: direct increments keep the per-region flush
        # within the bench regression gate's noise floor.
        _C_REGIONS_FAST.value += 1
        _C_UNIFORM.value += n_uniform
        _C_FALLBACK.value += n_fallback
        _C_ROUNDS.value += n_uniform + n_fallback
    else:
        _C_REGIONS_FAST.add(1)
        if n_uniform:
            _C_UNIFORM.add(n_uniform)
        if n_fallback:
            _C_FALLBACK.add(n_fallback)
        if n_uniform or n_fallback:
            _C_ROUNDS.add(n_uniform + n_fallback)
    for t in range(n):
        drain(t)
    elapsed = max(clocks) if clocks else 0.0
    elapsed += plain_cost(PrimitiveKind.OMP_BARRIER)
    return ParallelResult(
        memory=memory,
        thread_times_ns=clocks,
        elapsed_ns=elapsed,
        races=list(detector.races) if detector is not None else [],
        barriers=barriers,
        requests=budget.used,
        trace=trace_obj,
    )
