"""Uniform-round handlers and the price memo of the OpenMP region loop.

:meth:`repro.openmp.interpreter.OpenMP._run_region` is the one region
loop.  On a batched runtime (``fast``) each round first *sends* into
every runnable generator (thread bodies cannot observe shared memory
between yield points, so hoisting the sends out of the interleaved
sweep is invisible).  When every collected request is of one class
registered here, no thread finished and none waits on a lock — a
**uniform round** — the round runs through that class's handler, which
executes the requests in thread-id order with everything bound once per
region: memoized per-``(kind, dtype, contended)`` prices, cached flat
views and element types, and no ``isinstance`` chain, ``Op``
construction or trace check per request.

A handler applies exactly the per-request rules of
:meth:`OpenMP._execute`, through the same region helpers: validation,
contention classification, then the race-detector record, the charge
and the effect.  Every other round runs the per-request oracle, so
memory, clocks, elapsed time, barrier/request counts, trace events,
race reports and error messages match a ``fast=False`` region.
``tests/test_interpreter_fastpath.py`` and the differential fuzz suite
pin that down.
"""

from __future__ import annotations

from typing import Callable

from repro.compiler.ops import Op, PrimitiveKind
from repro.mem.layout import PrivateArrayElement, SharedScalar
from repro.openmp import requests as rq
from repro.openmp.race import AccessKind

#: A uniform-round handler: ``(tids, reqs)`` are the round's thread ids
#: in id order and their requests (parallel lists, one request class).
Handler = Callable[[list, list], None]


def make_cost_model(machine, ctx):
    """Memoized ``(mem_cost, plain_cost)`` closures for one region.

    ``mem_cost(kind, dtype, contended)`` prices a memory request against
    a contended :class:`SharedScalar` or a thread-private line-strided
    element.  ``plain_cost(kind)`` prices target-less ops (barriers,
    flushes, locks).
    """
    line = machine.topology.line_bytes
    mem_cost_cache: dict[tuple, float] = {}

    def mem_cost(kind: PrimitiveKind, dtype, contended: bool) -> float:
        # Keyed on values that hash in C: hashing the enum member or
        # the DataType dataclass (it holds an np.dtype) runs Python
        # code.  The dtype fields are the ones the cost model prices.
        key = (kind._value_, dtype.name, dtype.size_bytes,
               dtype.is_integer, contended)
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


PLAIN_READ = PrimitiveKind.PLAIN_READ
PLAIN_UPDATE = PrimitiveKind.PLAIN_UPDATE
ATOMIC_READ = PrimitiveKind.OMP_ATOMIC_READ
ATOMIC_WRITE = PrimitiveKind.OMP_ATOMIC_WRITE
ATOMIC_UPDATE = PrimitiveKind.OMP_ATOMIC_UPDATE
ATOMIC_CAPTURE = PrimitiveKind.OMP_ATOMIC_CAPTURE
FLUSH = PrimitiveKind.OMP_FLUSH
PLAIN_READ_ACCESS = AccessKind.PLAIN_READ
PLAIN_WRITE_ACCESS = AccessKind.PLAIN_WRITE
LOCKED_READ_ACCESS = AccessKind.LOCKED_READ
LOCKED_WRITE_ACCESS = AccessKind.LOCKED_WRITE
ATOMIC_READ_ACCESS = AccessKind.ATOMIC_READ
ATOMIC_WRITE_ACCESS = AccessKind.ATOMIC_WRITE


def uniform_handlers(region) -> dict[type, Handler]:
    """One region's uniform-round handlers, by request class.

    ``region`` is the loop's :class:`repro.openmp.interpreter._Region`;
    its helpers and state are bound once here, so the per-request loops
    touch only locals.
    """
    validate = region.validate
    contended = region.contended
    var_dtype = region.dtype
    record = region.record
    charge = region.charge
    mem_cost = region.mem_cost
    drain = region.drain
    pending = region.pending
    held_locks = region.held_locks
    store_buffers = region.store_buffers
    relaxed = region.relaxed

    def read(tids, reqs):
        for tid, r in zip(tids, reqs):
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            hot = contended(var, idx, tid)
            if record is not None:
                record(tid, var, idx, LOCKED_READ_ACCESS if held_locks[tid]
                       else PLAIN_READ_ACCESS)
            charge(tid, mem_cost(PLAIN_READ, var_dtype(var), hot),
                   PLAIN_READ)
            if relaxed:
                buf = store_buffers[tid]
                if buf and (var, idx) in buf:
                    pending[tid] = buf[(var, idx)]
                    continue
            pending[tid] = flat[idx].item()

    def write(tids, reqs):
        for tid, r in zip(tids, reqs):
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            hot = contended(var, idx, tid)
            if record is not None:
                record(tid, var, idx, LOCKED_WRITE_ACCESS if held_locks[tid]
                       else PLAIN_WRITE_ACCESS)
            charge(tid, mem_cost(PLAIN_UPDATE, var_dtype(var), hot),
                   PLAIN_UPDATE)
            if relaxed:
                store_buffers[tid][(var, idx)] = r.value
            else:
                flat[idx] = r.value

    def atomic_read(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            hot = contended(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_READ_ACCESS)
            charge(tid, mem_cost(ATOMIC_READ, dtype, hot), ATOMIC_READ)
            pending[tid] = flat[idx].item()

    def atomic_write(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            hot = contended(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_WRITE_ACCESS)
            charge(tid, mem_cost(ATOMIC_WRITE, dtype, hot), ATOMIC_WRITE)
            flat[idx] = r.value

    def atomic_update(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            hot = contended(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_WRITE_ACCESS)
            charge(tid, mem_cost(ATOMIC_UPDATE, dtype, hot), ATOMIC_UPDATE)
            flat[idx] = r.func(flat[idx].item())

    def atomic_capture(tids, reqs):
        for tid, r in zip(tids, reqs):
            if relaxed:
                drain(tid)
            var, idx = r.var, r.idx
            flat = validate(tid, var, idx)
            dtype = r.dtype if r.dtype is not None else var_dtype(var)
            hot = contended(var, idx, tid)
            if record is not None:
                record(tid, var, idx, ATOMIC_WRITE_ACCESS)
            charge(tid, mem_cost(ATOMIC_CAPTURE, dtype, hot),
                   ATOMIC_CAPTURE)
            old = flat[idx].item()
            new = r.func(old)
            flat[idx] = new
            pending[tid] = old if r.capture_old else new

    def flush(tids, reqs):
        cost = region.plain_cost(FLUSH)
        for tid in tids:
            if relaxed:
                drain(tid)
            charge(tid, cost, FLUSH)

    return {
        rq.Read: read,
        rq.Write: write,
        rq.AtomicRead: atomic_read,
        rq.AtomicWrite: atomic_write,
        rq.AtomicUpdate: atomic_update,
        rq.AtomicCapture: atomic_capture,
        rq.Flush: flush,
    }
