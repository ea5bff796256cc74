"""Batched fast dispatch for the CUDA interpreter.

The scalar reference loop in :mod:`repro.cuda.interpreter` advances one
lane at a time: one ``isinstance`` chain, one cost lookup, and one
detector/trace check per lane per pass.  In every shipped kernel the
lanes of a warp almost always yield the *same* request type in a pass
(that is what SIMT means), so this module executes such **uniform
passes** as one batched operation over the whole warp:

* per-pass cost folding happens on arrays/sets instead of per-lane
  ``max`` reductions,
* memory traffic goes through one numpy gather/scatter instead of 32
  scalar loads/stores,
* atomic pricing is memoized on the observed issue pattern, and
* the ``trace``/``detector`` observability hooks are hoisted out of the
  inner loop entirely — disabled observability costs nothing.

Divergent (mixed-type) passes, out-of-bounds or undeclared accesses,
and mixed-variable atomic groups fall back to the reference pass
semantics (:meth:`Cuda._process_gathered`), so every error message,
stat, cost, and trace label is byte-identical to the scalar loop.  Race
detection needs to observe every access in program order, so a launch
with a detector delegates to the reference block runner outright.

The public ``interp.cuda.uniform_passes`` counter (:mod:`repro.obs`)
lets callers (the bench suite, CI smoke checks) assert that the batched
dispatcher actually ran — and that it did *not* run while timing the
reference path.  The module-level :data:`UNIFORM_PASSES` global is its
backward-compatible twin.
"""

from __future__ import annotations

import numpy as np

from repro.common.budget import StepBudget
from repro.common.datatypes import DTYPES, INT
from repro.compiler.ops import Op, PrimitiveKind, Scope
from repro.gpu.device import GpuRunContext
from repro.gpu.spec import WARP_SIZE, LaunchConfig
from repro.mem.layout import SharedScalar
from repro.cuda import requests as rq
from repro.cuda.interpreter import (
    _ATOMIC_KIND_OF,
    _BARRIER_KIND_OF,
    _COLLECTIVE_KIND_OF,
    _FENCE_KIND_OF,
    _BlockEnv,
    _Lane,
    _LaneState,
    KernelThread,
    LaunchStats,
)
from repro.cuda.race import GpuRaceDetector
from repro.cuda.trace import Trace
from repro.obs.metrics import _SUBSCRIBER as _metric_subscriber
from repro.obs.metrics import counter as _counter

#: Uniform warp passes executed by the batched dispatcher since import.
#: Monotonic; sample before/after a run to see whether it was used.
#: Kept for backward compatibility — new code should read the
#: ``interp.cuda.uniform_passes`` counter from :mod:`repro.obs` instead.
UNIFORM_PASSES = 0

# Observability counters (docs/observability.md).  Dispatch passes are
# accumulated locally per block and flushed once at block end; the
# invariant ``uniform_passes + fallback_passes == passes`` holds by
# construction.
_C_UNIFORM = _counter("interp.cuda.uniform_passes")
_C_FALLBACK = _counter("interp.cuda.fallback_passes")
_C_PASSES = _counter("interp.cuda.passes")
_C_BLOCKS_FAST = _counter("interp.cuda.blocks_fast")


def run_block_fast(cuda, kernel, launch: LaunchConfig, ctx: GpuRunContext,
                   block_idx: int, memory: dict[str, np.ndarray],
                   shared_decls: dict[str, tuple[int, np.dtype]],
                   stats: LaunchStats, budget: StepBudget,
                   trace: Trace | None = None,
                   detector: GpuRaceDetector | None = None) -> float:
    """Execute one block with batched uniform-pass dispatch.

    Mirrors :meth:`Cuda._run_block_reference` exactly — same
    ``LaunchResult`` fields, same errors — while dispatching uniform
    warp passes as single vectorized operations.
    """
    if detector is not None:
        # A race detector must observe every access in program order;
        # the reference loop *is* that order.  Fast dispatch brings
        # nothing once per-access recording dominates anyway.
        return cuda._run_block_reference(
            kernel, launch, ctx, block_idx, memory, shared_decls, stats,
            budget, trace, detector)

    global UNIFORM_PASSES
    params = cuda.device.params
    device = cuda.device
    alu_cycles = params.alu_cycles
    global_load_cycles = params.global_load_cycles
    uncoalesced = params.uncoalesced_penalty_cycles

    shared = {name: np.zeros(size, dtype=dt)
              for name, (size, dt) in shared_decls.items()}
    n = launch.block_threads
    warps: list[list[_Lane]] = []
    for wstart in range(0, n, WARP_SIZE):
        lanes = []
        for t in range(wstart, min(wstart + WARP_SIZE, n)):
            kt = KernelThread(t, block_idx, n, launch.grid_blocks)
            lanes.append(_Lane(gen=kernel(kt), lane_id=t - wstart))
        warps.append(lanes)
    warp_clocks = [0.0] * len(warps)
    env = _BlockEnv(block_idx=block_idx, detector=None)
    issuing_warps: dict[tuple[PrimitiveKind, str], set[int]] = {}
    resident_blocks = min(
        launch.grid_blocks,
        ctx.occ.active_sms * ctx.occ.blocks_per_sm_resident)

    RUNNING = _LaneState.RUNNING
    DONE = _LaneState.DONE
    BARRIER = _LaneState.BARRIER
    COLLECTIVE = _LaneState.COLLECTIVE

    total_lanes = sum(len(lanes) for lanes in warps)
    done_lanes = 0

    # Flat views of each variable, cached per run: ``reshape(-1)``
    # allocates a fresh view object per call, which the reference loop
    # pays once per lane.  The dicts are never re-keyed mid-launch, so
    # one view per variable is safe.
    global_flats: dict[str, np.ndarray] = {}
    shared_flats: dict[str, np.ndarray] = {}

    def flat_of(space_flats, space, var):
        flat = space_flats.get(var)
        if flat is None:
            arr = space.get(var)
            if arr is None:
                return None
            flat = arr.reshape(-1)
            space_flats[var] = flat
        return flat

    # Per-run cost memos: op_cost / dynamic_atomic_cost are pure in
    # their arguments (the device model carries no RNG), so one lookup
    # per distinct shape covers the whole block.
    op_cost_cache: dict[object, float] = {}
    atomic_cost_cache: dict[object, float] = {}

    def op_cost(kind: PrimitiveKind) -> float:
        c = op_cost_cache.get(kind)
        if c is None:
            c = device.op_cost(Op(kind=kind), ctx)
            op_cost_cache[kind] = c
        return c

    def atomic_cost(kind: PrimitiveKind, np_dtype, scope: Scope,
                    n_addresses: int, n_lanes: int, n_warps: int) -> float:
        key = (kind, np_dtype, scope, n_addresses, n_lanes, n_warps)
        c = atomic_cost_cache.get(key)
        if c is None:
            dtype = INT
            for dt in DTYPES:
                if dt.np_dtype == np_dtype:
                    dtype = dt
                    break
            op = Op(kind=kind, dtype=dtype, target=SharedScalar(dtype),
                    scope=scope)
            c = device.atomic_issue_cost(
                op, ctx, n_addresses=n_addresses, n_lanes=n_lanes,
                issuing_warps=n_warps, resident_blocks=resident_blocks)
            atomic_cost_cache[key] = c
        return c

    # ------------------------- uniform handlers ------------------------ #
    # Each takes the pass's live lanes and their requests — all of one
    # request class — as parallel lists, and returns (cost, label), or
    # None to fall back to the reference pass semantics (divergence in
    # var/scope, or an error case whose exact exception the reference
    # path must raise).

    def u_alu(glanes, reqs):
        return alu_cycles * max([r.n for r in reqs]), "Alu"

    def u_global_read(glanes, reqs):
        var = reqs[0].var
        flat = flat_of(global_flats, memory, var)
        if flat is None:
            return None
        for r in reqs:
            if r.var != var:
                return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        stats.global_accesses += len(idx)
        itemsize = flat.itemsize
        sectors = {i * itemsize // 32 for i in idx}
        cost = global_load_cycles
        if len(sectors) > 1:
            cost += uncoalesced * (len(sectors) - 1)
        for lane, value in zip(glanes, flat.take(idx).tolist()):
            lane.pending = value
        return cost, "GlobalRead"

    def u_global_write(glanes, reqs):
        var = reqs[0].var
        flat = flat_of(global_flats, memory, var)
        if flat is None:
            return None
        for r in reqs:
            if r.var != var:
                return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        stats.global_accesses += len(idx)
        itemsize = flat.itemsize
        sectors = {i * itemsize // 32 for i in idx}
        cost = global_load_cycles
        if len(sectors) > 1:
            cost += uncoalesced * (len(sectors) - 1)
        if len(set(idx)) == len(idx):
            np.put(flat, idx, [r.value for r in reqs])
        else:
            # Duplicate targets: lane order decides the survivor.
            for r in reqs:
                flat[r.idx] = r.value
        return cost, "GlobalWrite"

    def u_shared_read(glanes, reqs):
        var = reqs[0].var
        flat = flat_of(shared_flats, shared, var)
        if flat is None:
            return None
        for r in reqs:
            if r.var != var:
                return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        stats.shared_accesses += len(idx)
        for lane, value in zip(glanes, flat.take(idx).tolist()):
            lane.pending = value
        return alu_cycles, "SharedRead"

    def u_shared_write(glanes, reqs):
        var = reqs[0].var
        flat = flat_of(shared_flats, shared, var)
        if flat is None:
            return None
        for r in reqs:
            if r.var != var:
                return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        stats.shared_accesses += len(idx)
        if len(set(idx)) == len(idx):
            np.put(flat, idx, [r.value for r in reqs])
        else:
            for r in reqs:
                flat[r.idx] = r.value
        return alu_cycles, "SharedWrite"

    def u_syncwarp(glanes, reqs):
        stats.syncwarps += len(reqs)
        return op_cost(PrimitiveKind.SYNCWARP), "Syncwarp"

    def u_threadfence(glanes, reqs):
        stats.fences += len(reqs)
        cost = 0.0
        for r in reqs:
            c = op_cost(_FENCE_KIND_OF[r.scope])
            if c > cost:
                cost = c
        return cost, "Threadfence"

    def u_activemask(glanes, reqs):
        mask = 0
        for other in current_lanes[0]:
            if other.state is not DONE:
                mask |= 1 << other.lane_id
        for lane in glanes:
            lane.pending = mask
        return alu_cycles, "Activemask"

    def u_barrier(glanes, reqs):
        for lane, r in zip(glanes, reqs):
            lane.state = BARRIER
            lane.barrier_request = r
        return 0.0, ""

    def u_collective(glanes, reqs):
        for lane, r in zip(glanes, reqs):
            lane.state = COLLECTIVE
            lane.collective = r
        return 0.0, ""

    def u_atomic(glanes, reqs):
        first = reqs[0]
        cls = first.__class__
        var = first.var
        scope = first.scope
        for r in reqs:
            if r.var != var or r.scope is not scope:
                return None
        in_shared = var in shared
        if in_shared:
            flat = flat_of(shared_flats, shared, var)
        else:
            flat = flat_of(global_flats, memory, var)
        if flat is None:
            return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        n_lanes = len(idx)
        effective_scope = Scope.BLOCK if in_shared else scope
        if effective_scope is Scope.BLOCK:
            stats.block_atomics += n_lanes
        else:
            stats.global_atomics += n_lanes
        n_addresses = len(set(idx))

        if n_addresses == n_lanes:
            # All-distinct targets: one gather, one vectorized update,
            # one scatter.  Value lists keep native python types so
            # promotion/cast behaviour matches the scalar stores.
            idx_arr = np.array(idx, dtype=np.intp)
            old_arr = flat[idx_arr]
            olds = old_arr.tolist()
            if cls is rq.AtomicCas:
                values = np.asarray([r.value for r in reqs])
                compares = np.asarray([r.compare for r in reqs])
                new = np.where(old_arr == compares, values, old_arr)
            elif cls is rq.AtomicExch:
                new = np.asarray([r.value for r in reqs])
            else:
                values = np.asarray([r.value for r in reqs])
                if cls is rq.AtomicAdd:
                    new = old_arr + values
                elif cls is rq.AtomicSub:
                    new = old_arr - values
                elif cls is rq.AtomicMax:
                    new = np.maximum(old_arr, values)
                elif cls is rq.AtomicMin:
                    new = np.minimum(old_arr, values)
                elif cls is rq.AtomicAnd:
                    new = old_arr & values
                elif cls is rq.AtomicOr:
                    new = old_arr | values
                elif cls is rq.AtomicXor:
                    new = old_arr ^ values
                elif cls is rq.AtomicInc:
                    new = np.where(old_arr >= values, 0, old_arr + 1)
                elif cls is rq.AtomicDec:
                    new = np.where((old_arr == 0) | (old_arr > values),
                                   values, old_arr - 1)
                else:  # pragma: no cover - the kind map is exhaustive
                    return None
            flat[idx_arr] = new
            for lane, old in zip(glanes, olds):
                lane.pending = old
        elif cls in (rq.AtomicAdd, rq.AtomicSub) \
                and flat.dtype.kind in "iu":
            # Colliding integer add/sub (histogram bins): keep running
            # values in a dict so each unique address costs one numpy
            # load and one store instead of one per lane.  Memory is
            # exact for integers — wrap-around is modular, so deferring
            # the cast to the final store matches per-lane casts.
            running: dict[int, int] = {}
            get = running.get
            if cls is rq.AtomicAdd:
                for lane, r in zip(glanes, reqs):
                    i = r.idx
                    old = get(i)
                    if old is None:
                        old = flat[i].item()
                    lane.pending = old
                    running[i] = old + r.value
            else:
                for lane, r in zip(glanes, reqs):
                    i = r.idx
                    old = get(i)
                    if old is None:
                        old = flat[i].item()
                    lane.pending = old
                    running[i] = old - r.value
            for i, value in running.items():
                flat[i] = value
        else:
            # Colliding targets: lane order is the serialization order,
            # so apply scalar updates — but with the request class
            # dispatched once, outside the loop.
            if cls is rq.AtomicAdd:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = old + r.value
            elif cls is rq.AtomicSub:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = old - r.value
            elif cls is rq.AtomicMax:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = max(old, r.value)
            elif cls is rq.AtomicMin:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = min(old, r.value)
            elif cls is rq.AtomicAnd:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = old & r.value
            elif cls is rq.AtomicOr:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = old | r.value
            elif cls is rq.AtomicXor:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = old ^ r.value
            elif cls is rq.AtomicInc:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = 0 if old >= r.value else old + 1
            elif cls is rq.AtomicDec:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = r.value \
                        if (old == 0 or old > r.value) else old - 1
            elif cls is rq.AtomicCas:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    if old == r.compare:
                        flat[r.idx] = r.value
            elif cls is rq.AtomicExch:
                for lane, r in zip(glanes, reqs):
                    old = flat[r.idx].item()
                    lane.pending = old
                    flat[r.idx] = r.value
            else:  # pragma: no cover - the kind map is exhaustive
                return None

        kind = _ATOMIC_KIND_OF[cls]
        seen = issuing_warps.setdefault((kind, var), set())
        seen.add(warp_id_box[0])
        return atomic_cost(kind, flat.dtype, effective_scope, n_addresses,
                           n_lanes, len(seen)), cls.__name__

    # The atomic/activemask handlers need the current warp id / lane
    # list; one-slot boxes avoid re-binding closures per warp.
    warp_id_box = [0]
    current_lanes = [None]

    handlers = {
        rq.Alu: u_alu,
        rq.GlobalRead: u_global_read,
        rq.GlobalWrite: u_global_write,
        rq.SharedRead: u_shared_read,
        rq.SharedWrite: u_shared_write,
        rq.Syncwarp: u_syncwarp,
        rq.Threadfence: u_threadfence,
        rq.Activemask: u_activemask,
    }
    for barrier_cls in _BARRIER_KIND_OF:
        handlers[barrier_cls] = u_barrier
    for collective_cls in _COLLECTIVE_KIND_OF:
        handlers[collective_cls] = u_collective
    for atomic_cls in _ATOMIC_KIND_OF:
        handlers[atomic_cls] = u_atomic
    # Classes whose uniform pass can complete or conflict with a pending
    # warp collective (the reference loop re-checks after every pass;
    # for plain uniform passes the check is a no-op because the gathered
    # lanes are back to RUNNING).
    needs_collective_check = set(_BARRIER_KIND_OF) | set(_COLLECTIVE_KIND_OF)
    handlers_get = handlers.get

    def step_warp(warp_id, lanes):
        nonlocal done_lanes, barrier_waiting, n_fallback
        global UNIFORM_PASSES
        glanes = []
        reqs = []
        lane_append = glanes.append
        req_append = reqs.append
        n_steps = 0
        for lane in lanes:
            if lane.state is not RUNNING:
                continue
            n_steps += 1
            try:
                request = lane.gen.send(lane.pending)
            except StopIteration:
                lane.state = DONE
                done_lanes += 1
                continue
            lane.pending = None
            lane_append(lane)
            req_append(request)
        stepped = n_steps > 0
        if stepped:
            # One budget charge per pass: totals match the reference
            # exactly (it charges per lane for every send attempt,
            # including lanes that then finish).
            budget.charge(n_steps)

        if not reqs:
            collective = cuda._maybe_run_collective(warp_id, lanes, ctx,
                                                    stats)
            if collective is not None:
                return True, collective[0], collective[1]
            return stepped, 0.0, ""

        cls = reqs[0].__class__
        uniform = True
        for r in reqs:
            if r.__class__ is not cls:
                uniform = False
                break
        if uniform:
            handler = handlers_get(cls)
            if handler is not None:
                warp_id_box[0] = warp_id
                current_lanes[0] = lanes
                result = handler(glanes, reqs)
                if result is not None:
                    UNIFORM_PASSES += 1
                    cost, label = result
                    if cls in needs_collective_check:
                        if cls in _BARRIER_KIND_OF:
                            barrier_waiting = True
                        collective = cuda._maybe_run_collective(
                            warp_id, lanes, ctx, stats)
                        if collective is not None:
                            cost += collective[0]
                            label = label + "+" + collective[1] \
                                if label else collective[1]
                    return True, cost, label

        # Divergent pass (or an error/odd case): the reference
        # semantics are authoritative.
        n_fallback += 1
        cost, labels = cuda._process_gathered(
            warp_id, lanes, list(zip(glanes, reqs)), ctx, memory, shared,
            issuing_warps, resident_blocks, stats, env)
        for lane in glanes:
            if lane.state is BARRIER:
                barrier_waiting = True
                break
        collective = cuda._maybe_run_collective(warp_id, lanes, ctx, stats)
        if collective is not None:
            cost += collective[0]
            labels.append(collective[1])
        return True, cost, "+".join(labels)

    # ----------------------------- pass loop --------------------------- #

    barrier_waiting = False
    uniform_start = UNIFORM_PASSES
    n_fallback = 0

    while done_lanes < total_lanes:
        progressed = False
        for warp_id, lanes in enumerate(warps):
            stepped, cost, label = step_warp(warp_id, lanes)
            if cost > 0:
                if trace is not None:
                    trace.add(block_idx, warp_id, label,
                              warp_clocks[warp_id],
                              warp_clocks[warp_id] + cost)
                warp_clocks[warp_id] += cost
            progressed |= stepped
        if barrier_waiting:
            # Hoisted: the reference loop scans every lane for barrier
            # arrivals after every pass; here the scan only runs while
            # some lane actually waits at one.
            released = cuda._maybe_release_barrier(
                warps, warp_clocks, ctx, stats, trace, block_idx, env)
            if released:
                barrier_waiting = False
                progressed = True
        if not progressed:
            cuda._raise_deadlock(warps)
    n_uniform = UNIFORM_PASSES - uniform_start
    if _metric_subscriber[0] is None:
        # No recorder: direct increments keep the per-block flush
        # within the bench regression gate's noise floor.
        _C_BLOCKS_FAST.value += 1
        _C_UNIFORM.value += n_uniform
        _C_FALLBACK.value += n_fallback
        _C_PASSES.value += n_uniform + n_fallback
    else:
        _C_BLOCKS_FAST.add(1)
        if n_uniform:
            _C_UNIFORM.add(n_uniform)
        if n_fallback:
            _C_FALLBACK.add(n_fallback)
        if n_uniform or n_fallback:
            _C_PASSES.add(n_uniform + n_fallback)
    return max(warp_clocks) if warp_clocks else 0.0
