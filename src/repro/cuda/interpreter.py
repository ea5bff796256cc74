"""Warp-synchronous interpreter for CUDA kernels.

Kernels are generator functions taking a :class:`KernelThread`.  The
interpreter executes a launch the way the hardware would, at the fidelity
the paper's experiments need:

* **SIMT lockstep** — lanes of a warp advance one request per scheduling
  pass; the warp's clock advances by the most expensive request of the
  pass (instructions issue together; contention lives inside the costs).
* **Warp collectives** — shuffles/votes/reductions block until every live,
  non-barrier lane of the warp has yielded the same collective type, then
  execute across lanes (divergence around a collective is an error, as it
  is undefined behaviour on hardware).
* **Block barriers** — ``__syncthreads()`` aligns all warp clocks of the
  block; a lane finishing the kernel while others wait is an error.
* **Atomics** — executed against real numpy memory in lane order and
  priced by the atomic-unit model from the *observed* issue pattern
  (lanes issuing, distinct addresses, warps of the block seen issuing,
  resident blocks), including warp aggregation for commutative 32-bit
  integer atomics.
* **Device schedule** — blocks round-robin over SMs; each SM runs its
  blocks in occupancy-sized waves; per-block launch overhead is charged
  per block, which is exactly what the persistent-threads Reduction 5
  amortizes away.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Generator, Mapping

import numpy as np

from repro.common.budget import StepBudget
from repro.common.errors import SimulationError
from repro.compiler.ops import Op, PrimitiveKind, Scope
from repro.gpu.device import GpuDevice, GpuRunContext
from repro.gpu.spec import WARP_SIZE, LaunchConfig
from repro.cuda import requests as rq
from repro.cuda.race import GpuAccess, GpuRaceDetector
from repro.cuda.trace import Trace
from repro.obs import attach_timeline
from repro.obs import span as obs_span
from repro.obs.metrics import _SUBSCRIBER as _metric_subscriber
from repro.obs.metrics import counter as _counter

# Observability counters (docs/observability.md), accumulated per block
# and flushed once at block end, so ``uniform_passes + fallback_passes
# == passes`` holds by construction.
_C_UNIFORM = _counter("interp.cuda.uniform_passes")
_C_FALLBACK = _counter("interp.cuda.fallback_passes")
_C_PASSES = _counter("interp.cuda.passes")
_C_BLOCKS_FAST = _counter("interp.cuda.blocks_fast")
_C_BLOCKS_REFERENCE = _counter("interp.cuda.blocks_reference")

#: A kernel: generator function yielding requests.
Kernel = Callable[["KernelThread"], Generator]

_SYNCWARP_OP = Op(kind=PrimitiveKind.SYNCWARP)

_BARRIER_KIND_OF = {
    rq.Syncthreads: PrimitiveKind.SYNCTHREADS,
    rq.SyncthreadsCount: PrimitiveKind.SYNCTHREADS_COUNT,
    rq.SyncthreadsAnd: PrimitiveKind.SYNCTHREADS_AND,
    rq.SyncthreadsOr: PrimitiveKind.SYNCTHREADS_OR,
}

_COLLECTIVE_KIND_OF = {
    rq.ShflSync: PrimitiveKind.SHFL_SYNC,
    rq.ShflUpSync: PrimitiveKind.SHFL_UP_SYNC,
    rq.ShflDownSync: PrimitiveKind.SHFL_DOWN_SYNC,
    rq.ShflXorSync: PrimitiveKind.SHFL_XOR_SYNC,
    rq.VoteAll: PrimitiveKind.VOTE_ALL,
    rq.VoteAny: PrimitiveKind.VOTE_ANY,
    rq.Ballot: PrimitiveKind.VOTE_BALLOT,
    rq.MatchAnySync: PrimitiveKind.MATCH_ANY_SYNC,
    rq.MatchAllSync: PrimitiveKind.MATCH_ALL_SYNC,
    rq.ReduceMaxSync: PrimitiveKind.REDUCE_MAX_SYNC,
}


class KernelThread:
    """Per-thread handle passed to a kernel body.

    Mirrors the CUDA built-ins (``threadIdx.x`` etc., flattened to 1-D)
    plus sugar constructors for every request type.
    """

    __slots__ = ("threadIdx", "blockIdx", "blockDim", "gridDim")

    def __init__(self, thread_idx: int, block_idx: int, block_dim: int,
                 grid_dim: int) -> None:
        self.threadIdx = thread_idx
        self.blockIdx = block_idx
        self.blockDim = block_dim
        self.gridDim = grid_dim

    @property
    def global_id(self) -> int:
        """``threadIdx.x + blockIdx.x * blockDim.x``."""
        return self.threadIdx + self.blockIdx * self.blockDim

    @property
    def lane(self) -> int:
        """``threadIdx.x % warpSize``."""
        return self.threadIdx % WARP_SIZE

    @property
    def warp(self) -> int:
        """Warp index within the block."""
        return self.threadIdx // WARP_SIZE

    @property
    def total_threads(self) -> int:
        """``blockDim.x * gridDim.x`` (the persistent-threads stride)."""
        return self.blockDim * self.gridDim

    # ----------------------------- sugar ------------------------------ #

    def syncthreads(self) -> rq.Syncthreads:
        """``__syncthreads()``."""
        return rq.Syncthreads()

    def syncthreads_count(self, pred: bool) -> rq.SyncthreadsCount:
        """``__syncthreads_count(pred)``."""
        return rq.SyncthreadsCount(pred)

    def syncthreads_and(self, pred: bool) -> rq.SyncthreadsAnd:
        """``__syncthreads_and(pred)``."""
        return rq.SyncthreadsAnd(pred)

    def syncthreads_or(self, pred: bool) -> rq.SyncthreadsOr:
        """``__syncthreads_or(pred)``."""
        return rq.SyncthreadsOr(pred)

    def syncwarp(self) -> rq.Syncwarp:
        """``__syncwarp()``."""
        return rq.Syncwarp()

    def threadfence(self, scope: Scope = Scope.DEVICE) -> rq.Threadfence:
        """``__threadfence()`` / ``_block`` / ``_system`` by scope."""
        return rq.Threadfence(scope)

    def alu(self, n: int = 1) -> rq.Alu:
        """``n`` plain arithmetic instructions."""
        return rq.Alu(n)

    def global_read(self, var: str, idx: int) -> rq.GlobalRead:
        """Load ``var[idx]`` from global memory."""
        return rq.GlobalRead(var, idx)

    def global_write(self, var: str, idx: int, value) -> rq.GlobalWrite:
        """Store ``value`` to ``var[idx]`` in global memory."""
        return rq.GlobalWrite(var, idx, value)

    def shared_read(self, var: str, idx: int = 0) -> rq.SharedRead:
        """Load ``var[idx]`` from block-shared memory."""
        return rq.SharedRead(var, idx)

    def shared_write(self, var: str, idx: int, value) -> rq.SharedWrite:
        """Store ``value`` to ``var[idx]`` in shared memory."""
        return rq.SharedWrite(var, idx, value)

    def atomic_add(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicAdd:
        """``atomicAdd(&var[idx], value)``."""
        return rq.AtomicAdd(var, idx, scope, value)

    def atomic_sub(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicSub:
        """``atomicSub(&var[idx], value)``."""
        return rq.AtomicSub(var, idx, scope, value)

    def atomic_and(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicAnd:
        """``atomicAnd(&var[idx], value)``."""
        return rq.AtomicAnd(var, idx, scope, value)

    def atomic_or(self, var: str, idx: int, value,
                  scope: Scope = Scope.DEVICE) -> rq.AtomicOr:
        """``atomicOr(&var[idx], value)``."""
        return rq.AtomicOr(var, idx, scope, value)

    def atomic_xor(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicXor:
        """``atomicXor(&var[idx], value)``."""
        return rq.AtomicXor(var, idx, scope, value)

    def atomic_max(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicMax:
        """``atomicMax(&var[idx], value)``."""
        return rq.AtomicMax(var, idx, scope, value)

    def atomic_min(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicMin:
        """``atomicMin(&var[idx], value)``."""
        return rq.AtomicMin(var, idx, scope, value)

    def atomic_inc(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicInc:
        """``atomicInc(&var[idx], value)`` (wraps to 0 past value)."""
        return rq.AtomicInc(var, idx, scope, value)

    def atomic_dec(self, var: str, idx: int, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicDec:
        """``atomicDec(&var[idx], value)`` (wraps to value at 0)."""
        return rq.AtomicDec(var, idx, scope, value)

    def atomic_cas(self, var: str, idx: int, compare, value,
                   scope: Scope = Scope.DEVICE) -> rq.AtomicCas:
        """``atomicCAS(&var[idx], compare, value)``."""
        return rq.AtomicCas(var, idx, scope, compare, value)

    def atomic_exch(self, var: str, idx: int, value,
                    scope: Scope = Scope.DEVICE) -> rq.AtomicExch:
        """``atomicExch(&var[idx], value)``."""
        return rq.AtomicExch(var, idx, scope, value)

    def shfl_sync(self, value, src_lane: int) -> rq.ShflSync:
        """``__shfl_sync``: broadcast ``src_lane``'s value."""
        return rq.ShflSync(value, src_lane)

    def shfl_up_sync(self, value, delta: int) -> rq.ShflUpSync:
        """``__shfl_up_sync``: receive from lane - delta."""
        return rq.ShflUpSync(value, delta)

    def shfl_down_sync(self, value, delta: int) -> rq.ShflDownSync:
        """``__shfl_down_sync``: receive from lane + delta."""
        return rq.ShflDownSync(value, delta)

    def shfl_xor_sync(self, value, lane_mask: int) -> rq.ShflXorSync:
        """``__shfl_xor_sync``: butterfly exchange."""
        return rq.ShflXorSync(value, lane_mask)

    def all_sync(self, pred: bool) -> rq.VoteAll:
        """``__all_sync``: AND of all lanes' predicates."""
        return rq.VoteAll(pred)

    def any_sync(self, pred: bool) -> rq.VoteAny:
        """``__any_sync``: OR of all lanes' predicates."""
        return rq.VoteAny(pred)

    def ballot_sync(self, pred: bool) -> rq.Ballot:
        """``__ballot_sync``: mask of true predicates."""
        return rq.Ballot(pred)

    def match_any_sync(self, value) -> rq.MatchAnySync:
        """``__match_any_sync``: mask of equal-valued lanes."""
        return rq.MatchAnySync(value)

    def match_all_sync(self, value) -> rq.MatchAllSync:
        """``__match_all_sync``: full mask iff all equal."""
        return rq.MatchAllSync(value)

    def activemask(self) -> rq.Activemask:
        """``__activemask()``: mask of live lanes (no sync)."""
        return rq.Activemask()

    def reduce_max_sync(self, value) -> rq.ReduceMaxSync:
        """``__reduce_max_sync``: warp maximum (CC >= 8.0)."""
        return rq.ReduceMaxSync(value)


class _LaneState(enum.Enum):
    RUNNING = "running"
    BARRIER = "barrier"
    COLLECTIVE = "collective"
    DONE = "done"


@dataclass(slots=True)
class _Lane:
    gen: Generator
    lane_id: int
    state: _LaneState = _LaneState.RUNNING
    pending: object = None
    collective: rq.WarpCollective | None = None
    barrier_request: rq.Syncthreads | None = None


@dataclass
class _BlockEnv:
    """Per-block execution environment threaded through the scheduler."""

    block_idx: int
    epoch: int = 0
    detector: "GpuRaceDetector | None" = None


@dataclass
class LaunchStats:
    """Operation counts observed during one launch."""

    global_atomics: int = 0
    block_atomics: int = 0
    syncthreads: int = 0
    syncwarps: int = 0
    collectives: int = 0
    fences: int = 0
    global_accesses: int = 0
    shared_accesses: int = 0
    divergent_passes: int = 0


@dataclass
class LaunchResult:
    """Outcome of one kernel launch.

    Attributes:
        memory: Global memory after the launch (mutated in place).
        elapsed_cycles: Modeled kernel runtime in clock cycles.
        elapsed_ns: The same in nanoseconds at the device clock.
        block_cycles: Per-block modeled runtimes (without launch overhead).
        stats: Operation counts.
    """

    memory: dict[str, np.ndarray]
    elapsed_cycles: float
    elapsed_ns: float
    block_cycles: list[float] = field(default_factory=list)
    stats: LaunchStats = field(default_factory=LaunchStats)
    trace: Trace | None = None
    #: The detector that watched the launch (None when race detection
    #: was off).  Race reports are materialized lazily through
    #: :attr:`races` instead of being copied eagerly at construction.
    detector: GpuRaceDetector | None = field(default=None, repr=False)

    @property
    def races(self) -> list:
        """Race reports collected during the launch (lazy: built from
        the detector on access, empty when detection was off)."""
        if self.detector is None:
            return []
        return list(self.detector.races)

    @property
    def raced(self) -> bool:
        """True when the launch produced at least one race report."""
        return self.detector is not None and bool(self.detector.races)


class Cuda:
    """A CUDA runtime bound to a simulated GPU device.

    Args:
        device: The GPU to launch on.
        max_steps: Interpreter step budget per launch.
        fast: Force the batched fast dispatch on/off; ``None`` follows
            the process default (fast unless inside
            :func:`repro.core.engine.reference_engine`), the same switch
            that governs the measurement engine.
        lint: Opt-in static sanitizer check before each launch.
            ``True`` or ``"error"`` raises
            :class:`~repro.common.errors.SanitizerError` when
            :mod:`repro.sanitize` reports an ERROR or WARNING for the
            kernel; ``"warn"`` emits a Python warning instead.  The
            check is purely static (source-level) and memoized per
            kernel code object, so repeated launches pay nothing.
    """

    def __init__(self, device: GpuDevice, max_steps: int = 50_000_000,
                 detect_races: bool = False,
                 collect_races: bool = False,
                 fast: bool | None = None,
                 lint: bool | str = False) -> None:
        from repro.core.engine import fast_path_default
        self.device = device
        self.max_steps = max_steps
        self.detect_races = detect_races or collect_races
        self.collect_races = collect_races
        self.fast = fast_path_default() if fast is None else fast
        self.lint = lint

    def launch(self, kernel: Kernel, launch: LaunchConfig,
               globals_: Mapping[str, np.ndarray] | None = None,
               shared_decls: Mapping[str, tuple[int, np.dtype]] | None = None,
               trace: bool = False) -> LaunchResult:
        """Run ``kernel`` over the whole grid to completion.

        Args:
            kernel: Generator function over a :class:`KernelThread`.
            launch: Grid/block dimensions.
            globals_: Global-memory arrays by name (mutated in place).
            shared_decls: ``__shared__`` declarations per block, as
                ``name -> (n_elements, numpy dtype)``.
            trace: Record a per-warp-pass execution timeline in
                ``result.trace``.

        Raises:
            SimulationError: on deadlock, divergent collectives, barrier
                misuse, or step-budget exhaustion.
            SanitizerError: when the runtime was built with
                ``lint=True``/``"error"`` and the static sanitizer
                reports a defect in ``kernel``.
        """
        if self.lint:
            from repro.sanitize import lint_kernel
            lint_kernel(kernel, "cuda", self.lint)
        memory: dict[str, np.ndarray] = dict(globals_ or {})
        shared = dict(shared_decls or {})
        ctx = self.device.context(launch)
        stats = LaunchStats()
        budget = StepBudget(self.max_steps, hint="runaway kernel?")
        trace_obj = Trace() if trace else None
        detector = GpuRaceDetector(raise_on_race=not self.collect_races) \
            if self.detect_races else None

        with obs_span("cuda.launch", grid_blocks=launch.grid_blocks,
                      block_threads=launch.block_threads,
                      path="fast" if self.fast else "reference"):
            block_cycles: list[float] | None = None
            ticket = None
            # The dispatcher memoizes whole launches per (kernel,
            # machine, config, memory-contents) signature; it only
            # engages on the fast tier (byte-identical by contract) and
            # never when a trace or race detector needs to observe every
            # access.
            if self.fast and detector is None and trace_obj is None:
                from repro.compiler.dispatcher import DISPATCHER
                ticket = DISPATCHER.begin_cuda(self, kernel, launch,
                                               memory, shared)
            if ticket is not None:
                block_cycles = ticket.replay(stats, budget)
            if block_cycles is None:
                block_cycles = [
                    self._run_block(kernel, launch, ctx, block_idx,
                                    memory, dict(shared), stats, budget,
                                    trace_obj, detector)
                    for block_idx in range(launch.grid_blocks)]
            if ticket is not None:
                ticket.record(block_cycles, stats, budget)

            elapsed = self._schedule(launch, ctx, block_cycles)
        if trace_obj is not None:
            attach_timeline("cuda", trace_obj, "cycles")
        return LaunchResult(
            memory=memory,
            elapsed_cycles=elapsed,
            elapsed_ns=elapsed / self.device.clock_ghz,
            block_cycles=block_cycles,
            stats=stats,
            trace=trace_obj,
            detector=detector,
        )

    # ------------------------------------------------------------------ #

    def _schedule(self, launch: LaunchConfig, ctx: GpuRunContext,
                  block_cycles: list[float]) -> float:
        """Fold per-block runtimes into a kernel runtime.

        Blocks go round-robin over SMs; each SM runs its blocks in
        occupancy-sized waves (wave time = slowest resident block) and
        pays launch overhead per block.
        """
        params = self.device.params
        sm_count = self.device.spec.sm_count
        resident = ctx.occ.blocks_per_sm_resident
        per_sm: dict[int, list[float]] = {}
        for block_idx, cycles in enumerate(block_cycles):
            per_sm.setdefault(block_idx % sm_count, []).append(cycles)
        busiest = 0.0
        for blocks in per_sm.values():
            sm_time = params.block_launch_cycles * len(blocks)
            for start in range(0, len(blocks), resident):
                sm_time += max(blocks[start:start + resident])
            busiest = max(busiest, sm_time)
        return params.kernel_launch_cycles + busiest

    def _run_block(self, kernel: Kernel, launch: LaunchConfig,
                   ctx: GpuRunContext, block_idx: int,
                   memory: dict[str, np.ndarray],
                   shared_decls: dict[str, tuple[int, np.dtype]],
                   stats: LaunchStats, budget: StepBudget,
                   trace: Trace | None = None,
                   detector: GpuRaceDetector | None = None) -> float:
        """Execute one block to completion and return its modeled cycles.

        The one CUDA block scheduler.  Each round steps every warp by
        one pass: each running lane yields one request, the budget is
        charged once for the pass, and the pass executes one of two
        ways.  On a batched runtime (``fast``, and no race detector,
        which must see every access in program order) a pass whose
        lanes all yielded one request class goes to that class's
        handler in :mod:`repro.cuda.fastpath`.  Every other pass, and
        any pass a handler declines, runs the scalar pass semantics
        (:meth:`_process_gathered`): the oracle that ``fast=False``
        runs and the differential fuzz compares against.
        """
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
        env = _BlockEnv(block_idx=block_idx, detector=detector)
        # Warps of the block seen issuing each (atomic class, var):
        # drives the dynamic contention estimate.
        issuing_warps: dict[tuple[type, str], set[int]] = {}
        resident_blocks = min(
            launch.grid_blocks,
            ctx.occ.active_sms * ctx.occ.blocks_per_sm_resident)
        batched = self.fast and detector is None
        handler_of = {}.get
        uniform = None
        if batched:
            from repro.cuda.fastpath import UNIFORM_HANDLERS, UniformPasses
            handler_of = UNIFORM_HANDLERS.get
            uniform = UniformPasses(self, ctx, memory, shared, stats,
                                    issuing_warps, resident_blocks)

        RUNNING = _LaneState.RUNNING
        BARRIER = _LaneState.BARRIER
        done_lanes = 0
        barrier_waiting = False
        n_uniform = n_fallback = 0
        while done_lanes < n:
            progressed = False
            for warp_id, lanes in enumerate(warps):
                glanes: list[_Lane] = []
                reqs: list[rq.Request] = []
                n_steps = 0
                for lane in lanes:
                    if lane.state is not RUNNING:
                        continue
                    n_steps += 1
                    try:
                        request = lane.gen.send(lane.pending)
                    except StopIteration:
                        lane.state = _LaneState.DONE
                        done_lanes += 1
                        continue
                    lane.pending = None
                    glanes.append(lane)
                    reqs.append(request)
                if n_steps:
                    # One charge per pass: one step per send, lanes that
                    # finished included.
                    budget.charge(n_steps)
                    progressed = True

                cost = 0.0
                label = ""
                # A warp collective can only complete after a pass that
                # parked or retired lanes: after a plain uniform pass
                # every gathered lane runs on.
                check_collective = True
                if reqs:
                    cls = reqs[0].__class__
                    handler = handler_of(cls)
                    if handler is not None:
                        for r in reqs:
                            if r.__class__ is not cls:
                                handler = None
                                break
                    result = None if handler is None else \
                        handler(uniform, warp_id, lanes, glanes, reqs)
                    if result is not None:
                        n_uniform += 1
                        cost, label = result
                        if cls in _BARRIER_KIND_OF:
                            barrier_waiting = True
                        else:
                            check_collective = cls in _COLLECTIVE_KIND_OF
                    else:
                        n_fallback += 1
                        cost, labels = self._process_gathered(
                            warp_id, lanes, list(zip(glanes, reqs)), ctx,
                            memory, shared, issuing_warps, resident_blocks,
                            stats, env)
                        label = "+".join(labels)
                        for lane in glanes:
                            if lane.state is BARRIER:
                                barrier_waiting = True
                                break
                if check_collective:
                    collective = self._maybe_run_collective(
                        warp_id, lanes, ctx, stats)
                    if collective is not None:
                        progressed = True
                        cost += collective[0]
                        label = label + "+" + collective[1] if label \
                            else collective[1]
                if cost > 0:
                    if trace is not None:
                        trace.add(block_idx, warp_id, label,
                                  warp_clocks[warp_id],
                                  warp_clocks[warp_id] + cost)
                    warp_clocks[warp_id] += cost
            # Only scan for a barrier release while some lane waits at
            # one.
            if barrier_waiting and self._maybe_release_barrier(
                    warps, warp_clocks, ctx, stats, trace, block_idx, env):
                barrier_waiting = False
                progressed = True
            if not progressed:
                self._raise_deadlock(warps)

        blocks = _C_BLOCKS_FAST if batched else _C_BLOCKS_REFERENCE
        if _metric_subscriber[0] is None:
            # No recorder: direct increments keep the per-block flush
            # within the bench regression gate's noise floor.
            blocks.value += 1
            _C_UNIFORM.value += n_uniform
            _C_FALLBACK.value += n_fallback
            _C_PASSES.value += n_uniform + n_fallback
        else:
            blocks.add(1)
            if n_uniform:
                _C_UNIFORM.add(n_uniform)
            if n_fallback:
                _C_FALLBACK.add(n_fallback)
            if n_uniform or n_fallback:
                _C_PASSES.add(n_uniform + n_fallback)
        return max(warp_clocks) if warp_clocks else 0.0

    # ------------------------------------------------------------------ #

    def _process_gathered(self, warp_id: int, lanes: list[_Lane],
                          gathered: list[tuple[_Lane, rq.Request]],
                          ctx: GpuRunContext,
                          memory: dict[str, np.ndarray],
                          shared: dict[str, np.ndarray],
                          issuing_warps: dict[tuple[type, str], set[int]],
                          resident_blocks: int, stats: LaunchStats,
                          env: "_BlockEnv | None" = None
                          ) -> tuple[float, list[str]]:
        """Execute one pass's gathered (lane, request) pairs.

        The scalar pass semantics: every pass of a ``fast=False`` or
        race-detecting block, and every pass the batched handlers do not
        take (mixed request classes, or an error case), runs here.

        Returns:
            (cycle cost of the pass, sorted trace labels).
        """
        # SIMT: lanes that took the same path issue one instruction group
        # together; distinct groups within a pass serialize, plus a fixed
        # re-convergence overhead per extra group (branch divergence).
        group_costs: dict[object, float] = {}
        atomic_groups: dict[tuple[type, str, Scope],
                            list[tuple[_Lane, rq.AtomicRmw]]] = {}
        # 32-byte sectors touched by this pass's global accesses: a warp's
        # coalesced loads fetch one sector; scattered ones fetch many.
        global_sectors: dict[type, set[tuple[str, int]]] = {}
        for lane, request in gathered:
            if isinstance(request, rq.Syncthreads):
                lane.state = _LaneState.BARRIER
                lane.barrier_request = request
            elif isinstance(request, rq.Activemask):
                mask = 0
                for other in lanes:
                    if other.state is not _LaneState.DONE:
                        mask |= 1 << other.lane_id
                lane.pending = mask
                group_costs[rq.Activemask] = max(
                    group_costs.get(rq.Activemask, 0.0),
                    self.device.params.alu_cycles)
            elif isinstance(request, rq.WarpCollective):
                lane.state = _LaneState.COLLECTIVE
                lane.collective = request
            elif isinstance(request, rq.AtomicRmw):
                key = (type(request), request.var, request.scope)
                atomic_groups.setdefault(key, []).append((lane, request))
            else:
                if isinstance(request, (rq.GlobalRead, rq.GlobalWrite)):
                    arr = memory.get(request.var)
                    if arr is not None:
                        sector = request.idx * arr.itemsize // 32
                        global_sectors.setdefault(type(request), set()) \
                            .add((request.var, sector))
                simple_cost = self._execute_simple(
                    lane, request, ctx, memory, shared, stats,
                    warp_id=warp_id, env=env)
                key = type(request)
                group_costs[key] = max(group_costs.get(key, 0.0),
                                       simple_cost)
        # Coalescing: each extra sector beyond the first is one more
        # memory transaction for the warp.
        for req_type, sectors in global_sectors.items():
            if req_type in group_costs and len(sectors) > 1:
                group_costs[req_type] += \
                    self.device.params.uncoalesced_penalty_cycles \
                    * (len(sectors) - 1)
        for (req_type, var, scope), group in atomic_groups.items():
            group_costs[(req_type, var, scope)] = self._execute_atomics(
                warp_id, req_type, var, scope, group, ctx, memory, shared,
                issuing_warps, resident_blocks, stats, env)

        cost = sum(group_costs.values())
        labels = sorted(
            key.__name__ if isinstance(key, type) else key[0].__name__
            for key in group_costs)
        if len(group_costs) > 1:
            stats.divergent_passes += 1
            cost += self.device.params.divergence_cycles \
                * (len(group_costs) - 1)
        return cost, labels

    def _execute_simple(self, lane: _Lane, request: rq.Request,
                        ctx: GpuRunContext, memory: dict[str, np.ndarray],
                        shared: dict[str, np.ndarray],
                        stats: LaunchStats, warp_id: int = 0,
                        env: "_BlockEnv | None" = None) -> float:
        params = self.device.params

        def record(is_write: bool, space: str) -> None:
            if env is None or env.detector is None:
                return
            access = GpuAccess(
                block=env.block_idx,
                thread=warp_id * WARP_SIZE + lane.lane_id,
                is_write=is_write, is_atomic=False, epoch=env.epoch)
            if space == "global":
                env.detector.record_global(request.var, request.idx,
                                           access)
            else:
                env.detector.record_shared(env.block_idx, request.var,
                                           request.idx, access)
        if isinstance(request, rq.Alu):
            return params.alu_cycles * request.n
        if isinstance(request, rq.Syncwarp):
            stats.syncwarps += 1
            return self.device.op_cost(_SYNCWARP_OP, ctx)
        if isinstance(request, rq.Threadfence):
            stats.fences += 1
            return self.device.op_cost(rq.FENCE_OP_OF[request.scope], ctx)
        if isinstance(request, rq.GlobalRead):
            stats.global_accesses += 1
            lane.pending = self._load(memory, request, "global")
            record(is_write=False, space="global")
            return params.global_load_cycles
        if isinstance(request, rq.GlobalWrite):
            stats.global_accesses += 1
            self._store(memory, request, request.value, "global")
            record(is_write=True, space="global")
            return params.global_load_cycles
        if isinstance(request, rq.SharedRead):
            stats.shared_accesses += 1
            lane.pending = self._load(shared, request, "shared")
            record(is_write=False, space="shared")
            return params.alu_cycles
        if isinstance(request, rq.SharedWrite):
            stats.shared_accesses += 1
            record(is_write=True, space="shared")
            self._store(shared, request, request.value, "shared")
            return params.alu_cycles
        raise SimulationError(f"kernel yielded a non-request: {request!r}")

    def _execute_atomics(self, warp_id: int, req_type: type, var: str,
                         scope: Scope,
                         group: list[tuple[_Lane, rq.AtomicRmw]],
                         ctx: GpuRunContext, memory: dict[str, np.ndarray],
                         shared: dict[str, np.ndarray],
                         issuing_warps: dict[tuple[type, str], set[int]],
                         resident_blocks: int, stats: LaunchStats,
                         env: "_BlockEnv | None" = None) -> float:
        """Execute one warp-pass's atomics to one variable, in lane order,
        and price them from the observed issue pattern."""
        space = shared if var in shared else memory
        arr = space.get(var)
        if arr is None:
            raise SimulationError(f"atomic on undeclared variable {var!r}")
        flat = arr.reshape(-1)
        for _lane, request in group:
            if not 0 <= request.idx < flat.size:
                raise SimulationError(
                    f"atomic on {var}[{request.idx}] out of bounds "
                    f"(size {flat.size})")

        for lane, request in group:
            if env is not None and env.detector is not None:
                access = GpuAccess(
                    block=env.block_idx,
                    thread=warp_id * WARP_SIZE + lane.lane_id,
                    is_write=True, is_atomic=True, epoch=env.epoch)
                if space is shared:
                    env.detector.record_shared(env.block_idx, var,
                                               request.idx, access)
                else:
                    env.detector.record_global(var, request.idx, access)
            old = flat[request.idx].item()
            lane.pending = old
            flat[request.idx] = request.apply(old)

        return self._atomic_cost(
            warp_id, req_type, var, arr.dtype,
            Scope.BLOCK if space is shared else scope,
            len({request.idx for _l, request in group}), len(group), ctx,
            issuing_warps, resident_blocks, stats)

    def _atomic_cost(self, warp_id: int, req_type: type, var: str,
                     np_dtype: np.dtype, scope: Scope, n_addresses: int,
                     n_lanes: int, ctx: GpuRunContext,
                     issuing_warps: dict[tuple[type, str], set[int]],
                     resident_blocks: int, stats: LaunchStats) -> float:
        """Count and price one warp pass's atomics to ``var``.

        The price follows the observed issue pattern: ``n_lanes`` lanes
        on ``n_addresses`` distinct addresses, the warps of the block
        seen issuing this atomic on ``var`` so far, and the resident
        blocks.  ``scope`` is the effective one (``BLOCK`` for shared
        memory).  Both per-pass executors price atomics here.
        """
        if scope is Scope.BLOCK:
            stats.block_atomics += n_lanes
        else:
            stats.global_atomics += n_lanes
        seen = issuing_warps.setdefault((req_type, var), set())
        seen.add(warp_id)
        return self.device.atomic_issue_cost(
            rq.atomic_op(req_type, np_dtype, scope), ctx,
            n_addresses=n_addresses, n_lanes=n_lanes,
            issuing_warps=len(seen), resident_blocks=resident_blocks)

    # ------------------------------------------------------------------ #

    def _maybe_run_collective(self, warp_id: int, lanes: list[_Lane],
                              ctx: GpuRunContext, stats: LaunchStats
                              ) -> tuple[float, str] | None:
        """Run a warp collective once every live, non-barrier lane arrived.

        Returns:
            (cost, label) when a collective executed; None otherwise.
        """
        del warp_id
        participants = []
        still_running = False
        blocked_elsewhere = False
        for lane in lanes:
            state = lane.state
            if state is _LaneState.COLLECTIVE:
                participants.append(lane)
            elif state is _LaneState.RUNNING:
                still_running = True
            else:  # BARRIER or DONE
                blocked_elsewhere = True
        if not participants:
            return None
        if still_running:
            return None  # stragglers will arrive in a later pass
        if blocked_elsewhere:
            raise SimulationError(
                "divergent warp collective: some lanes yielded a "
                "collective while others hit a barrier or returned "
                "(undefined behaviour on hardware)")
        types = {type(lane.collective) for lane in participants}
        if len(types) != 1:
            raise SimulationError(
                f"lanes yielded different collectives in one step: "
                f"{sorted(t.__name__ for t in types)}")
        stats.collectives += len(participants)
        self._apply_collective(participants)
        first = participants[0].collective
        assert first is not None
        from repro.common.datatypes import DOUBLE, INT
        dtype = DOUBLE if isinstance(getattr(first, "value", 0), float) \
            else INT
        op = Op(kind=_COLLECTIVE_KIND_OF[type(first)], dtype=dtype)
        cost = self.device.op_cost(op, ctx)
        label = type(first).__name__
        for lane in participants:
            lane.state = _LaneState.RUNNING
            lane.collective = None
        return cost, label

    @staticmethod
    def _apply_collective(participants: list[_Lane]) -> None:
        """Compute each participating lane's result value."""
        first = participants[0].collective
        by_lane = {lane.lane_id: lane for lane in participants}
        max_lane = max(by_lane)

        def value_of(i: int):
            lane = by_lane.get(i)
            if lane is None or lane.collective is None:
                return None
            return getattr(lane.collective, "value", None)

        if isinstance(first, rq.ShflSync):
            for lane in participants:
                src = lane.collective.src_lane  # type: ignore[union-attr]
                lane.pending = value_of(src % (max_lane + 1))
        elif isinstance(first, rq.ShflUpSync):
            for lane in participants:
                delta = lane.collective.delta  # type: ignore[union-attr]
                src = lane.lane_id - delta
                lane.pending = value_of(src) if src >= 0 \
                    else lane.collective.value  # type: ignore[union-attr]
        elif isinstance(first, rq.ShflDownSync):
            for lane in participants:
                delta = lane.collective.delta  # type: ignore[union-attr]
                src = lane.lane_id + delta
                lane.pending = value_of(src) if src <= max_lane \
                    else lane.collective.value  # type: ignore[union-attr]
        elif isinstance(first, rq.ShflXorSync):
            for lane in participants:
                mask = lane.collective.lane_mask  # type: ignore[union-attr]
                src = lane.lane_id ^ mask
                lane.pending = value_of(src) if src in by_lane \
                    else lane.collective.value  # type: ignore[union-attr]
        elif isinstance(first, rq.VoteAll):
            result = all(lane.collective.pred  # type: ignore[union-attr]
                         for lane in participants)
            for lane in participants:
                lane.pending = result
        elif isinstance(first, rq.VoteAny):
            result = any(lane.collective.pred  # type: ignore[union-attr]
                         for lane in participants)
            for lane in participants:
                lane.pending = result
        elif isinstance(first, rq.Ballot):
            mask = 0
            for lane in participants:
                if lane.collective.pred:  # type: ignore[union-attr]
                    mask |= 1 << lane.lane_id
            for lane in participants:
                lane.pending = mask
        elif isinstance(first, rq.MatchAnySync):
            values = {lane.lane_id:
                      lane.collective.value  # type: ignore[union-attr]
                      for lane in participants}
            for lane in participants:
                mine = values[lane.lane_id]
                mask = 0
                for other_id, value in values.items():
                    if value == mine:
                        mask |= 1 << other_id
                lane.pending = mask
        elif isinstance(first, rq.MatchAllSync):
            values = [lane.collective.value  # type: ignore[union-attr]
                      for lane in participants]
            if len(set(values)) == 1:
                mask = 0
                for lane in participants:
                    mask |= 1 << lane.lane_id
            else:
                mask = 0
            for lane in participants:
                lane.pending = mask
        elif isinstance(first, rq.ReduceMaxSync):
            result = max(lane.collective.value  # type: ignore[union-attr]
                         for lane in participants)
            for lane in participants:
                lane.pending = result
        else:  # pragma: no cover - the kind map is exhaustive
            raise SimulationError(f"unknown collective {first!r}")

    def _maybe_release_barrier(self, warps: list[list[_Lane]],
                               warp_clocks: list[float], ctx: GpuRunContext,
                               stats: LaunchStats,
                               trace: Trace | None = None,
                               block_idx: int = 0,
                               env: "_BlockEnv | None" = None) -> bool:
        waiting = []
        n_live = 0
        n_total = 0
        for lanes in warps:
            for lane in lanes:
                n_total += 1
                state = lane.state
                if state is _LaneState.BARRIER:
                    waiting.append(lane)
                    n_live += 1
                elif state is not _LaneState.DONE:
                    n_live += 1
        if not waiting:
            return False
        if len(waiting) < n_live:
            return False
        if n_live < n_total:
            raise SimulationError(
                "__syncthreads() reached while some threads of the block "
                "already returned; every thread must hit the barrier")
        variants = {type(lane.barrier_request) for lane in waiting}
        if len(variants) != 1:
            raise SimulationError(
                "threads reached different __syncthreads*() variants: "
                f"{sorted(v.__name__ for v in variants)}")
        variant = variants.pop()
        stats.syncthreads += 1
        cost = self.device.op_cost(Op(kind=_BARRIER_KIND_OF[variant]), ctx)
        sync_time = max(warp_clocks) + cost
        for w in range(len(warp_clocks)):
            if trace is not None:
                trace.add(block_idx, w, variant.__name__,
                          warp_clocks[w], sync_time)
            warp_clocks[w] = sync_time
        if env is not None:
            env.epoch += 1
        result = self._barrier_value(variant, waiting)
        for lane in waiting:
            lane.state = _LaneState.RUNNING
            lane.pending = result
            lane.barrier_request = None
        return True

    @staticmethod
    def _barrier_value(variant: type, waiting: list[_Lane]):
        """Value produced by a predicate-reducing barrier (None for the
        plain __syncthreads())."""
        if variant is rq.Syncthreads:
            return None
        preds = [bool(lane.barrier_request.pred)  # type: ignore[union-attr]
                 for lane in waiting]
        if variant is rq.SyncthreadsCount:
            return sum(preds)
        if variant is rq.SyncthreadsAnd:
            return all(preds)
        if variant is rq.SyncthreadsOr:
            return any(preds)
        raise SimulationError(f"unknown barrier variant {variant}")

    @staticmethod
    def _load(space: dict[str, np.ndarray], request: rq.MemoryRequest,
              kind: str):
        arr = space.get(request.var)
        if arr is None:
            raise SimulationError(
                f"{kind} read of undeclared variable {request.var!r}")
        flat = arr.reshape(-1)
        if not 0 <= request.idx < flat.size:
            raise SimulationError(
                f"{kind} read of {request.var}[{request.idx}] out of "
                f"bounds (size {flat.size})")
        return flat[request.idx].item()

    @staticmethod
    def _store(space: dict[str, np.ndarray], request: rq.MemoryRequest,
               value, kind: str) -> None:
        arr = space.get(request.var)
        if arr is None:
            raise SimulationError(
                f"{kind} write of undeclared variable {request.var!r}")
        flat = arr.reshape(-1)
        if not 0 <= request.idx < flat.size:
            raise SimulationError(
                f"{kind} write of {request.var}[{request.idx}] out of "
                f"bounds (size {flat.size})")
        flat[request.idx] = value

    @staticmethod
    def _raise_deadlock(warps: list[list[_Lane]]) -> None:
        states = {}
        for lanes in warps:
            for lane in lanes:
                states[lane.state.value] = states.get(lane.state.value, 0) + 1
        raise SimulationError(f"kernel deadlock; lane states: {states}")
