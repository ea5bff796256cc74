"""Cooperative multi-GPU runtime: grid-wide and cross-device sync.

Extends the single-device kernel interpreter's programming model to N
devices behind an interconnect, at the fidelity the multi-GPU scenario
family needs:

* **Cooperative launch** — every device runs the same kernel over the
  same per-device grid; ``grid.sync()`` rendezvouses the blocks of one
  device, ``multi_grid.sync()`` rendezvouses every thread on every
  device (and publishes pending system writes, like the multi-grid
  cooperative groups barrier).
* **System memory with real visibility semantics** — system arrays are
  host/peer-visible; a device's plain ``system_write`` is buffered in
  that device's write queue and becomes visible to peers only when the
  device *publishes*: a ``threadfence(Scope.SYSTEM)``, a
  ``multi_grid.sync()``, or kernel completion.  A device-scope fence
  does **not** publish — which is exactly the seeded defect the
  cross-device sync-scope sanitizer rule flags: a flag handshake guarded
  by ``threadfence(Scope.DEVICE)`` observably hands peers stale data.
* **System-scope atomics** — relaxed cross-device RMWs on the canonical
  system array: the atomic itself is immediately coherent to peers, but
  earlier plain writes stay buffered until a system fence orders them
  (CUDA's relaxed atomics imply no release).  Device-scope atomics on
  system memory stay in the issuing device's buffered view: atomic
  within the device, invisible across it, as on hardware.
* **Timing** — per-device clocks advance by
  :class:`repro.gpu.multi.MultiGpu` prices (device-scope ops at
  single-device cost, link-crossing ops with interconnect latency);
  barriers align clocks; the launch time is the slowest device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Mapping

import numpy as np

from repro.common.budget import StepBudget
from repro.common.errors import SimulationError
from repro.compiler.ops import Op, PrimitiveKind, Scope
from repro.gpu.multi import MultiGpu, MultiGpuRunContext
from repro.gpu.spec import LaunchConfig
from repro.cuda import requests as rq
from repro.cuda.interpreter import KernelThread
from repro.obs import span as obs_span
from repro.obs.metrics import counter as _counter

_C_LAUNCHES = _counter("multigpu.launches")
_C_ROUNDS = _counter("multigpu.rounds")
_C_PUBLISHES = _counter("multigpu.publishes")

#: Sentinel distinguishing "no pending write" from a written value.
_ABSENT = object()


class MgThread(KernelThread):
    """Per-thread handle on a multi-device cooperative launch.

    Extends :class:`KernelThread` (same block-level built-ins and sugar)
    with the device coordinate and the multi-device requests.
    """

    __slots__ = ("device", "n_devices")

    def __init__(self, thread_idx: int, block_idx: int, block_dim: int,
                 grid_dim: int, device: int, n_devices: int) -> None:
        super().__init__(thread_idx, block_idx, block_dim, grid_dim)
        self.device = device
        self.n_devices = n_devices

    @property
    def system_id(self) -> int:
        """Rank across every thread on every device."""
        return self.device * self.blockDim * self.gridDim + self.global_id

    @property
    def system_threads(self) -> int:
        """Total threads across all devices."""
        return self.n_devices * self.blockDim * self.gridDim

    # ----------------------------- sugar ------------------------------ #

    def grid_sync(self) -> rq.GridSync:
        """``grid.sync()`` — barrier over this device's grid."""
        return rq.GridSync()

    def multi_grid_sync(self) -> rq.MultiGridSync:
        """``multi_grid.sync()`` — barrier over every device's grid."""
        return rq.MultiGridSync()

    def system_read(self, var: str, idx: int) -> rq.SystemRead:
        """Load ``var[idx]`` from system (host/peer-visible) memory."""
        return rq.SystemRead(var, idx)

    def system_write(self, var: str, idx: int,
                     value) -> rq.SystemWrite:
        """Store ``value`` to ``var[idx]`` in system memory (buffered
        device-side until the next publish point)."""
        return rq.SystemWrite(var, idx, value)


#: A multi-device kernel: generator function over an :class:`MgThread`.
MgKernel = Callable[[MgThread], Generator]


class _State:
    RUNNING = "running"
    GRID = "grid_barrier"
    MULTI = "multi_barrier"
    DONE = "done"


@dataclass(slots=True)
class _MgThreadState:
    gen: Generator
    state: str = _State.RUNNING
    pending: object = None


@dataclass
class MgLaunchStats:
    """Operation counts observed during one multi-device launch."""

    system_reads: int = 0
    system_writes: int = 0
    device_accesses: int = 0
    device_atomics: int = 0
    system_atomics: int = 0
    fences: int = 0
    grid_syncs: int = 0
    multi_grid_syncs: int = 0
    publishes: int = 0
    rounds: int = 0


@dataclass
class MgLaunchResult:
    """Outcome of one cooperative multi-device launch.

    Attributes:
        system: System memory after the launch (mutated in place; every
            device's pending writes are published at kernel completion).
        device_memories: Per-device global arrays, one dict per device.
        elapsed_cycles: Modeled launch runtime (slowest device).
        elapsed_ns: The same in nanoseconds at the device clock.
        device_cycles: Per-device modeled runtimes.
        stats: Operation counts.
    """

    system: dict[str, np.ndarray]
    device_memories: list[dict[str, np.ndarray]]
    elapsed_cycles: float
    elapsed_ns: float
    device_cycles: list[float] = field(default_factory=list)
    stats: MgLaunchStats = field(default_factory=MgLaunchStats)


class _Device:
    """Execution state of one device in a cooperative launch."""

    __slots__ = ("index", "threads", "memory", "pending", "clock")

    def __init__(self, index: int, threads: list[_MgThreadState],
                 memory: dict[str, np.ndarray]) -> None:
        self.index = index
        self.threads = threads
        self.memory = memory
        #: Buffered system-memory writes: (var, idx) -> value, in
        #: program order (later writes to the same slot overwrite).
        self.pending: dict[tuple[str, int], object] = {}
        self.clock = 0.0


class MultiCuda:
    """A cooperative multi-GPU runtime bound to a :class:`MultiGpu`.

    Args:
        multi: The multi-GPU machine (devices + interconnect pricing).
        n_devices: Devices participating in every launch.
        max_steps: Interpreter step budget per launch.
    """

    def __init__(self, multi: MultiGpu, n_devices: int,
                 max_steps: int = 10_000_000) -> None:
        if n_devices < 1:
            raise SimulationError("need at least one device")
        self.multi = multi
        self.n_devices = n_devices
        self.max_steps = max_steps

    # ------------------------------ launch ----------------------------- #

    def launch(self, kernel: MgKernel, launch: LaunchConfig,
               system: Mapping[str, np.ndarray] | None = None,
               device_globals: Mapping[str, tuple[int, np.dtype]]
               | None = None) -> MgLaunchResult:
        """Run ``kernel`` cooperatively over every device to completion.

        Args:
            kernel: Generator function over an :class:`MgThread`.
            launch: Per-device grid/block dimensions (every device runs
                the same shape, as a cooperative multi-device launch
                requires).
            system: Host/peer-visible arrays by name (mutated in place).
            device_globals: Per-device global declarations, as
                ``name -> (n_elements, numpy dtype)``; each device gets
                its own zeroed instance.

        Raises:
            SimulationError: on deadlock, barrier misuse, step-budget
                exhaustion, or undeclared-variable access.
        """
        system_mem: dict[str, np.ndarray] = dict(system or {})
        decls = dict(device_globals or {})
        ctx = self.multi.context(self.n_devices, launch)
        _C_LAUNCHES.add(1)

        with obs_span("multigpu.launch", devices=self.n_devices,
                      grid_blocks=launch.grid_blocks,
                      block_threads=launch.block_threads):
            return self._run(kernel, launch, ctx, system_mem, decls)

    # ------------------------- reference loop --------------------------- #

    def _run(self, kernel: MgKernel, launch: LaunchConfig,
             ctx: MultiGpuRunContext, system: dict[str, np.ndarray],
             decls: dict[str, tuple[int, np.dtype]]) -> MgLaunchResult:
        stats = MgLaunchStats()
        budget = StepBudget(self.max_steps, hint="runaway multi-GPU "
                            "kernel?")
        devices = []
        for d in range(self.n_devices):
            memory = {name: np.zeros(size, dtype=dt)
                      for name, (size, dt) in decls.items()}
            threads = []
            for block in range(launch.grid_blocks):
                for t in range(launch.block_threads):
                    mt = MgThread(t, block, launch.block_threads,
                                  launch.grid_blocks, d, self.n_devices)
                    threads.append(_MgThreadState(gen=kernel(mt)))
            devices.append(_Device(d, threads, memory))

        while not all(th.state is _State.DONE
                      for dev in devices for th in dev.threads):
            progressed = False
            for dev in devices:
                stepped, cost = self._step_device(dev, ctx, system,
                                                  stats, budget)
                dev.clock += cost
                progressed |= stepped
            progressed |= self._maybe_release_grid(devices, ctx, stats)
            progressed |= self._maybe_release_multi(devices, ctx, system,
                                                    stats)
            stats.rounds += 1
            _C_ROUNDS.add(1)
            if not progressed:
                self._raise_deadlock(devices)

        # Kernel completion is a system-wide sync point: outstanding
        # writes become host-visible, like a stream synchronize.
        for dev in devices:
            self._publish(dev, system, stats)
        elapsed = max(dev.clock for dev in devices) \
            + self.multi.params.kernel_launch_cycles
        return MgLaunchResult(
            system=system,
            device_memories=[dev.memory for dev in devices],
            elapsed_cycles=elapsed,
            elapsed_ns=elapsed / self.multi.clock_ghz,
            device_cycles=[dev.clock for dev in devices],
            stats=stats,
        )

    def _step_device(self, dev: _Device, ctx: MultiGpuRunContext,
                     system: dict[str, np.ndarray], stats: MgLaunchStats,
                     budget: StepBudget) -> tuple[bool, float]:
        """Advance every runnable thread of one device by one request.

        The pass cost is the most expensive request of the pass (threads
        of a device issue concurrently; contention lives in the prices).
        """
        stepped = False
        cost = 0.0
        for th in dev.threads:
            if th.state is not _State.RUNNING:
                continue
            stepped = True
            budget.charge()
            try:
                request = th.gen.send(th.pending)
            except StopIteration:
                th.state = _State.DONE
                continue
            th.pending = None
            cost = max(cost, self._execute(dev, th, request, ctx,
                                           system, stats))
        return stepped, cost

    # --------------------------- execution ----------------------------- #

    def _execute(self, dev: _Device, th: _MgThreadState,
                 request: rq.Request, ctx: MultiGpuRunContext,
                 system: dict[str, np.ndarray],
                 stats: MgLaunchStats) -> float:
        params = self.multi.params
        link = self.multi.interconnect
        if isinstance(request, rq.Alu):
            return params.alu_cycles * request.n
        if isinstance(request, rq.GridSync):
            th.state = _State.GRID
            return 0.0
        if isinstance(request, rq.MultiGridSync):
            th.state = _State.MULTI
            return 0.0
        if isinstance(request, rq.Threadfence):
            stats.fences += 1
            if request.scope is Scope.SYSTEM:
                self._publish(dev, system, stats)
            return self.multi.op_cost(rq.FENCE_OP_OF[request.scope], ctx)
        if isinstance(request, rq.SystemRead):
            stats.system_reads += 1
            th.pending = self._system_load(dev, system, request)
            return params.global_load_cycles + link.latency_cycles
        if isinstance(request, rq.SystemWrite):
            stats.system_writes += 1
            self._check_slot(system, request, "system")
            dev.pending[(request.var, request.idx)] = request.value
            return params.global_load_cycles + link.latency_cycles
        if isinstance(request, rq.GlobalRead):
            stats.device_accesses += 1
            th.pending = self._device_load(dev, request)
            return params.global_load_cycles
        if isinstance(request, rq.GlobalWrite):
            stats.device_accesses += 1
            arr = self._device_slot(dev, request)
            arr[request.idx] = request.value
            return params.global_load_cycles
        if isinstance(request, rq.AtomicRmw):
            return self._execute_atomic(dev, th, request, ctx, system,
                                        stats)
        raise SimulationError(
            f"multi-GPU kernel yielded an unsupported request: "
            f"{request!r}")

    def _execute_atomic(self, dev: _Device, th: _MgThreadState,
                        request: rq.AtomicRmw, ctx: MultiGpuRunContext,
                        system: dict[str, np.ndarray],
                        stats: MgLaunchStats) -> float:
        var, idx = request.var, request.idx
        on_system = var in system
        if not on_system and var not in dev.memory:
            raise SimulationError(
                f"atomic on undeclared variable {var!r}")
        if on_system and request.scope is Scope.SYSTEM:
            # Cross-device coherent, but *relaxed*: the RMW itself hits
            # the canonical array and is immediately visible to peers,
            # while the device's earlier plain system writes stay
            # buffered.  Ordering prior writes before the atomic needs a
            # threadfence(Scope.SYSTEM) — exactly the handshake the
            # cross-device sync-scope sanitizer rule enforces.
            stats.system_atomics += 1
            arr = system[var].reshape(-1)
            self._check_idx(arr, var, idx)
            old = arr[idx].item()
            arr[idx] = request.apply(old)
        elif on_system:
            # Device-scope atomic on system memory: atomic within this
            # device's buffered view, invisible to peers until publish.
            stats.device_atomics += 1
            arr = system[var].reshape(-1)
            self._check_idx(arr, var, idx)
            old = dev.pending.get((var, idx), arr[idx].item())
            dev.pending[(var, idx)] = request.apply(old)
        else:
            stats.device_atomics += 1
            arr = dev.memory[var].reshape(-1)
            self._check_idx(arr, var, idx)
            old = arr[idx].item()
            arr[idx] = request.apply(old)
        th.pending = old

        np_dtype = (system[var] if on_system else dev.memory[var]).dtype
        return self.multi.op_cost(rq.atomic_op(
            type(request), np_dtype,
            request.scope if on_system else Scope.DEVICE), ctx)

    # ------------------------- memory plumbing -------------------------- #

    def _system_load(self, dev: _Device, system: dict[str, np.ndarray],
                     request: rq.MemoryRequest):
        """Canonical value overlaid with the device's own pending writes."""
        self._check_slot(system, request, "system")
        own = dev.pending.get((request.var, request.idx), _ABSENT)
        if own is not _ABSENT:
            return own
        return system[request.var].reshape(-1)[request.idx].item()

    def _device_load(self, dev: _Device, request: rq.MemoryRequest):
        self._check_slot(dev.memory, request, "device-global")
        return dev.memory[request.var].reshape(-1)[request.idx].item()

    def _device_slot(self, dev: _Device,
                     request: rq.MemoryRequest) -> np.ndarray:
        self._check_slot(dev.memory, request, "device-global")
        return dev.memory[request.var].reshape(-1)

    @staticmethod
    def _check_slot(space: Mapping[str, np.ndarray],
                    request: rq.MemoryRequest, kind: str) -> None:
        arr = space.get(request.var)
        if arr is None:
            raise SimulationError(
                f"{kind} access to undeclared variable "
                f"{request.var!r}")
        if not 0 <= request.idx < arr.reshape(-1).size:
            raise SimulationError(
                f"{kind} access to {request.var}[{request.idx}] out of "
                f"bounds (size {arr.reshape(-1).size})")

    @staticmethod
    def _check_idx(arr: np.ndarray, var: str, idx: int) -> None:
        if not 0 <= idx < arr.size:
            raise SimulationError(
                f"atomic on {var}[{idx}] out of bounds "
                f"(size {arr.size})")

    def _publish(self, dev: _Device, system: dict[str, np.ndarray],
                 stats: MgLaunchStats) -> None:
        """Flush the device's buffered system writes to the canonical
        arrays (program order; later writes already overwrote earlier
        ones per slot)."""
        if not dev.pending:
            return
        for (var, idx), value in dev.pending.items():
            system[var].reshape(-1)[idx] = value
        dev.pending.clear()
        stats.publishes += 1
        _C_PUBLISHES.add(1)

    # ---------------------------- barriers ------------------------------ #

    def _maybe_release_grid(self, devices: list[_Device],
                            ctx: MultiGpuRunContext,
                            stats: MgLaunchStats) -> bool:
        """Release any device whose whole grid reached ``grid.sync()``."""
        released = False
        for dev in devices:
            waiting = [th for th in dev.threads
                       if th.state is _State.GRID]
            if not waiting:
                continue
            live = [th for th in dev.threads
                    if th.state is not _State.DONE]
            if len(waiting) < len(live):
                continue  # stragglers still running / at other barriers
            if len(live) < len(dev.threads):
                raise SimulationError(
                    "grid.sync() reached while some threads of the "
                    "device already returned; a cooperative grid "
                    "barrier needs every thread")
            dev.clock += self.multi.op_cost(
                Op(kind=PrimitiveKind.GRID_SYNC), ctx)
            for th in waiting:
                th.state = _State.RUNNING
                th.pending = None
            stats.grid_syncs += 1
            released = True
        return released

    def _maybe_release_multi(self, devices: list[_Device],
                             ctx: MultiGpuRunContext,
                             system: dict[str, np.ndarray],
                             stats: MgLaunchStats) -> bool:
        """Release the all-device barrier once every thread arrived.

        The release publishes every device's pending system writes (the
        multi-grid barrier is a cross-device sync point) and aligns all
        device clocks to the slowest arrival plus the barrier cost.
        """
        waiting = [th for dev in devices for th in dev.threads
                   if th.state is _State.MULTI]
        if not waiting:
            return False
        live = [th for dev in devices for th in dev.threads
                if th.state is not _State.DONE]
        if len(waiting) < len(live):
            return False  # stragglers on some device still running
        total = sum(len(dev.threads) for dev in devices)
        if len(live) < total:
            raise SimulationError(
                "multi_grid.sync() reached while some threads already "
                "returned; a cooperative multi-device barrier needs "
                "every thread on every device")
        cost = self.multi.op_cost(
            Op(kind=PrimitiveKind.MULTI_GRID_SYNC), ctx)
        release = max(dev.clock for dev in devices) + cost
        for dev in devices:
            self._publish(dev, system, stats)
            dev.clock = release
            for th in dev.threads:
                if th.state is _State.MULTI:
                    th.state = _State.RUNNING
                    th.pending = None
        stats.multi_grid_syncs += 1
        return True

    @staticmethod
    def _raise_deadlock(devices: list[_Device]) -> None:
        states: dict[str, int] = {}
        for dev in devices:
            for th in dev.threads:
                states[th.state] = states.get(th.state, 0) + 1
        raise SimulationError(
            f"multi-GPU kernel deadlock; thread states: {states}")
