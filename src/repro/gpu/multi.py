"""A multi-GPU machine: N identical devices behind one interconnect.

:class:`MultiGpu` is a :class:`repro.common.machine.Machine`, like
:class:`repro.gpu.device.GpuDevice` and
:class:`repro.cpu.machine.CpuMachine`, with the *device count* as the
swept dimension instead of the launch shape.  Per-device primitives are
priced by the underlying device's cost model unchanged; only the three
genuinely multi-device mechanisms pay for the link:

* ``multi_grid_sync`` — a single-device ``grid.sync()`` plus one link
  round trip per extra device (the arrival/release flag exchange of a
  multi-grid cooperative barrier);
* system-scope atomics — the device-scope price plus a line-ownership
  round trip per *contending* device, where the contending-device count
  comes from :class:`repro.mem.coherence.CoherenceModel` with each GPU
  standing in for a core (GPUs fight over a host-visible line exactly
  the way sockets fight over a cache line);
* ``__threadfence_system()`` — the single-device system fence plus one
  one-way link crossing per peer whose caches the drain must reach.

Timing noise follows the single-device story (§IV: the GPU cycle
counter is deterministic; only traffic that leaves the device is
erratic): bodies containing a system fence, a system-scope atomic, or a
multi-device barrier draw exponential link noise, everything else is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.machine import Machine, RunContext
from repro.common.units import throughput_from_cycles
from repro.compiler.ops import ATOMIC_KINDS, Op, PrimitiveKind, Scope
from repro.gpu.device import GpuDevice, exponential_pair_sampler
from repro.gpu.interconnect import NVLINK3, InterconnectModel
from repro.gpu.occupancy import OccupancyResult
from repro.gpu.spec import LaunchConfig
from repro.mem.coherence import CoherenceModel


@dataclass(frozen=True)
class MultiGpuRunContext(RunContext):
    """Resolved context for one multi-device measurement configuration.

    Attributes:
        n_devices: Participating devices (every device runs ``launch``).
        launch: Per-device grid/block dimensions.
        occ: Occupancy of the busiest SM on each device.
    """

    n_devices: int
    launch: LaunchConfig
    occ: OccupancyResult


def _body_is_linked(body: tuple[Op, ...]) -> bool:
    """True when the body contains an op whose traffic leaves the device
    (the only source of timing noise on a multi-GPU rig)."""
    for op in body:
        if op.kind is PrimitiveKind.THREADFENCE_SYSTEM:
            return True
        if op.kind is PrimitiveKind.MULTI_GRID_SYNC:
            return True
        if op.kind in ATOMIC_KINDS and op.scope is Scope.SYSTEM:
            return True
    return False


class MultiGpu(Machine):
    """``n`` copies of one GPU preset joined by an interconnect.

    Not a :class:`GpuDevice` subclass on purpose: its identity is the
    device's plus the link's, and contexts are
    ``context(n_devices, launch)``.
    """

    PARTS = (*(f"device.{part}" for part in GpuDevice.PARTS),
             "interconnect", "coherence")

    time_unit = "cycles"

    #: Same per-iteration loop bookkeeping as a single device.
    loop_overhead = 2.0

    #: Cold start still pays the single-device L2 warm-up.
    cold_start_cost = 25_000.0

    #: Per-op noise scale (cycles) for bodies whose traffic crosses the
    #: link; matches the single-device PCIe fence noise.
    _LINK_NOISE_CYCLES = 40.0

    def __init__(self, device: GpuDevice,
                 interconnect: InterconnectModel = NVLINK3,
                 coherence: CoherenceModel | None = None) -> None:
        self.device = device
        self.interconnect = interconnect
        self.coherence = coherence or CoherenceModel()

    @property
    def name(self) -> str:
        return f"multi-{self.device.spec.name}+{self.interconnect.name}"

    @property
    def clock_ghz(self) -> float:
        return self.device.spec.clock_ghz

    @property
    def params(self):
        """The per-device calibration constants (device pricing)."""
        return self.device.params

    def _build_cost_model(self):
        return self.device.cost_model

    def _resolve(self, n_devices: int,
                 launch: LaunchConfig) -> MultiGpuRunContext:
        """Resolve a (device count, launch) pair into a context."""
        if n_devices < 1:
            raise ConfigurationError("need at least one device")
        return MultiGpuRunContext(n_devices=n_devices, launch=launch,
                                  occ=self.device.context(launch).occ)

    # ------------------------------ pricing ----------------------------- #

    def contending_devices(self, n_devices: int) -> int:
        """Devices fighting over one host-visible line.

        Each GPU plays the role of a core in the coherence model: SMs of
        one device share that device's L2, so intra-device traffic never
        crosses the link — only distinct devices contend.
        """
        return self.coherence.contending_cores(
            n_devices, {i: i for i in range(n_devices)})

    def _price(self, op: Op, ctx: MultiGpuRunContext) -> float:
        model = self.cost_model
        link = self.interconnect
        d = ctx.n_devices
        if op.kind is PrimitiveKind.MULTI_GRID_SYNC:
            # Per-device grid barrier, then an all-device flag exchange:
            # one link round trip per extra device.
            base = model.op_cost_cycles(
                replace(op, kind=PrimitiveKind.GRID_SYNC),
                ctx.launch, ctx.occ)
            return base + link.roundtrip_cycles() * (d - 1)
        if op.kind in ATOMIC_KINDS and op.scope is Scope.SYSTEM:
            # Device-scope service plus host visibility (one crossing
            # even alone) plus a line-ownership round trip per extra
            # contending device.
            base = model.op_cost_cycles(
                replace(op, scope=Scope.DEVICE), ctx.launch, ctx.occ)
            bouncing = self.contending_devices(d) - 1
            return base + link.latency_cycles + \
                link.roundtrip_cycles() * bouncing
        if op.kind is PrimitiveKind.THREADFENCE_SYSTEM:
            # Drain must reach every peer's view of system memory.
            base = model.op_cost_cycles(op, ctx.launch, ctx.occ)
            return base + link.latency_cycles * (d - 1)
        return model.op_cost_cycles(op, ctx.launch, ctx.occ)

    # ------------------------------- noise ------------------------------ #

    def run_noise(self, rng: np.random.Generator, ctx: MultiGpuRunContext,
                  body: tuple[Op, ...] = (),
                  base_cost: float = 0.0) -> float:
        """Exponential link noise for bodies that leave the device."""
        del ctx, base_cost
        if _body_is_linked(body):
            return float(rng.exponential(self._LINK_NOISE_CYCLES))
        return 0.0

    def _sampler(self, ctx: MultiGpuRunContext,
                 bodies: tuple[tuple[Op, ...], tuple[Op, ...]],
                 base_costs: tuple[float, float]):
        noisy_b, noisy_t = (_body_is_linked(body) for body in bodies)
        return exponential_pair_sampler(noisy_b, noisy_t,
                                        self._LINK_NOISE_CYCLES)

    def _silent(self, body: tuple[Op, ...]) -> bool:
        return not _body_is_linked(body)

    def throughput(self, per_op_time: float) -> float:
        """Per-thread ops/s from per-op cycles at the device clock."""
        return throughput_from_cycles(per_op_time, self.clock_ghz)

    def describe(self) -> dict[str, object]:
        """Summary row (device spec + link)."""
        info = dict(self.device.spec.describe())
        info["interconnect"] = self.interconnect.name
        return info
