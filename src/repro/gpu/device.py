"""The GPU device: spec + cost model behind the machine interface.

A :class:`GpuDevice` is a :class:`repro.common.machine.Machine`, like
:class:`repro.cpu.machine.CpuMachine`, with time measured in clock
cycles (the paper reads ``clock64()`` on the GPU) and near-deterministic
timing: "there are no background processes or OS, and we directly read the
cycle counter.  Thus, many of the GPU tests yield the exact same runtime"
(Section IV).  The one noisy primitive is ``__threadfence_system()``, whose
CPU round trip crosses the PCIe bus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.machine import Machine, RunContext
from repro.common.units import throughput_from_cycles
from repro.compiler.ops import Op, PrimitiveKind
from repro.gpu.atomic_units import AtomicUnitModel
from repro.gpu.costs import GpuCostModel, GpuCostParams
from repro.gpu.occupancy import OccupancyResult, occupancy
from repro.gpu.spec import GpuSpec, LaunchConfig


@dataclass(frozen=True)
class GpuRunContext(RunContext):
    """Resolved execution context for one CUDA measurement configuration.

    Attributes:
        launch: Grid/block dimensions.
        occ: Occupancy of the busiest SM under this launch.
    """

    launch: LaunchConfig
    occ: OccupancyResult


def exponential_pair_sampler(noisy_b: bool, noisy_t: bool, scale: float):
    """A binder ``bind(rng) -> sample()`` for a baseline/test pair whose
    noisy bodies draw one exponential of ``scale`` each (in body order)
    and whose quiet bodies draw nothing: stream-identical to the two
    ``run_noise`` calls of a GPU machine."""

    def bind(rng: np.random.Generator):
        exponential = rng.exponential

        def sample() -> tuple[float, float]:
            return (float(exponential(scale)) if noisy_b else 0.0,
                    float(exponential(scale)) if noisy_t else 0.0)

        return sample

    return bind


class GpuDevice(Machine):
    """A simulated NVIDIA GPU (one of Table I's devices, or custom).

    Contexts are ``context(launch)``.
    """

    PARTS = ("spec", "params", "atomics")

    time_unit = "cycles"

    #: Per-outer-iteration loop bookkeeping cost (cycles); amortized over
    #: the unroll factor and cancelled by the baseline/test subtraction.
    loop_overhead = 2.0

    #: One-time cold-start cost (cycles) of a timed kernel section: first
    #: loads miss in L2.  The warm-up loop pays this before ``clock64()``
    #: is read (§III).
    cold_start_cost = 25_000.0

    #: Per-op noise (cycles) on system-scope fences from PCIe traffic.
    _PCIE_NOISE_CYCLES = 40.0

    def __init__(self, spec: GpuSpec, params: GpuCostParams | None = None,
                 atomics: AtomicUnitModel | None = None) -> None:
        self.spec = spec
        self.params = params or GpuCostParams()
        self.atomics = atomics or AtomicUnitModel()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def clock_ghz(self) -> float:
        return self.spec.clock_ghz

    def _build_cost_model(self) -> GpuCostModel:
        return GpuCostModel(self.spec, self.params, self.atomics)

    def _resolve(self, launch: LaunchConfig) -> GpuRunContext:
        """Resolve a launch into its occupancy context."""
        occ = occupancy(launch.grid_blocks, launch.block_threads,
                        self.spec.sm_count, self.spec.max_threads_per_sm,
                        self.spec.max_blocks_per_sm)
        return GpuRunContext(launch=launch, occ=occ)

    def _price(self, op: Op, ctx: GpuRunContext) -> float:
        return self.cost_model.op_cost_cycles(op, ctx.launch, ctx.occ)

    def atomic_issue_cost(self, op: Op, ctx: GpuRunContext,
                          n_addresses: int, n_lanes: int,
                          issuing_warps: int,
                          resident_blocks: int) -> float:
        """Memoized :meth:`GpuCostModel.dynamic_atomic_cost`.

        The kernel interpreter prices every atomic warp pass from its
        observed issue shape; the shape space is tiny (a handful of
        address/lane/warp combinations per kernel) while the pass count
        is huge, so the price is memoized per context like
        :meth:`op_cost`.
        """
        key = (self, op, n_addresses, n_lanes, issuing_warps,
               resident_blocks)
        cached = ctx._cost_cache.get(key)
        if cached is None:
            cached = self.cost_model.dynamic_atomic_cost(
                op, n_addresses=n_addresses, n_lanes=n_lanes,
                issuing_warps=issuing_warps,
                resident_blocks=resident_blocks)
            ctx._cost_cache[key] = cached
        return cached

    def run_noise(self, rng: np.random.Generator, ctx: GpuRunContext,
                  body: tuple[Op, ...] = (),
                  base_cost: float = 0.0) -> float:
        """Per-op noise (cycles) for one run.

        Zero for on-device primitives (deterministic cycle counter); erratic
        for bodies containing a system-scope fence (Section V-B3: "the
        behavior is more erratic since it involves communication with the
        CPU across the PCIe bus").
        """
        del ctx, base_cost
        if any(op.kind is PrimitiveKind.THREADFENCE_SYSTEM for op in body):
            return float(rng.exponential(self._PCIE_NOISE_CYCLES))
        return 0.0

    def _sampler(self, ctx: GpuRunContext,
                 bodies: tuple[tuple[Op, ...], tuple[Op, ...]],
                 base_costs: tuple[float, float]):
        noisy_b, noisy_t = (
            any(op.kind is PrimitiveKind.THREADFENCE_SYSTEM for op in body)
            for body in bodies)
        return exponential_pair_sampler(noisy_b, noisy_t,
                                        self._PCIE_NOISE_CYCLES)

    def _silent(self, body: tuple[Op, ...]) -> bool:
        return not any(op.kind is PrimitiveKind.THREADFENCE_SYSTEM
                       for op in body)

    def throughput(self, per_op_time: float) -> float:
        """Per-thread ops/s from per-op cycles (1 / cycles / clock period)."""
        return throughput_from_cycles(per_op_time, self.spec.clock_ghz)

    def with_atomics(self, atomics: AtomicUnitModel) -> "GpuDevice":
        """Copy of this device with a different atomic-unit model
        (used by the warp-aggregation ablation)."""
        return self.replace_parts(atomics=atomics)

    def describe(self) -> dict[str, object]:
        """Table I row for this device."""
        return self.spec.describe()
