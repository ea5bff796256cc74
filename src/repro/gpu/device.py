"""The GPU device: spec + cost model behind the machine interface.

A :class:`GpuDevice` implements the same interface the measurement engine
uses for :class:`repro.cpu.machine.CpuMachine`, with time measured in clock
cycles (the paper reads ``clock64()`` on the GPU) and near-deterministic
timing: "there are no background processes or OS, and we directly read the
cycle counter.  Thus, many of the GPU tests yield the exact same runtime"
(Section IV).  The one noisy primitive is ``__threadfence_system()``, whose
CPU round trip crosses the PCIe bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.units import throughput_from_cycles
from repro.compiler.ops import Op, PrimitiveKind
from repro.gpu.atomic_units import AtomicUnitModel
from repro.gpu.costs import GpuCostModel, GpuCostParams
from repro.gpu.occupancy import OccupancyResult, occupancy
from repro.gpu.spec import GpuSpec, LaunchConfig


@dataclass(frozen=True)
class GpuRunContext:
    """Resolved execution context for one CUDA measurement configuration.

    Attributes:
        launch: Grid/block dimensions.
        occ: Occupancy of the busiest SM under this launch.
    """

    launch: LaunchConfig
    occ: OccupancyResult
    #: Per-context op price memo (occupancy pricing is deterministic per
    #: launch, so each op needs pricing once per context).
    _cost_cache: dict = field(repr=False, compare=False,
                              default_factory=dict)


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


class GpuDevice:
    """A simulated NVIDIA GPU (one of Table I's devices, or custom)."""

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
        self._cost_models: dict[tuple, GpuCostModel] = {}
        self._context_cache: dict[tuple, GpuRunContext] = {}

    @property
    def cost_model(self) -> GpuCostModel:
        """The cost model of the current ``spec``/``params``/``atomics``.

        Memoized on the same frozen values :meth:`context` keys on, so
        replacing one of the attributes (``device.params =
        dataclasses.replace(...)``) prices with the new values.
        """
        key = (self.spec, self.params, self.atomics)
        model = self._cost_models.get(key)
        if model is None:
            model = self._cost_models[key] = GpuCostModel(*key)
        return model

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def clock_ghz(self) -> float:
        return self.spec.clock_ghz

    def context(self, launch: LaunchConfig) -> GpuRunContext:
        """Resolve a launch into its occupancy context.

        Cached per launch *and* per parameter state: the context carries
        the op-price memo (and the engine's per-point plans), so the key
        also holds the frozen ``spec``/``params``/``atomics``, which hash
        by value.  An in-place parameter flip therefore resolves a fresh
        context instead of serving prices of the old values.
        """
        key = (launch, self.spec, self.params, self.atomics)
        cached = self._context_cache.get(key)
        if cached is not None:
            return cached
        occ = occupancy(launch.grid_blocks, launch.block_threads,
                        self.spec.sm_count, self.spec.max_threads_per_sm,
                        self.spec.max_blocks_per_sm)
        ctx = GpuRunContext(launch=launch, occ=occ)
        self._context_cache[key] = ctx
        return ctx

    def op_cost(self, op: Op, ctx: GpuRunContext) -> float:
        """Deterministic steady-state cost of one op (cycles)."""
        # Keyed by (device, op): a context may be priced by several
        # devices (e.g. the aggregation ablation's paired devices).
        cached = ctx._cost_cache.get((self, op))
        if cached is None:
            cached = self.cost_model.op_cost_cycles(op, ctx.launch, ctx.occ)
            ctx._cost_cache[(self, op)] = cached
        return cached

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

    def body_cost(self, body: tuple[Op, ...] | list[Op],
                  ctx: GpuRunContext) -> float:
        """Cost of one unrolled loop-body iteration (cycles)."""
        # Whole-body memo, mirroring the CPU machine: one lookup per
        # sweep point instead of a per-op sum (tuples only).
        if type(body) is tuple:
            cached = ctx._cost_cache.get((self, body))
            if cached is None:
                cached = sum(self.op_cost(op, ctx) for op in body)
                ctx._cost_cache[(self, body)] = cached
            return cached
        return sum(self.op_cost(op, ctx) for op in body)

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

    def noise_sampler(self, ctx: GpuRunContext,
                      bodies: tuple[tuple[Op, ...], tuple[Op, ...]],
                      base_costs: tuple[float, float]):
        """The compiled noise of one baseline/test pair (see
        :func:`exponential_pair_sampler`), or ``None`` when the engine
        must call :meth:`run_noise` itself (subclasses overriding it)."""
        if type(self).run_noise is not GpuDevice.run_noise:
            return None
        del ctx, base_costs
        noisy_b, noisy_t = (
            any(op.kind is PrimitiveKind.THREADFENCE_SYSTEM for op in body)
            for body in bodies)
        return exponential_pair_sampler(noisy_b, noisy_t,
                                        self._PCIE_NOISE_CYCLES)

    def noise_free(self, body: tuple[Op, ...] = ()) -> bool:
        """True when runs of ``body`` are exactly deterministic (every
        on-device primitive; only system-scope fences draw noise).  A
        subclass with its own :meth:`run_noise` is never assumed
        deterministic."""
        if type(self).run_noise is not GpuDevice.run_noise:
            return False
        return not any(op.kind is PrimitiveKind.THREADFENCE_SYSTEM
                       for op in body)

    def throughput(self, per_op_time: float) -> float:
        """Per-thread ops/s from per-op cycles (1 / cycles / clock period)."""
        return throughput_from_cycles(per_op_time, self.spec.clock_ghz)

    def with_atomics(self, atomics: AtomicUnitModel) -> "GpuDevice":
        """Copy of this device with a different atomic-unit model
        (used by the warp-aggregation ablation)."""
        return GpuDevice(self.spec, self.params, atomics)

    def describe(self) -> dict[str, object]:
        """Table I row for this device."""
        return self.spec.describe()
