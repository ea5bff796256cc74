"""The CPU machine: topology + cost model + jitter, behind one interface.

A :class:`CpuMachine` is what the measurement engine talks to.  It answers
two questions: what does this op cost at this thread count/affinity
(deterministic steady state), and how noisy is one timed run (stochastic
jitter).  The same interface shape is implemented by
:class:`repro.gpu.device.GpuDevice`, so the engine is device-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import throughput_from_ns
from repro.compiler.ops import Op
from repro.cpu.affinity import Affinity, core_placement, place_threads, \
    uses_hyperthreading
from repro.cpu.costs import CpuCostModel, CpuCostParams
from repro.cpu.jitter import JitterModel
from repro.cpu.topology import CpuTopology


@dataclass(frozen=True)
class CpuRunContext:
    """Resolved execution context for one OpenMP measurement configuration.

    Attributes:
        n_threads: Participating thread count.
        affinity: Placement policy used.
        hyperthreaded: Whether any physical core runs two of the threads.
    """

    n_threads: int
    affinity: Affinity
    hyperthreaded: bool
    core_keys: dict[int, tuple[int, int]] = field(repr=False,
                                                  default_factory=dict)
    numa_keys: dict[int, int] = field(repr=False, default_factory=dict)
    #: Per-context op/body price memo (coherence and NUMA geometry are
    #: pure functions of the placement, so each op needs pricing once per
    #: context, not once per sweep point).  Excluded from eq/repr.
    _cost_cache: dict = field(repr=False, compare=False,
                              default_factory=dict)


class CpuMachine:
    """A simulated multicore CPU (one of Table I's systems, or custom).

    Args:
        topology: Socket/core/SMT/NUMA layout and clock.
        params: Cost-model calibration constants.
        jitter: OS-noise model (the AMD preset passes a noisier one).
    """

    #: Tag used by the engine to pick time units ("ns" here, "cycles" on GPU).
    time_unit = "ns"

    #: Per-outer-iteration loop bookkeeping cost (ns); amortized over the
    #: unroll factor and cancelled by the baseline/test subtraction.
    loop_overhead = 1.2

    #: One-time cold-start cost (ns) of a timed function: first-touch page
    #: faults and cache misses on the test data.  The warm-up loop
    #: (N_WARMUP) exists to pay this before the timed section (§III).
    cold_start_cost = 150_000.0

    def __init__(self, topology: CpuTopology,
                 params: CpuCostParams | None = None,
                 jitter: JitterModel | None = None) -> None:
        self.topology = topology
        self.params = params or CpuCostParams()
        self.jitter = jitter or JitterModel()
        self._cost_models: dict[CpuCostParams, CpuCostModel] = {}
        self._context_cache: dict[tuple, CpuRunContext] = {}

    @property
    def cost_model(self) -> CpuCostModel:
        """The cost model of the current ``params``.

        Memoized on the frozen value :meth:`context` keys on, so
        replacing the attribute (``machine.params =
        dataclasses.replace(...)``) prices with the new values.
        """
        model = self._cost_models.get(self.params)
        if model is None:
            model = self._cost_models[self.params] = \
                CpuCostModel(self.params)
        return model

    @property
    def name(self) -> str:
        return self.topology.name

    @property
    def max_threads(self) -> int:
        """Maximum OpenMP thread count (all hardware threads)."""
        return self.topology.hardware_threads

    def context(self, n_threads: int,
                affinity: Affinity = Affinity.DEFAULT) -> CpuRunContext:
        """Resolve a thread count + affinity into a placement context.

        Contexts are pure functions of (thread count, affinity) on a
        given topology, so they are built once and cached: sweeps resolve
        the same placements at every series.  The context carries the
        op-price memo (and the engine's per-point plans), so the key also
        holds the frozen ``topology``/``params``/``jitter``, which hash
        by value: an in-place parameter flip resolves a fresh context.
        """
        if n_threads < 2:
            raise ConfigurationError(
                "the paper omits single-thread runs: synchronization serves "
                f"no purpose in serial execution (got {n_threads})")
        key = (n_threads, affinity, self.topology, self.params, self.jitter)
        cached = self._context_cache.get(key)
        if cached is not None:
            return cached
        placement = place_threads(self.topology, n_threads, affinity)
        ctx = CpuRunContext(
            n_threads=n_threads,
            affinity=affinity,
            hyperthreaded=uses_hyperthreading(placement),
            core_keys=core_placement(placement),
            numa_keys={tid: self.topology.numa_node_of(place)
                       for tid, place in placement.items()},
        )
        self._context_cache[key] = ctx
        return ctx

    def op_cost(self, op: Op, ctx: CpuRunContext) -> float:
        """Deterministic steady-state cost of one op (ns)."""
        # Keyed by (machine, op): a context may be priced by more than
        # one machine (ablations pair machines over shared placements).
        cached = ctx._cost_cache.get((self, op))
        if cached is None:
            cached = self.cost_model.op_cost_ns(op, ctx.n_threads,
                                                ctx.core_keys, ctx.numa_keys)
            ctx._cost_cache[(self, op)] = cached
        return cached

    def body_cost(self, body: tuple[Op, ...] | list[Op],
                  ctx: CpuRunContext) -> float:
        """Cost of one unrolled loop-body iteration (ns)."""
        # Whole-body memo: the engine prices the same two kept bodies at
        # every sweep point, so one lookup replaces the per-op sum.
        # Tuples only — list bodies are unhashable (and rare).
        if type(body) is tuple:
            cached = ctx._cost_cache.get((self, body))
            if cached is None:
                cached = sum(self.op_cost(op, ctx) for op in body)
                ctx._cost_cache[(self, body)] = cached
            return cached
        return sum(self.op_cost(op, ctx) for op in body)

    def run_noise(self, rng: np.random.Generator, ctx: CpuRunContext,
                  body: tuple[Op, ...] = (),
                  base_cost: float = 0.0) -> float:
        """Stochastic per-op noise (ns) for one timed run.

        OS jitter is duration-proportional, so the deterministic cost being
        perturbed is passed in; the body itself does not change CPU noise
        (the parameter exists for interface parity with the GPU, where
        system-scope fences are noisier).
        """
        del body
        return self.jitter.sample_run_noise(rng, ctx.hyperthreaded,
                                            base_cost)

    def noise_sampler(self, ctx: CpuRunContext,
                      bodies: tuple[tuple[Op, ...], tuple[Op, ...]],
                      base_costs: tuple[float, float]):
        """The compiled noise of one baseline/test pair: a binder
        ``bind(rng) -> sample()`` whose calls are stream-identical to two
        :meth:`run_noise` calls, or ``None`` when the engine must make
        those calls itself (subclasses overriding :meth:`run_noise`)."""
        if type(self).run_noise is not CpuMachine.run_noise:
            return None
        del bodies
        return self.jitter.make_sampler(ctx.hyperthreaded, base_costs)

    def noise_free(self, body: tuple[Op, ...] = ()) -> bool:
        """True when every run-noise sample for ``body`` is exactly 0.0.

        Lets the engine skip sampling entirely for zero-jitter machines
        (deterministic-cost test fixtures).  A subclass with its own
        :meth:`run_noise` is never assumed silent, whatever its jitter
        model says.
        """
        del body
        if type(self).run_noise is not CpuMachine.run_noise:
            return False
        return self.jitter.is_silent

    def throughput(self, per_op_time: float) -> float:
        """Per-thread ops/s from a per-op runtime in this machine's unit."""
        return throughput_from_ns(per_op_time)

    def describe(self) -> dict[str, object]:
        """Table I row for this machine."""
        return self.topology.describe()
