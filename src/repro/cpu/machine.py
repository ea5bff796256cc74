"""The CPU machine: topology + cost model + jitter, behind one interface.

A :class:`CpuMachine` is what the measurement engine talks to.  It answers
two questions: what does this op cost at this thread count/affinity
(deterministic steady state), and how noisy is one timed run (stochastic
jitter).  Memos, identity and the noise guard come from
:class:`repro.common.machine.Machine`, shared with the GPU machines, so
the engine is device-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.machine import Machine, RunContext
from repro.common.units import throughput_from_ns
from repro.compiler.ops import Op
from repro.cpu.affinity import Affinity, core_placement, place_threads, \
    uses_hyperthreading
from repro.cpu.costs import CpuCostModel, CpuCostParams
from repro.cpu.jitter import JitterModel
from repro.cpu.topology import CpuTopology


@dataclass(frozen=True)
class CpuRunContext(RunContext):
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


class CpuMachine(Machine):
    """A simulated multicore CPU (one of Table I's systems, or custom).

    Contexts are ``context(n_threads, affinity=Affinity.DEFAULT)``.

    Args:
        topology: Socket/core/SMT/NUMA layout and clock.
        params: Cost-model calibration constants.
        jitter: OS-noise model (the AMD preset passes a noisier one).
    """

    PARTS = ("topology", "params", "jitter")

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

    @property
    def name(self) -> str:
        return self.topology.name

    @property
    def max_threads(self) -> int:
        """Maximum OpenMP thread count (all hardware threads)."""
        return self.topology.hardware_threads

    def _build_cost_model(self) -> CpuCostModel:
        return CpuCostModel(self.params)

    def _resolve(self, n_threads: int,
                 affinity: Affinity = Affinity.DEFAULT) -> CpuRunContext:
        """Resolve a thread count + affinity into a placement context."""
        if n_threads < 2:
            raise ConfigurationError(
                "the paper omits single-thread runs: synchronization serves "
                f"no purpose in serial execution (got {n_threads})")
        placement = place_threads(self.topology, n_threads, affinity)
        return CpuRunContext(
            n_threads=n_threads,
            affinity=affinity,
            hyperthreaded=uses_hyperthreading(placement),
            core_keys=core_placement(placement),
            numa_keys={tid: self.topology.numa_node_of(place)
                       for tid, place in placement.items()},
        )

    def _price(self, op: Op, ctx: CpuRunContext) -> float:
        return self.cost_model.op_cost_ns(op, ctx.n_threads, ctx.core_keys,
                                          ctx.numa_keys)

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

    def _sampler(self, ctx: CpuRunContext,
                 bodies: tuple[tuple[Op, ...], tuple[Op, ...]],
                 base_costs: tuple[float, float]):
        return self.jitter.make_sampler(ctx.hyperthreaded, base_costs)

    def _silent(self, body: tuple[Op, ...]) -> bool:
        return self.jitter.is_silent  # zero-jitter test fixtures

    def throughput(self, per_op_time: float) -> float:
        """Per-thread ops/s from a per-op runtime in this machine's unit."""
        return throughput_from_ns(per_op_time)

    def describe(self) -> dict[str, object]:
        """Table I row for this machine."""
        return self.topology.describe()
