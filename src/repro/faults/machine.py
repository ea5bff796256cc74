"""The fault-injecting machine wrapper.

:class:`FaultyMachine` wraps any machine the measurement engine accepts
(:class:`repro.cpu.machine.CpuMachine`, :class:`repro.gpu.device.GpuDevice`,
or any duck-typed equivalent) and perturbs its *measured-time surface*:
every ``run_noise`` sample is reconstructed into a total sampled time,
passed through the scenario's fault models in order, and handed back to
the engine as noise.  The deterministic cost model underneath is left
untouched, so ``op_cost``-based ground truths remain the clean machine's
— exactly what a fault-tolerance validation needs to compare against.

Faults draw from a dedicated stream seeded by (scenario name, seed,
machine name); the machine's own jitter stream is never touched, so
enabling faults perturbs measurements *on top of* the modelled jitter
rather than reshuffling it.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import make_rng
from repro.faults.scenario import FaultScenario
from repro.obs.metrics import REGISTRY
from repro.obs.metrics import counter as _counter

# Observability counters (docs/observability.md): how often any fault
# actually perturbed a sample, and how many attempts a DroppedRun-style
# fault killed outright.  Per-fault-class breakdowns live under
# ``faults.activations.<ClassName>``.
_C_ACTIVATIONS = _counter("faults.activations")
_C_DROPPED = _counter("faults.dropped_attempts")


class FaultyMachine:
    """Wrap a machine, injecting a scenario's faults into its timings.

    Args:
        machine: Any engine-compatible machine (CPU or GPU).
        scenario: The fault composition to apply.  If it requests a
            jitter storm and the machine carries a
            :class:`~repro.cpu.jitter.JitterModel`, the wrapped machine
            is rebuilt with the stormed jitter model.
    """

    def __init__(self, machine: object, scenario: FaultScenario) -> None:
        # Contexts and prices come from the machine as given: a storm
        # changes only the jitter, and one long-lived machine keeps the
        # op-price memo of a shared context from growing per wrapper.
        self._clean = machine
        if scenario.jitter_storm != 1.0 and _has_jitter(machine):
            machine = type(machine)(
                machine.topology, machine.params,
                machine.jitter.storm(scenario.jitter_storm))
        self.inner = machine
        self.scenario = scenario
        self._fault_rng = make_rng(
            f"faults/{scenario.name}/{machine.name}", scenario.seed)
        self._states: list[dict] = [{} for _ in scenario.faults]

    # ------------------------- machine interface ----------------------- #

    @property
    def name(self) -> str:
        """The wrapped machine's name (fault injection is transparent to
        jitter-stream labelling, keeping the clean-run streams intact)."""
        return self.inner.name

    @property
    def time_unit(self) -> str:
        """The wrapped machine's time unit."""
        return self.inner.time_unit

    @property
    def loop_overhead(self) -> float:
        """The wrapped machine's loop bookkeeping cost."""
        return self.inner.loop_overhead

    @property
    def cold_start_cost(self) -> float:
        """The wrapped machine's one-time cold-start cost."""
        return getattr(self.inner, "cold_start_cost", 0.0)

    def context(self, *args: object, **kwargs: object) -> object:
        """Resolve an execution context on the wrapped machine."""
        return self._clean.context(*args, **kwargs)

    def op_cost(self, op: object, ctx: object) -> float:
        """The *clean* deterministic cost of one op (ground truth)."""
        return self._clean.op_cost(op, ctx)

    def body_cost(self, body: object, ctx: object) -> float:
        """The *clean* deterministic cost of one loop body."""
        return self._clean.body_cost(body, ctx)

    def run_noise(self, rng: np.random.Generator, ctx: object,
                  body: tuple = (), base_cost: float = 0.0) -> float:
        """Sample one run's noise, then push it through the fault chain.

        Raises:
            FaultInjectionError: When a :class:`~repro.faults.models.
                DroppedRun` fault kills the attempt.
        """
        noise = self.inner.run_noise(rng, ctx, body, base_cost)
        total = max(base_cost + noise, 0.0)
        for fault, state in zip(self.scenario.faults, self._states):
            try:
                perturbed = fault.apply(total, base_cost,
                                        self._fault_rng, state)
            except Exception:
                # A fault killed the attempt (DroppedRun raises
                # FaultInjectionError): that is an activation too.
                _C_ACTIVATIONS.add(1)
                _C_DROPPED.add(1)
                REGISTRY.counter(
                    f"faults.activations.{type(fault).__name__}").add(1)
                raise
            if perturbed != total:
                _C_ACTIVATIONS.add(1)
                REGISTRY.counter(
                    f"faults.activations.{type(fault).__name__}").add(1)
            total = perturbed
        return total - base_cost

    def throughput(self, per_op_time: float) -> float:
        """Per-thread ops/s in the wrapped machine's unit."""
        return self.inner.throughput(per_op_time)

    def describe(self) -> dict[str, object]:
        """The wrapped machine's Table I row, tagged with the scenario."""
        info = dict(self.inner.describe())
        info["faults"] = self.scenario.describe()
        return info


def _has_jitter(machine: object) -> bool:
    return all(hasattr(machine, attr)
               for attr in ("jitter", "topology", "params"))


def wrap_machine(machine: object,
                 scenario: FaultScenario | None) -> object:
    """Wrap ``machine`` in a :class:`FaultyMachine` unless redundant.

    Idempotent: an already-wrapped machine or a ``None`` scenario passes
    through unchanged, so engines can call this unconditionally.
    """
    if scenario is None or isinstance(machine, FaultyMachine):
        return machine
    return FaultyMachine(machine, scenario)
