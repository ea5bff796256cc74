"""The machine base: identity, part replacement and bounded memos.

Every test runs over the three machine classes, so a machine added or
changed later is held to the same contract: its ``PARTS`` name every
frozen parameter object it holds, and the memos keyed on them stay
bounded and never serve a price of replaced values.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.machine import Machine, RunContext
from repro.compiler.dispatcher import _machine_identity
from repro.compiler.ops import PrimitiveKind, op_barrier
from repro.core.engine import MeasurementEngine
from repro.core.spec import MeasurementSpec
from repro.cpu.affinity import Affinity
from repro.cpu.machine import CpuMachine
from repro.cpu.presets import cpu_preset
from repro.gpu.device import GpuDevice
from repro.gpu.multi import MultiGpu
from repro.gpu.presets import gpu_preset
from repro.gpu.spec import LaunchConfig

LAUNCH = LaunchConfig(2, 64)


def _cpu(cls=CpuMachine):
    base = cpu_preset(3)
    return cls(base.topology, base.params, base.jitter)


def _gpu(cls=GpuDevice):
    base = gpu_preset(3)
    return cls(base.spec, base.params, base.atomics)


def _multi(cls=MultiGpu):
    return cls(_gpu())


#: (builder, context shape, an op its price depends on, a swap of one
#: part that moves that price: ``swap(machine, i) -> (name, value)``).
CASES = {
    "cpu": (_cpu, (8, Affinity.SPREAD), op_barrier(),
            lambda m, i: ("params", dataclasses.replace(
                m.params, barrier_base_ns=800.0 + i))),
    "gpu": (_gpu, (LAUNCH,), op_barrier(PrimitiveKind.SYNCTHREADS),
            lambda m, i: ("params", dataclasses.replace(
                m.params, sync_base_cycles=20.0 + i))),
    "multi": (_multi, (4, LAUNCH),
              op_barrier(PrimitiveKind.MULTI_GRID_SYNC),
              lambda m, i: ("interconnect", dataclasses.replace(
                  m.interconnect, latency_cycles=100.0 + i))),
}


def _frozen_parts(machine: Machine) -> list:
    """Every frozen dataclass the machine holds, through machine parts."""
    found = []
    for value in vars(machine).values():
        if isinstance(value, Machine):
            found += _frozen_parts(value)
        elif dataclasses.is_dataclass(value) and \
                value.__dataclass_params__.frozen:
            found.append(value)
    return found


@pytest.mark.parametrize("case", CASES)
class TestIdentityConformance:
    def test_identity_holds_every_frozen_part(self, case):
        make, shape, _, _ = CASES[case]
        machine = make()
        identity = machine.identity()
        held = _frozen_parts(machine)
        assert held
        for part in held:
            assert any(part is value for value in identity), part

    def test_replace_parts_keeps_class_and_starts_empty(self, case):
        make, shape, op, swap = CASES[case]
        sub = type("Sub", (make().__class__,), {})
        machine = make(sub)
        machine.op_cost(op, machine.context(*shape))
        assert machine._contexts and machine._cost_models
        name, value = swap(machine, 1)
        clone = machine.replace_parts(**{name: value})
        assert type(clone) is sub
        assert clone._contexts == {} and clone._cost_models == {}
        assert getattr(clone, name) is value
        clone.context(*shape)
        assert len(machine._contexts) == 1
        with pytest.raises(TypeError):
            machine.replace_parts(no_such_part=value)

    def test_dispatcher_identity_is_qualname_and_parts(self, case):
        machine = CASES[case][0]()
        assert _machine_identity(machine) == \
            (type(machine).__qualname__, *machine.identity())


def test_multi_gpu_identity_extends_the_device():
    multi = _multi()
    assert multi.identity() == (*multi.device.identity(),
                                multi.interconnect, multi.coherence)


@pytest.mark.parametrize("case", CASES)
def test_memos_stay_bounded_and_price_current_parts(case):
    """Swap one part more times than the bound: both memos stay within
    it, and every swap prices like a machine built with those parts."""
    make, shape, op, swap = CASES[case]
    machine = make()
    prices = set()
    for i in range(Machine.MEMO_BOUND + 3):
        name, value = swap(machine, i)
        setattr(machine, name, value)
        price = machine.op_cost(op, machine.context(*shape))
        fresh = make().replace_parts(**{name: value})
        assert price == fresh.op_cost(op, fresh.context(*shape))
        prices.add(price)
        assert len(machine._contexts) <= Machine.MEMO_BOUND
        assert len(machine._cost_models) <= Machine.MEMO_BOUND
    assert len(prices) == Machine.MEMO_BOUND + 3


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("hooks", [(), ("_silent",), ("_sampler",),
                                   ("_silent", "_sampler")])
def test_compiled_noise_needs_both_hooks_beside_run_noise(case, hooks):
    """A ``run_noise`` override is trusted to compile only when its class
    also defines ``_silent`` and ``_sampler``."""
    make, shape, _, _ = CASES[case]
    base = make().__class__

    def run_noise(self, rng, ctx, body=(), base_cost=0.0):
        return 1.0

    namespace = {"run_noise": run_noise}
    namespace.update((hook, getattr(base, hook)) for hook in hooks)
    machine = make(type("Noisy", (base,), namespace))
    compiled = len(hooks) == 2
    assert (machine.noise_sampler(machine.context(*shape), ((), ()),
                                  (0.0, 0.0)) is not None) == compiled
    assert machine.noise_free(()) == \
        (compiled and base._silent(machine, ()))


@dataclasses.dataclass(frozen=True)
class _Hop:
    ns: float = 20.0


@dataclasses.dataclass(frozen=True)
class _RingContext(RunContext):
    n_threads: int


class _Ring(Machine):
    """The smallest machine: one part, ``_resolve`` and ``_price``."""

    PARTS = ("hop",)
    name, time_unit, loop_overhead = "ring", "ns", 1.0

    def __init__(self, hop: _Hop) -> None:
        self.hop = hop

    def _resolve(self, n_threads: int) -> _RingContext:
        return _RingContext(n_threads)

    def _price(self, op, ctx: _RingContext) -> float:
        return self.hop.ns * ctx.n_threads

    def throughput(self, per_op_time: float) -> float:
        return 1e9 / per_op_time


def test_a_custom_machine_needs_parts_resolve_and_price():
    ring = _Ring(_Hop())
    assert ring.identity() == (_Hop(),)
    assert ring.noise_free(())
    spec = MeasurementSpec.single("barrier", op_barrier())
    result = MeasurementEngine(ring).measure(spec, ring.context(8))
    assert result.per_op_time == 160.0
    ring.hop = _Hop(30.0)
    assert ring.op_cost(op_barrier(), ring.context(8)) == 240.0
    assert _machine_identity(ring) == ("_Ring", _Hop(30.0))
    with pytest.raises(TypeError):
        type("NoParts", (Machine,), {})
