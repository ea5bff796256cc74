"""Unit tests for repro.core.engine — the measurement protocol itself."""

import math

import pytest

from repro.common.datatypes import INT
from repro.common.errors import MeasurementError
from repro.compiler.ops import Op, PrimitiveKind, op_atomic, op_barrier
from repro.core.engine import MeasurementEngine
from repro.core.protocol import MeasurementProtocol
from repro.core.spec import MeasurementSpec
from repro.cpu.affinity import Affinity
from repro.mem.layout import SharedScalar


def barrier_spec():
    return MeasurementSpec.single("barrier", op_barrier())


class TestSubtraction:
    def test_isolates_single_primitive_exactly_on_quiet_machine(
            self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        ctx = quiet_cpu.context(4)
        result = engine.measure(barrier_spec(), ctx)
        expected = quiet_cpu.op_cost(op_barrier(), ctx)
        assert result.per_op_time == pytest.approx(expected)

    def test_loop_overhead_cancels(self, quiet_cpu):
        # The bookkeeping term appears in both bodies and must vanish.
        big_overhead = MeasurementProtocol(unroll=1)
        engine = MeasurementEngine(quiet_cpu, big_overhead)
        ctx = quiet_cpu.context(4)
        result = engine.measure(barrier_spec(), ctx)
        assert result.per_op_time == \
            pytest.approx(quiet_cpu.op_cost(op_barrier(), ctx))

    def test_naive_timing_includes_overhead(self, quiet_cpu):
        # The ablation hook: test runtime / op count keeps the loop cost.
        engine = MeasurementEngine(quiet_cpu, MeasurementProtocol(unroll=1))
        ctx = quiet_cpu.context(4)
        result = engine.measure(barrier_spec(), ctx)
        assert result.naive_per_op_time > result.per_op_time

    def test_scaffold_cost_subtracted(self, quiet_cpu):
        scaffold = (op_atomic(PrimitiveKind.OMP_ATOMIC_UPDATE, INT,
                              SharedScalar(INT)),)
        spec = MeasurementSpec.single("b", op_barrier(), scaffold=scaffold)
        engine = MeasurementEngine(quiet_cpu)
        ctx = quiet_cpu.context(4)
        assert engine.measure(spec, ctx).per_op_time == \
            pytest.approx(quiet_cpu.op_cost(op_barrier(), ctx))


class TestProtocolBehaviour:
    def test_deterministic_given_label_and_seed(self, system3_cpu):
        engine = MeasurementEngine(system3_cpu)
        ctx = system3_cpu.context(8)
        a = engine.measure(barrier_spec(), ctx, label="t=8")
        b = engine.measure(barrier_spec(), ctx, label="t=8")
        assert a.per_op_time == b.per_op_time

    def test_different_labels_vary(self, system3_cpu):
        engine = MeasurementEngine(system3_cpu)
        ctx = system3_cpu.context(8)
        a = engine.measure(barrier_spec(), ctx, label="a")
        b = engine.measure(barrier_spec(), ctx, label="b")
        assert a.per_op_time != b.per_op_time

    def test_different_seed_varies(self, system3_cpu):
        ctx = system3_cpu.context(8)
        a = MeasurementEngine(
            system3_cpu, MeasurementProtocol(seed=0)).measure(
                barrier_spec(), ctx)
        b = MeasurementEngine(
            system3_cpu, MeasurementProtocol(seed=1)).measure(
                barrier_spec(), ctx)
        assert a.per_op_time != b.per_op_time

    def test_valid_fraction_is_one_on_quiet_machine(self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        result = engine.measure(barrier_spec(), quiet_cpu.context(4))
        assert result.valid_fraction == 1.0

    def test_measurement_close_to_truth_under_jitter(self, system3_cpu):
        engine = MeasurementEngine(system3_cpu)
        ctx = system3_cpu.context(8, Affinity.SPREAD)
        result = engine.measure(barrier_spec(), ctx, label="t=8")
        truth = system3_cpu.op_cost(op_barrier(), ctx)
        assert result.per_op_time == pytest.approx(truth, rel=0.25)

    def test_throughput_matches_per_op_time(self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        result = engine.measure(barrier_spec(), quiet_cpu.context(4))
        assert result.throughput == \
            pytest.approx(1e9 / result.per_op_time)


class TestUnrecordable:
    def ballot_spec(self):
        ballot = Op(kind=PrimitiveKind.VOTE_BALLOT, result_used=False)
        return MeasurementSpec.single("ballot", ballot)

    def test_flagged_not_raised(self, system3_gpu):
        from repro.gpu.spec import LaunchConfig
        engine = MeasurementEngine(system3_gpu)
        ctx = system3_gpu.context(LaunchConfig(1, 32))
        result = engine.measure(self.ballot_spec(), ctx)
        assert result.unrecordable
        assert result.per_op_time is None
        assert math.isnan(result.throughput)
        assert "vote_ballot" in result.eliminated

    def test_measure_or_raise(self, system3_gpu):
        from repro.gpu.spec import LaunchConfig
        engine = MeasurementEngine(system3_gpu)
        ctx = system3_gpu.context(LaunchConfig(1, 32))
        with pytest.raises(MeasurementError, match="unrecordable"):
            engine.measure_or_raise(self.ballot_spec(), ctx)

    def test_measure_or_raise_passes_through_good_specs(self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        result = engine.measure_or_raise(barrier_spec(),
                                         quiet_cpu.context(4))
        assert not result.unrecordable


class TestGpuMeasurement:
    def test_gpu_unit_is_cycles(self, system3_gpu):
        from repro.gpu.spec import LaunchConfig
        spec = MeasurementSpec.single(
            "sync", op_barrier(PrimitiveKind.SYNCTHREADS))
        engine = MeasurementEngine(system3_gpu)
        result = engine.measure(spec, system3_gpu.context(
            LaunchConfig(1, 64)))
        assert result.unit == "cycles"

    def test_gpu_measurement_is_exact(self, system3_gpu):
        # No OS, direct cycle counter: zero noise for on-device primitives.
        from repro.gpu.spec import LaunchConfig
        spec = MeasurementSpec.single(
            "sync", op_barrier(PrimitiveKind.SYNCTHREADS))
        engine = MeasurementEngine(system3_gpu)
        ctx = system3_gpu.context(LaunchConfig(1, 64))
        result = engine.measure(spec, ctx)
        op = op_barrier(PrimitiveKind.SYNCTHREADS)
        assert result.per_op_time == \
            pytest.approx(system3_gpu.op_cost(op, ctx))
        assert result.valid_fraction == 1.0


class TestParameterFlips:
    """An in-place cost-parameter flip must reach the engine: the
    context (which holds the op-price memo and the per-point plans) is
    keyed on the machine's parameter values, so ``measure`` after a
    flip equals a freshly built machine with the flipped values."""

    def _check(self, machine, rebuild, spec, resolve, params, field, delta):
        engine = MeasurementEngine(machine)
        before = engine.measure(spec, resolve(machine), label="p")
        object.__setattr__(params, field, getattr(params, field) + delta)
        after = engine.measure(spec, resolve(machine), label="p")
        fresh = rebuild(machine)
        expected = MeasurementEngine(fresh).measure(spec, resolve(fresh),
                                                    label="p")
        assert after.per_op_time != before.per_op_time
        assert after == expected

    def test_gpu_flip(self, mini_gpu):
        from dataclasses import replace
        from repro.experiments.base import cuda_syncthreads_spec
        from repro.gpu.device import GpuDevice
        from repro.gpu.spec import LaunchConfig
        self._check(
            mini_gpu,
            lambda d: GpuDevice(d.spec, replace(d.params), d.atomics),
            cuda_syncthreads_spec(),
            lambda d: d.context(LaunchConfig(1, 64)),
            mini_gpu.params, "sync_base_cycles", 500.0)

    def test_cpu_flip(self, quiet_cpu):
        from dataclasses import replace
        from repro.cpu.machine import CpuMachine
        self._check(
            quiet_cpu,
            lambda m: CpuMachine(m.topology, replace(m.params), m.jitter),
            barrier_spec(),
            lambda m: m.context(4),
            quiet_cpu.params, "barrier_base_ns", 250.0)

    def test_multigpu_flip(self, mini_gpu):
        from dataclasses import replace
        from repro.gpu.device import GpuDevice
        from repro.gpu.multi import MultiGpu
        from repro.gpu.spec import LaunchConfig
        spec = MeasurementSpec.single(
            "grid", op_barrier(PrimitiveKind.MULTI_GRID_SYNC))
        self._check(
            MultiGpu(mini_gpu),
            lambda m: MultiGpu(GpuDevice(m.device.spec,
                                         replace(m.device.params),
                                         m.device.atomics),
                               m.interconnect, m.coherence),
            spec,
            lambda m: m.context(2, LaunchConfig(4, 64)),
            mini_gpu.params, "grid_sync_block_cycles", 40.0)
