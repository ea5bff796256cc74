"""Unit tests for repro.gpu.device and repro.gpu.spec."""

import pytest

from repro.common.errors import ConfigurationError
from repro.compiler.ops import PrimitiveKind, op_barrier, op_fence
from repro.gpu.device import GpuDevice
from repro.gpu.presets import SYSTEM3_GPU
from repro.gpu.spec import (
    GpuSpec,
    LaunchConfig,
    paper_block_counts,
    paper_thread_counts,
)


class TestLaunchConfig:
    def test_total_threads(self):
        assert LaunchConfig(4, 256).total_threads == 1024

    def test_warps_per_block_rounds_up(self):
        assert LaunchConfig(1, 33).warps_per_block == 2
        assert LaunchConfig(1, 32).warps_per_block == 1
        assert LaunchConfig(1, 1).warps_per_block == 1

    def test_total_warps(self):
        assert LaunchConfig(3, 64).total_warps == 6

    @pytest.mark.parametrize("threads", [0, 1025])
    def test_thread_limits(self, threads):
        with pytest.raises(ConfigurationError):
            LaunchConfig(1, threads)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ConfigurationError):
            LaunchConfig(0, 32)


class TestPaperSweeps:
    def test_block_counts_for_rtx4090(self):
        # 1, 2, half the SMs, the SMs, twice the SMs.
        assert paper_block_counts(SYSTEM3_GPU.spec) == \
            [1, 2, 64, 128, 256]

    def test_thread_counts_powers_of_two(self):
        counts = paper_thread_counts()
        assert counts[0] == 1 and counts[-1] == 1024
        assert all(b == 2 * a for a, b in zip(counts, counts[1:]))


class TestGpuSpecValidation:
    def test_bad_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuSpec("x", 8.0, 0.0, 8, 1536, 64, 8, 256)

    def test_bad_sm_count_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuSpec("x", 8.0, 1.0, 0, 1536, 64, 8, 256)

    def test_max_threads_below_block_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuSpec("x", 8.0, 1.0, 8, 512, 64, 8, 256)

    def test_max_warps_per_sm(self):
        assert SYSTEM3_GPU.spec.max_warps_per_sm == 1536 // 32


class TestGpuDevice:
    def test_time_unit_is_cycles(self):
        assert SYSTEM3_GPU.time_unit == "cycles"

    def test_context_carries_occupancy(self):
        ctx = SYSTEM3_GPU.context(LaunchConfig(256, 1024))
        assert ctx.occ.waves == 2  # 1536 limit: one 1024-block at a time

    def test_throughput_uses_device_clock(self):
        # 1 / cycles / clock_period at 2.625 GHz.
        assert SYSTEM3_GPU.throughput(2.625) == pytest.approx(1e9)

    def test_body_cost_sums(self):
        ctx = SYSTEM3_GPU.context(LaunchConfig(1, 32))
        op = op_barrier(PrimitiveKind.SYNCTHREADS)
        assert SYSTEM3_GPU.body_cost((op, op), ctx) == \
            pytest.approx(2 * SYSTEM3_GPU.op_cost(op, ctx))

    def test_deterministic_timing_for_device_ops(self, rng):
        # Section IV: "many of the GPU tests yield the exact same runtime".
        ctx = SYSTEM3_GPU.context(LaunchConfig(1, 32))
        body = (op_barrier(PrimitiveKind.SYNCTHREADS),)
        assert SYSTEM3_GPU.run_noise(rng, ctx, body) == 0.0

    def test_system_fence_is_noisy(self, rng):
        ctx = SYSTEM3_GPU.context(LaunchConfig(1, 32))
        body = (op_fence(PrimitiveKind.THREADFENCE_SYSTEM),)
        samples = [SYSTEM3_GPU.run_noise(rng, ctx, body) for _ in range(8)]
        assert all(s >= 0 for s in samples)
        assert len(set(samples)) > 1

    def test_with_atomics_returns_new_device(self):
        other = SYSTEM3_GPU.with_atomics(
            SYSTEM3_GPU.atomics.without_aggregation())
        assert other is not SYSTEM3_GPU
        assert not other.atomics.aggregation
        assert SYSTEM3_GPU.atomics.aggregation  # original untouched

    def test_with_atomics_keeps_the_subclass(self):
        class Tagged(GpuDevice):
            def __init__(self, base: GpuDevice) -> None:
                super().__init__(base.spec, base.params, base.atomics)

        device = Tagged(SYSTEM3_GPU)
        other = device.with_atomics(device.atomics.without_aggregation())
        assert type(other) is Tagged
        assert not other.atomics.aggregation
