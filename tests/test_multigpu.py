"""Multi-GPU machine, interconnect, and cooperative runtime semantics.

Covers the three layers the multi-device scenario family stands on:
the :class:`InterconnectModel` cost primitives, the :class:`MultiGpu`
machine's pricing/noise contract, and the :class:`MultiCuda` runtime's
memory model — buffered system writes, relaxed system-scope atomics,
publish points, cooperative barriers, and relaunch invalidation.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.common.datatypes import INT
from repro.common.errors import ConfigurationError, SimulationError
from repro.compiler.ops import Op, PrimitiveKind, Scope, op_barrier
from repro.mem.layout import SharedScalar
from repro.cuda.multigpu import MultiCuda
from repro.gpu.interconnect import (
    INTERCONNECT_PRESETS,
    NVLINK3,
    PCIE4,
    InterconnectModel,
    interconnect_preset,
)
from repro.gpu.multi import MultiGpu
from repro.gpu.spec import LaunchConfig

LAUNCH = LaunchConfig(4, 64)


@pytest.fixture
def multi(mini_gpu):
    return MultiGpu(mini_gpu)


def _atomic(scope):
    return Op(kind=PrimitiveKind.ATOMIC_ADD, dtype=INT,
              target=SharedScalar(INT), scope=scope)


class TestInterconnect:
    def test_transfer_cost_is_latency_plus_bytes(self):
        link = InterconnectModel("test", 100.0, 10.0)
        assert link.transfer_cycles(0) == 100.0
        assert link.transfer_cycles(1000) == 200.0
        assert link.roundtrip_cycles() == 200.0

    def test_presets_are_registered(self):
        assert interconnect_preset("nvlink3") is NVLINK3
        assert interconnect_preset("pcie4") is PCIE4
        assert set(INTERCONNECT_PRESETS) == {"nvlink3", "pcie4"}

    def test_pcie_is_slower_than_nvlink(self):
        assert PCIE4.latency_cycles > NVLINK3.latency_cycles
        assert PCIE4.bandwidth_bytes_per_cycle \
            < NVLINK3.bandwidth_bytes_per_cycle

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError, match="nvlink3"):
            interconnect_preset("infiniband")

    @pytest.mark.parametrize("lat,bw", [(0.0, 8.0), (700.0, 0.0),
                                        (-1.0, 8.0)])
    def test_invalid_parameters_raise(self, lat, bw):
        with pytest.raises(ConfigurationError):
            InterconnectModel("bad", lat, bw)


class TestMultiGpuPricing:
    def test_context_requires_a_device(self, multi):
        with pytest.raises(ConfigurationError):
            multi.context(0, LAUNCH)

    def test_per_device_ops_price_as_single_device(self, multi, mini_gpu):
        ctx = multi.context(4, LAUNCH)
        op = op_barrier(PrimitiveKind.SYNCTHREADS)
        single = mini_gpu.cost_model.op_cost_cycles(op, LAUNCH, ctx.occ)
        assert multi.op_cost(op, ctx) == single

    def test_multi_grid_sync_pays_roundtrip_per_extra_device(self, multi):
        op = op_barrier(PrimitiveKind.MULTI_GRID_SYNC)
        costs = [multi.op_cost(op, multi.context(d, LAUNCH))
                 for d in (1, 2, 4, 8)]
        assert costs == sorted(costs) and costs[0] < costs[-1]
        rt = multi.interconnect.roundtrip_cycles()
        assert costs[1] - costs[0] == pytest.approx(rt)
        grid = multi.op_cost(op_barrier(PrimitiveKind.GRID_SYNC),
                             multi.context(1, LAUNCH))
        assert costs[0] == pytest.approx(grid)

    def test_system_atomic_dominates_device_scope(self, multi):
        for d in (1, 2, 4, 8):
            ctx = multi.context(d, LAUNCH)
            assert multi.op_cost(_atomic(Scope.SYSTEM), ctx) \
                > multi.op_cost(_atomic(Scope.DEVICE), ctx)

    def test_system_fence_pays_per_peer(self, multi):
        op = Op(kind=PrimitiveKind.THREADFENCE_SYSTEM)
        one = multi.op_cost(op, multi.context(1, LAUNCH))
        four = multi.op_cost(op, multi.context(4, LAUNCH))
        assert four - one == pytest.approx(
            3 * multi.interconnect.latency_cycles)

    def test_multi_grid_sync_rejected_on_bare_device(self, mini_gpu):
        ctx_occ = MultiGpu(mini_gpu).context(1, LAUNCH).occ
        with pytest.raises(ConfigurationError):
            mini_gpu.cost_model.op_cost_cycles(
                op_barrier(PrimitiveKind.MULTI_GRID_SYNC), LAUNCH,
                ctx_occ)

    def test_noise_only_for_linked_bodies(self, multi):
        assert multi.noise_free((op_barrier(PrimitiveKind.SYNCTHREADS),))
        assert multi.noise_free((_atomic(Scope.DEVICE),))
        assert not multi.noise_free((_atomic(Scope.SYSTEM),))
        assert not multi.noise_free(
            (op_barrier(PrimitiveKind.MULTI_GRID_SYNC),))
        assert not multi.noise_free(
            (Op(kind=PrimitiveKind.THREADFENCE_SYSTEM),))

    def test_noise_paths_are_stream_identical(self, multi):
        ctx = multi.context(2, LAUNCH)
        bodies = ((_atomic(Scope.SYSTEM),),
                  (op_barrier(PrimitiveKind.SYNCTHREADS),))
        rng = np.random.default_rng(5)
        scalar = tuple(multi.run_noise(rng, ctx, b) for b in bodies)
        assert scalar[0] > 0.0 and scalar[1] == 0.0
        bind = multi.noise_sampler(ctx, bodies, (0.0, 0.0))
        assert bind(np.random.default_rng(5))() == scalar


def _flag_handshake(fence_scope):
    """Device 0 writes a payload and raises a flag; device 1 spins."""

    def kernel(t):
        if t.device == 0 and t.global_id == 0:
            yield t.system_write("payload", 0, 42)
            yield t.threadfence(fence_scope)
            yield t.atomic_exch("flag", 0, 1, scope=Scope.SYSTEM)
        elif t.device == 1 and t.global_id == 0:
            while (yield t.atomic_add("flag", 0, 0,
                                      scope=Scope.SYSTEM)) != 1:
                yield t.alu(1)
            v = yield t.system_read("payload", 0)
            yield t.system_write("seen", 0, v)

    return kernel


class TestMultiCudaSemantics:
    def test_system_fence_publishes_before_flag(self, multi):
        system = {"payload": np.zeros(1, np.int64),
                  "flag": np.zeros(1, np.int64),
                  "seen": np.zeros(1, np.int64)}
        MultiCuda(multi, n_devices=2).launch(
            _flag_handshake(Scope.SYSTEM), LaunchConfig(1, 4),
            system=system)
        assert system["seen"][0] == 42

    def test_device_fence_leaves_peer_stale(self, multi):
        """The seeded-defect scenario the sanitizer's cross-device
        sync-scope rule flags: a device-scope fence does not publish,
        so the consumer observes the flag but a stale payload."""
        system = {"payload": np.zeros(1, np.int64),
                  "flag": np.zeros(1, np.int64),
                  "seen": np.zeros(1, np.int64)}
        MultiCuda(multi, n_devices=2).launch(
            _flag_handshake(Scope.DEVICE), LaunchConfig(1, 4),
            system=system)
        assert system["seen"][0] == 0
        assert system["payload"][0] == 42  # published at completion

    def test_multi_grid_sync_publishes_and_aligns(self, multi):
        def kernel(t):
            yield t.system_write("buf", t.system_id, t.system_id + 1)
            yield t.multi_grid_sync()
            peer = (t.system_id + t.blockDim * t.gridDim) \
                % t.system_threads
            v = yield t.system_read("buf", peer)
            yield t.system_write("out", t.system_id, v)

        n = 2 * 4
        system = {"buf": np.zeros(n, np.int64),
                  "out": np.zeros(n, np.int64)}
        result = MultiCuda(multi, n_devices=2).launch(
            kernel, LaunchConfig(1, 4), system=system)
        expected = [(i + 4) % n + 1 for i in range(n)]
        assert list(system["out"]) == expected
        assert result.stats.multi_grid_syncs == 1
        assert result.stats.publishes >= 2

    def test_grid_sync_orders_blocks_within_a_device(self, multi):
        def kernel(t):
            yield t.global_write("mark", t.global_id, t.global_id + 1)
            yield t.grid_sync()
            peer = (t.global_id + t.blockDim) % (t.blockDim * t.gridDim)
            v = yield t.global_read("mark", peer)
            yield t.system_write("out", t.system_id, v)

        system = {"out": np.zeros(2 * 8, np.int64)}
        result = MultiCuda(multi, n_devices=2).launch(
            kernel, LaunchConfig(2, 4), system=system,
            device_globals={"mark": (8, np.dtype(np.int64))})
        assert result.stats.grid_syncs == 2  # one release per device
        assert list(system["out"][:8]) == [(i + 4) % 8 + 1
                                           for i in range(8)]

    def test_device_scope_atomic_is_buffered(self, multi):
        """Device-scope atomics on system memory stay invisible to
        peers until a publish point (the staleness the system scope
        exists to avoid)."""
        def kernel(t):
            if t.device == 0:
                yield t.atomic_add("acc", 0, 1, scope=Scope.DEVICE)
                yield t.threadfence(Scope.SYSTEM)
            yield t.multi_grid_sync()
            v = yield t.system_read("acc", 0)
            yield t.system_write("out", t.system_id, v)

        system = {"acc": np.zeros(1, np.int64),
                  "out": np.zeros(4, np.int64)}
        MultiCuda(multi, n_devices=2).launch(
            kernel, LaunchConfig(1, 2), system=system)
        assert system["acc"][0] == 2
        assert list(system["out"]) == [2, 2, 2, 2]

    def test_unbalanced_multi_grid_sync_deadlocks(self, multi):
        def kernel(t):
            if t.device == 0:
                yield t.multi_grid_sync()
            yield t.alu(1)

        with pytest.raises(SimulationError):
            MultiCuda(multi, n_devices=2).launch(
                kernel, LaunchConfig(1, 2), system={})

    def test_undeclared_system_variable_raises(self, multi):
        def kernel(t):
            yield t.system_write("ghost", 0, 1)

        with pytest.raises(SimulationError, match="ghost"):
            MultiCuda(multi, n_devices=2).launch(
                kernel, LaunchConfig(1, 1), system={})


#: Read by :func:`_global_kernel` at launch time; flipped between
#: launches by :class:`TestMultiCudaInvalidation`.
K = 1


def _global_kernel(t):
    v = yield t.atomic_add("acc", 0, K, scope=Scope.SYSTEM)
    yield t.system_write("out", t.system_id, v)


def _linked_kernel(t):
    """Link-priced: a system atomic, a system fence, and a multi-grid
    barrier all cost more over PCIe than over NVLink."""
    v = yield t.atomic_add("acc", 0, 1, scope=Scope.SYSTEM)
    yield t.system_write("out", t.system_id, v)
    yield t.threadfence(Scope.SYSTEM)
    yield t.multi_grid_sync()
    w = yield t.system_read("out", (t.system_id + 1) % t.system_threads)
    yield t.system_write("out", t.system_id, v + w)


def _run(runtime, kernel):
    system = {"acc": np.zeros(1, np.int64), "out": np.zeros(4, np.int64)}
    return runtime.launch(kernel, LaunchConfig(1, 2), system=system)


def _assert_same_launch(got, want):
    assert got.elapsed_cycles == want.elapsed_cycles
    assert got.device_cycles == want.device_cycles
    assert vars(got.stats) == vars(want.stats)
    for name in want.system:
        assert got.system[name].tobytes() == want.system[name].tobytes()


class TestMultiCudaInvalidation:
    """A relaunch on the same runtime sees every input that changed
    since the last launch: module globals and the machine itself."""

    def test_global_flip_matches_reference(self, multi, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "K", 1)
        runtime = MultiCuda(multi, n_devices=2)
        _run(runtime, _global_kernel)
        monkeypatch.setattr(sys.modules[__name__], "K", 5)
        got = _run(runtime, _global_kernel)
        want = _run(MultiCuda(multi, n_devices=2), _global_kernel)
        assert got.system["acc"][0] == want.system["acc"][0] == 20
        _assert_same_launch(got, want)

    def test_interconnect_swap_matches_reference(self, mini_gpu):
        multi = MultiGpu(mini_gpu, NVLINK3)
        runtime = MultiCuda(multi, n_devices=2)
        nvlink = _run(runtime, _linked_kernel)
        multi.interconnect = PCIE4
        got = _run(runtime, _linked_kernel)
        want = _run(MultiCuda(MultiGpu(mini_gpu, PCIE4), n_devices=2),
                    _linked_kernel)
        assert got.elapsed_cycles > nvlink.elapsed_cycles
        _assert_same_launch(got, want)


class TestMultiGpuWorkloads:
    def test_multi_gpu_bfs_matches_reference(self, multi):
        from repro.workloads.bfs import multi_gpu_bfs, random_graph
        row_ptr, cols = random_graph(48, avg_degree=3, seed=5)
        out = multi_gpu_bfs(multi, row_ptr, cols, n_devices=2,
                            grid_blocks=2, block_threads=8)
        assert out.correct
        assert out.levels >= 2
        assert out.elapsed > 0

    def test_multi_gpu_bfs_rejects_bad_csr(self, multi):
        from repro.workloads.bfs import multi_gpu_bfs
        with pytest.raises(ConfigurationError):
            multi_gpu_bfs(multi, np.array([0, 2], np.int64),
                          np.array([0], np.int64))

    def test_multi_gpu_jacobi_matches_reference(self, multi):
        from repro.workloads.stencil import multi_gpu_jacobi
        data = np.linspace(0.0, 9.0, 24)
        out = multi_gpu_jacobi(multi, data, iterations=3, n_devices=2,
                               grid_blocks=1, block_threads=8)
        assert out.correct
        assert out.iterations == 3
