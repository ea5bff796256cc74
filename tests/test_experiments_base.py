"""Unit tests for the experiment plumbing (spec builders, sweep drivers)."""


from repro.common.datatypes import DOUBLE, INT
from repro.compiler.ops import PrimitiveKind, Scope
from repro.core.protocol import MeasurementProtocol
from repro.cpu.affinity import Affinity
from repro.gpu.spec import LaunchConfig
from repro.experiments.base import (
    cuda_atomic_array_spec,
    cuda_atomic_scalar_spec,
    cuda_fence_spec,
    cuda_shfl_spec,
    cuda_syncthreads_spec,
    cuda_vote_spec,
    omp_atomic_read_spec,
    omp_atomic_update_array_spec,
    omp_atomic_update_scalar_spec,
    omp_barrier_spec,
    omp_flush_spec,
    omp_thread_counts,
    sweep_cuda,
    sweep_omp,
)


class TestSpecBuilders:
    def test_barrier_spec_shape(self):
        spec = omp_barrier_spec()
        assert spec.extra_op_count() == 1
        assert spec.test_body[-1].kind is PrimitiveKind.OMP_BARRIER

    def test_atomic_scalar_spec_targets_shared(self):
        spec = omp_atomic_update_scalar_spec(INT)
        assert spec.test_body[0].target.is_shared

    def test_atomic_array_spec_carries_stride(self):
        spec = omp_atomic_update_array_spec(DOUBLE, 8)
        assert spec.test_body[0].target.stride == 8
        assert "s8" in spec.name

    def test_read_spec_is_contrast(self):
        spec = omp_atomic_read_spec(INT)
        assert len(spec.baseline_body) == len(spec.test_body) == 1
        assert spec.extra_op_count() == 1

    def test_flush_spec_inserts_fence_between_updates(self):
        spec = omp_flush_spec(INT, 4)
        kinds = [op.kind for op in spec.test_body]
        assert kinds == [PrimitiveKind.PLAIN_UPDATE,
                         PrimitiveKind.OMP_FLUSH,
                         PrimitiveKind.PLAIN_UPDATE]

    def test_cuda_fence_spec_scope_mapping(self):
        for scope, kind in [(Scope.DEVICE, PrimitiveKind.THREADFENCE),
                            (Scope.BLOCK, PrimitiveKind.THREADFENCE_BLOCK),
                            (Scope.SYSTEM,
                             PrimitiveKind.THREADFENCE_SYSTEM)]:
            spec = cuda_fence_spec(scope, INT, 1)
            assert spec.test_body[1].kind is kind

    def test_vote_spec_with_unused_result_unrecordable(self):
        spec = cuda_vote_spec(PrimitiveKind.VOTE_BALLOT, result_used=False)
        assert not spec.is_recordable

    def test_shfl_spec_result_used(self):
        spec = cuda_shfl_spec(PrimitiveKind.SHFL_SYNC, INT)
        assert spec.is_recordable

    def test_cuda_atomic_spec_names_distinct(self):
        a = cuda_atomic_scalar_spec(PrimitiveKind.ATOMIC_ADD, INT)
        b = cuda_atomic_array_spec(PrimitiveKind.ATOMIC_ADD, INT, 32)
        assert a.name != b.name


class TestSweepDrivers:
    def test_omp_thread_counts_span_2_to_max(self, system3_cpu):
        counts = omp_thread_counts(system3_cpu)
        assert counts[0] == 2
        assert counts[-1] == system3_cpu.max_threads

    def test_sweep_omp_produces_labelled_series(self, quiet_cpu):
        sweep = sweep_omp(
            quiet_cpu,
            {"a": omp_barrier_spec(), "b": omp_atomic_update_scalar_spec(
                INT)},
            name="t", thread_counts=[2, 4],
            protocol=MeasurementProtocol(n_runs=2))
        assert sweep.labels() == ["a", "b"]
        assert sweep.series_by_label("a").xs == [2, 4]
        assert sweep.metadata["machine"] == quiet_cpu.name

    def test_sweep_omp_respects_affinity_metadata(self, quiet_cpu):
        sweep = sweep_omp(quiet_cpu, {"a": omp_barrier_spec()},
                          name="t", affinity=Affinity.SPREAD,
                          thread_counts=[2])
        assert sweep.metadata["affinity"] == "spread"

    def test_sweep_cuda_produces_thread_axis(self, system3_gpu):
        sweep = sweep_cuda(system3_gpu,
                           {"sync": cuda_syncthreads_spec()},
                           name="t", block_count=2,
                           thread_counts=[32, 64],
                           protocol=MeasurementProtocol(n_runs=2))
        assert sweep.x_label == "threads_per_block"
        assert sweep.series_by_label("sync").xs == [32, 64]
        assert sweep.metadata["blocks"] == 2

    def _count_contexts(self, machine, monkeypatch) -> list:
        shapes = []
        resolve = machine.context

        def context(*shape):
            shapes.append(shape)
            return resolve(*shape)

        monkeypatch.setattr(machine, "context", context)
        return shapes

    def test_sweep_omp_resolves_each_point_once(self, quiet_cpu,
                                                monkeypatch):
        """Specs share the sweep's points: two specs over two thread
        counts resolve two contexts, not four."""
        shapes = self._count_contexts(quiet_cpu, monkeypatch)
        sweep_omp(quiet_cpu,
                  {"a": omp_barrier_spec(), "b": omp_flush_spec(INT, 2)},
                  name="t", thread_counts=[2, 4],
                  protocol=MeasurementProtocol(n_runs=2))
        assert shapes == [(2, Affinity.DEFAULT), (4, Affinity.DEFAULT)]

    def test_sweep_cuda_resolves_each_point_once(self, system3_gpu,
                                                 monkeypatch):
        shapes = self._count_contexts(system3_gpu, monkeypatch)
        sweep_cuda(system3_gpu,
                   {"sync": cuda_syncthreads_spec(),
                    "fence": cuda_fence_spec(Scope.DEVICE, INT, 1)},
                   name="t", block_count=2, thread_counts=[32, 64],
                   protocol=MeasurementProtocol(n_runs=2))
        assert shapes == [(LaunchConfig(2, 32),), (LaunchConfig(2, 64),)]
