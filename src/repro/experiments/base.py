"""Shared plumbing for the experiment modules.

Provides the spec builders (one per measured primitive, parameterized the
way Section IV parameterizes the tests) and the sweep drivers that run a
spec across thread counts (OpenMP) or launch configurations (CUDA).
"""

from __future__ import annotations

from functools import cache

from repro.common.datatypes import DataType
from repro.common.errors import MeasurementError
from repro.compiler.ops import Op, PrimitiveKind, Scope, op_atomic, \
    op_barrier, op_fence, op_plain_update
from repro.core.engine import MeasurementEngine
from repro.core.protocol import MeasurementProtocol
from repro.core.results import PointFailure, Series, SweepResult
from repro.core.spec import MeasurementSpec
from repro.cpu.affinity import Affinity
from repro.cpu.machine import CpuMachine
from repro.gpu.device import GpuDevice
from repro.gpu.multi import MultiGpu
from repro.gpu.spec import LaunchConfig, paper_thread_counts
from repro.mem.layout import PrivateArrayElement, SharedScalar

# --------------------------- OpenMP specs ------------------------------ #
#
# Every spec builder is memoized: specs are frozen value objects built
# from module-constant arguments, and a stable identity lets the
# engine's per-context plan cache and the machines' cost caches hit the
# tuple-compare identity shortcut instead of re-comparing op tuples
# field by field on every sweep point.


@cache
def omp_barrier_spec() -> MeasurementSpec:
    """``#pragma omp barrier`` (Fig. 1)."""
    return MeasurementSpec.single(
        "omp_barrier", op_barrier(),
        description="explicit OpenMP barrier")


@cache
def omp_atomic_update_scalar_spec(dtype: DataType) -> MeasurementSpec:
    """``#pragma omp atomic update`` on one shared variable (Fig. 2)."""
    op = op_atomic(PrimitiveKind.OMP_ATOMIC_UPDATE, dtype,
                   SharedScalar(dtype))
    return MeasurementSpec.single(f"omp_atomicadd_scalar_{dtype.name}", op)


@cache
def omp_atomic_capture_scalar_spec(dtype: DataType) -> MeasurementSpec:
    """``#pragma omp atomic capture`` on one shared variable (§V-A2)."""
    op = op_atomic(PrimitiveKind.OMP_ATOMIC_CAPTURE, dtype,
                   SharedScalar(dtype))
    return MeasurementSpec.single(f"omp_atomiccapture_scalar_{dtype.name}",
                                  op)


@cache
def omp_atomic_update_array_spec(dtype: DataType,
                                 stride: int) -> MeasurementSpec:
    """``atomic update`` on each thread's private array element (Fig. 3)."""
    op = op_atomic(PrimitiveKind.OMP_ATOMIC_UPDATE, dtype,
                   PrivateArrayElement(dtype, stride))
    return MeasurementSpec.single(
        f"omp_atomicadd_array_{dtype.name}_s{stride}", op)


@cache
def omp_atomic_write_spec(dtype: DataType) -> MeasurementSpec:
    """``atomic write`` to shared locations (Fig. 4).

    The paper's baseline writes one shared location and the test writes two
    on separate cache lines, isolating one atomic write.
    """
    op = op_atomic(PrimitiveKind.OMP_ATOMIC_WRITE, dtype, SharedScalar(dtype))
    return MeasurementSpec.single(f"omp_atomicwrite_{dtype.name}", op)


@cache
def omp_atomic_read_spec(dtype: DataType) -> MeasurementSpec:
    """Atomic read vs plain read (§V-A2): the overhead of atomicity."""
    plain = Op(kind=PrimitiveKind.PLAIN_READ, dtype=dtype,
               target=SharedScalar(dtype))
    atomic = Op(kind=PrimitiveKind.OMP_ATOMIC_READ, dtype=dtype,
                target=SharedScalar(dtype))
    return MeasurementSpec.contrast(f"omp_atomicread_{dtype.name}",
                                    plain, atomic)


@cache
def omp_critical_spec(dtype: DataType) -> MeasurementSpec:
    """Addition under ``#pragma omp critical`` (Fig. 5)."""
    op = op_atomic(PrimitiveKind.OMP_CRITICAL_UPDATE, dtype,
                   SharedScalar(dtype))
    return MeasurementSpec.single(f"omp_critical_{dtype.name}", op)


@cache
def omp_flush_spec(dtype: DataType, stride: int) -> MeasurementSpec:
    """``#pragma omp flush`` between two private-element updates (Fig. 6)."""
    target = PrivateArrayElement(dtype, stride)
    update1 = op_plain_update(dtype, target, label="arrayA")
    update2 = op_plain_update(dtype, target, label="arrayB")
    fence = op_fence(PrimitiveKind.OMP_FLUSH, target)
    return MeasurementSpec.inserted(
        f"omp_flush_{dtype.name}_s{stride}", (update1,), fence, (update2,))


# ---------------------------- CUDA specs ------------------------------- #


@cache
def cuda_syncthreads_spec() -> MeasurementSpec:
    """``__syncthreads()`` (Fig. 7)."""
    return MeasurementSpec.single(
        "cuda_syncthreads", op_barrier(PrimitiveKind.SYNCTHREADS))


@cache
def cuda_syncwarp_spec() -> MeasurementSpec:
    """``__syncwarp()`` (Fig. 8)."""
    return MeasurementSpec.single(
        "cuda_syncwarp", op_barrier(PrimitiveKind.SYNCWARP))


@cache
def cuda_atomic_scalar_spec(kind: PrimitiveKind,
                            dtype: DataType) -> MeasurementSpec:
    """A CUDA atomic on one shared variable (Figs. 9, 11, 13)."""
    op = op_atomic(kind, dtype, SharedScalar(dtype))
    return MeasurementSpec.single(
        f"cuda_{kind.value}_scalar_{dtype.name}", op)


@cache
def cuda_atomic_array_spec(kind: PrimitiveKind, dtype: DataType,
                           stride: int) -> MeasurementSpec:
    """A CUDA atomic on private array elements (Figs. 10, 12)."""
    op = op_atomic(kind, dtype, PrivateArrayElement(dtype, stride))
    return MeasurementSpec.single(
        f"cuda_{kind.value}_array_{dtype.name}_s{stride}", op)


@cache
def cuda_fence_spec(scope: Scope, dtype: DataType,
                    stride: int) -> MeasurementSpec:
    """``__threadfence*()`` between two private-element updates (Fig. 14)."""
    kind = {Scope.DEVICE: PrimitiveKind.THREADFENCE,
            Scope.BLOCK: PrimitiveKind.THREADFENCE_BLOCK,
            Scope.SYSTEM: PrimitiveKind.THREADFENCE_SYSTEM}[scope]
    target = PrivateArrayElement(dtype, stride)
    update1 = op_plain_update(dtype, target, label="arrayA")
    update2 = op_plain_update(dtype, target, label="arrayB")
    fence = op_fence(kind, target)
    return MeasurementSpec.inserted(
        f"cuda_{kind.value}_{dtype.name}_s{stride}", (update1,), fence,
        (update2,))


@cache
def cuda_grid_sync_spec() -> MeasurementSpec:
    """Cooperative ``grid.sync()`` across one device's grid."""
    return MeasurementSpec.single(
        "cuda_grid_sync", op_barrier(PrimitiveKind.GRID_SYNC))


@cache
def cuda_multi_grid_sync_spec() -> MeasurementSpec:
    """Cooperative ``multi_grid.sync()`` across every device's grid."""
    return MeasurementSpec.single(
        "cuda_multi_grid_sync", op_barrier(PrimitiveKind.MULTI_GRID_SYNC))


@cache
def cuda_atomic_scoped_spec(kind: PrimitiveKind, dtype: DataType,
                            scope: Scope) -> MeasurementSpec:
    """A CUDA atomic on one shared variable at an explicit scope
    (device vs system, the multi-GPU contention contrast)."""
    op = op_atomic(kind, dtype, SharedScalar(dtype), scope=scope)
    return MeasurementSpec.single(
        f"cuda_{kind.value}_{scope.value}_scalar_{dtype.name}", op)


@cache
def cuda_shfl_spec(kind: PrimitiveKind, dtype: DataType) -> MeasurementSpec:
    """A warp shuffle (Fig. 15); the result feeds the next iteration."""
    op = Op(kind=kind, dtype=dtype, result_used=True)
    return MeasurementSpec.single(f"cuda_{kind.value}_{dtype.name}", op)


@cache
def cuda_vote_spec(kind: PrimitiveKind,
                   result_used: bool = True) -> MeasurementSpec:
    """A warp vote (§V-B4).

    The paper could not record ``__ballot_sync()`` — "likely due to some
    optimization preventing it from being properly generated" — which we
    reproduce by building the ballot spec with an unused result, letting
    the DCE pass eliminate it.
    """
    op = Op(kind=kind, result_used=result_used)
    return MeasurementSpec.single(f"cuda_{kind.value}", op)


# ---------------------------- sweep drivers ---------------------------- #


def _measure_point(engine: MeasurementEngine, sweep: SweepResult,
                   series: Series, spec: MeasurementSpec, ctx: object,
                   x: float, label: str) -> None:
    """Measure one sweep point, recording failure instead of aborting.

    The robust path escalates (wider ``n_runs``) before giving up; a
    point that still cannot be measured — fault-injected campaigns only —
    lands in ``sweep.failures`` so the rest of the sweep survives.
    """
    try:
        result = engine.measure_robust(spec, ctx, label=label)
    except MeasurementError as exc:
        sweep.failures.append(PointFailure(
            series=series.label, x=x, error=type(exc).__name__,
            message=str(exc)))
        return
    series.add(x, result)


def _sweep_points(engine: MeasurementEngine, sweep: SweepResult,
                  specs: dict[str, MeasurementSpec],
                  points: list[tuple[float, object, str]]) -> SweepResult:
    """Measure every spec at every ``(x, ctx, suffix)`` point, one series
    per spec, labelling each point ``"<spec label>/<suffix>"`` (the label
    seeds the point's RNG stream)."""
    for label, spec in specs.items():
        series = Series(label=label)
        labels = [f"{label}/{suffix}" for _, _, suffix in points]
        engine.prime(spec, labels)
        for (x, ctx, _), point_label in zip(points, labels):
            _measure_point(engine, sweep, series, spec, ctx, x,
                           label=point_label)
        sweep.series.append(series)
    return sweep


def omp_thread_counts(machine: CpuMachine) -> list[int]:
    """2 .. max hyperthreads (the paper omits 1: no sync needed serially)."""
    return list(range(2, machine.max_threads + 1))


def sweep_omp(machine: CpuMachine, specs: dict[str, MeasurementSpec], *,
              name: str, affinity: Affinity = Affinity.DEFAULT,
              protocol: MeasurementProtocol | None = None,
              thread_counts: list[int] | None = None) -> SweepResult:
    """Run each labelled spec across thread counts on a CPU.

    Returns:
        One sweep with a series per spec label, x = thread count.
    """
    engine = MeasurementEngine(machine, protocol)
    counts = thread_counts or omp_thread_counts(machine)
    sweep = SweepResult(name=name, x_label="threads", unit=machine.time_unit,
                        metadata={"machine": machine.name,
                                  "affinity": affinity.value})
    return _sweep_points(engine, sweep, specs, [
        (n, machine.context(n, affinity), f"t={n}") for n in counts])


def sweep_multigpu(multi: "MultiGpu", specs: dict[str, MeasurementSpec], *,
                   name: str, launch: LaunchConfig,
                   protocol: MeasurementProtocol | None = None,
                   device_counts: tuple[int, ...] = (1, 2, 4, 8)
                   ) -> SweepResult:
    """Run each labelled spec across device counts on a multi-GPU rig.

    Every device runs the same per-device launch shape (a cooperative
    multi-device launch requires it); the swept dimension is the number
    of participating devices.

    Returns:
        One sweep with a series per spec label, x = device count.
    """
    engine = MeasurementEngine(multi, protocol)
    sweep = SweepResult(name=name, x_label="devices",
                        unit=multi.time_unit,
                        metadata={"machine": multi.name,
                                  "interconnect": multi.interconnect.name,
                                  "blocks": launch.grid_blocks,
                                  "block_threads": launch.block_threads})
    return _sweep_points(engine, sweep, specs, [
        (d, multi.context(d, launch), f"d={d}") for d in device_counts])


def sweep_cuda(device: GpuDevice, specs: dict[str, MeasurementSpec], *,
               name: str, block_count: int,
               protocol: MeasurementProtocol | None = None,
               thread_counts: list[int] | None = None) -> SweepResult:
    """Run each labelled spec across per-block thread counts on a GPU.

    Returns:
        One sweep with a series per spec label, x = threads per block.
    """
    engine = MeasurementEngine(device, protocol)
    counts = thread_counts or paper_thread_counts()
    sweep = SweepResult(name=name, x_label="threads_per_block",
                        unit=device.time_unit,
                        metadata={"device": device.name,
                                  "blocks": block_count})
    return _sweep_points(engine, sweep, specs, [
        (n, device.context(LaunchConfig(block_count, n)),
         f"b={block_count}/t={n}") for n in counts])
