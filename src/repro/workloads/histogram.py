"""Histograms: the canonical contended-atomics workload.

CPU strategies:

* ``atomic`` — every thread atomically bumps the shared bins; correct
  but contended when bins are few (the V-A5 (2) anti-pattern).
* ``privatized`` — per-thread bins padded to separate cache lines,
  merged after a barrier (the V-A5 (3) layout).

GPU strategies:

* ``global`` — ``atomicAdd`` straight into device memory.
* ``shared`` — per-block shared-memory bins (block-scoped atomics),
  flushed to global bins once per block; the standard CUDA optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.cpu.machine import CpuMachine
from repro.cuda.interpreter import Cuda
from repro.gpu.device import GpuDevice
from repro.gpu.spec import LaunchConfig
from repro.openmp.interpreter import OpenMP

#: Padding so each thread's private bin row gets its own 64 B line.
_LINE_INTS = 16


@dataclass(frozen=True)
class HistogramOutcome:
    """Result of one histogram run.

    Attributes:
        bins: The computed histogram.
        correct: Matches ``numpy.bincount``.
        elapsed: Modeled runtime (ns on CPU, cycles on GPU).
        strategy: Which strategy ran.
    """

    bins: np.ndarray
    correct: bool
    elapsed: float
    strategy: str


def _reference(data: np.ndarray, n_bins: int) -> np.ndarray:
    return np.bincount(data, minlength=n_bins).astype(np.int64)


def cpu_histogram(machine: CpuMachine, data: np.ndarray, n_bins: int,
                  n_threads: int = 8,
                  strategy: str = "privatized",
                  detect_races: bool = True) -> HistogramOutcome:
    """Histogram ``data`` (ints in [0, n_bins)) on the OpenMP layer.

    Args:
        detect_races: Run the race detector (the default).  The batched
            uniform rounds run either way; turning detection off only
            drops the detector's bookkeeping (the benchmark suite does
            this to time the scheduler alone).
    """
    if strategy not in ("atomic", "privatized"):
        raise ConfigurationError(f"unknown CPU strategy {strategy!r}")
    if data.size and (data.min() < 0 or data.max() >= n_bins):
        raise ConfigurationError("data out of bin range")
    omp = OpenMP(machine, n_threads=n_threads, detect_races=detect_races)
    shared = {"bins": np.zeros(n_bins, np.int64)}
    if strategy == "privatized":
        row = max(n_bins, _LINE_INTS)
        shared["private"] = np.zeros(n_threads * row, np.int64)

    per_thread = -(-data.size // n_threads)

    def chunk(tid: int) -> np.ndarray:
        return data[tid * per_thread:(tid + 1) * per_thread]

    def atomic_body(tc):
        for value in chunk(tc.tid):
            yield tc.atomic_update("bins", int(value), lambda v: v + 1)

    def privatized_body(tc):
        row = max(n_bins, _LINE_INTS)
        base = tc.tid * row
        for value in chunk(tc.tid):
            idx = base + int(value)
            count = yield tc.read("private", idx)
            yield tc.write("private", idx, count + 1)
        yield tc.barrier()
        # Bins are merged bin-major: thread b owns bin b, b+T, ...
        for bin_ in range(tc.tid, n_bins, tc.n_threads):
            total = 0
            for t in range(tc.n_threads):
                total += yield tc.read("private", t * row + bin_)
            yield tc.atomic_write("bins", bin_, total)

    body = atomic_body if strategy == "atomic" else privatized_body
    result = omp.parallel(body, shared=shared)
    bins = result.memory["bins"]
    return HistogramOutcome(
        bins=bins,
        correct=bool((bins == _reference(data, n_bins)).all()),
        elapsed=result.elapsed_ns,
        strategy=strategy,
    )


def gpu_histogram(device: GpuDevice, data: np.ndarray, n_bins: int,
                  block_threads: int = 64,
                  strategy: str = "shared") -> HistogramOutcome:
    """Histogram ``data`` on the CUDA layer (one element per thread)."""
    if strategy not in ("global", "shared"):
        raise ConfigurationError(f"unknown GPU strategy {strategy!r}")
    size = int(data.size)
    grid = max(1, -(-size // block_threads))

    def global_kernel(t):
        i = t.global_id
        if i < size:
            value = yield t.global_read("data", i)
            yield t.atomic_add("bins", int(value), 1)

    def shared_kernel(t):
        # Zero the block's shared bins cooperatively.
        for bin_ in range(t.threadIdx, n_bins, t.blockDim):
            yield t.shared_write("block_bins", bin_, 0)
        yield t.syncthreads()
        i = t.global_id
        if i < size:
            value = yield t.global_read("data", i)
            yield t.atomic_add("block_bins", int(value), 1)
        yield t.syncthreads()
        for bin_ in range(t.threadIdx, n_bins, t.blockDim):
            count = yield t.shared_read("block_bins", bin_)
            if count:
                yield t.atomic_add("bins", bin_, int(count))

    bins = np.zeros(n_bins, np.int64)
    cuda = Cuda(device)
    kernel = global_kernel if strategy == "global" else shared_kernel
    out = cuda.launch(kernel, LaunchConfig(grid, block_threads),
                      globals_={"data": data.astype(np.int32),
                                "bins": bins},
                      shared_decls={"block_bins":
                                    (n_bins, np.dtype(np.int64))})
    return HistogramOutcome(
        bins=bins,
        correct=bool((bins == _reference(data, n_bins)).all()),
        elapsed=out.elapsed_cycles,
        strategy=strategy,
    )
