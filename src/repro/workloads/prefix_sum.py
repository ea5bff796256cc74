"""Prefix sums: barrier-phased data-parallel algorithms.

The GPU version is a block-level Hillis-Steele inclusive scan over
shared memory: log2(n) phases, each separated by ``__syncthreads()`` —
drop one barrier and the result is garbage, which is exactly why barrier
cost matters (Fig. 7).

The CPU version is the classic two-level scan: per-thread local scans,
a barrier, a scan of the per-thread totals, a barrier, then a local
offset fix-up.
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


@dataclass(frozen=True)
class ScanOutcome:
    """Result of one prefix-sum run."""

    values: np.ndarray
    correct: bool
    elapsed: float


def gpu_block_prefix_sum(device: GpuDevice,
                         data: np.ndarray) -> ScanOutcome:
    """Inclusive Hillis-Steele scan of one block's worth of data.

    Raises:
        ConfigurationError: if the input exceeds one block (1024).
    """
    n = int(data.size)
    if not 1 <= n <= 1024:
        raise ConfigurationError(
            f"block scan handles 1..1024 elements, got {n}")

    def kernel(t):
        i = t.threadIdx
        if i < n:
            value = yield t.global_read("data", i)
            yield t.shared_write("buf", i, value)
        offset = 1
        while offset < n:
            yield t.syncthreads()
            addend = 0
            if offset <= i < n:
                addend = yield t.shared_read("buf", i - offset)
            yield t.syncthreads()
            if offset <= i < n:
                mine = yield t.shared_read("buf", i)
                yield t.shared_write("buf", i, mine + addend)
            offset *= 2
        yield t.syncthreads()
        if i < n:
            value = yield t.shared_read("buf", i)
            yield t.global_write("out", i, value)

    out = np.zeros(n, np.int64)
    cuda = Cuda(device)
    result = cuda.launch(
        kernel, LaunchConfig(1, n),
        globals_={"data": data.astype(np.int64), "out": out},
        shared_decls={"buf": (n, np.dtype(np.int64))})
    expected = np.cumsum(data.astype(np.int64))
    return ScanOutcome(values=out,
                       correct=bool((out == expected).all()),
                       elapsed=result.elapsed_cycles)


def gpu_segmented_prefix_sum(device: GpuDevice, data: np.ndarray,
                             block_threads: int = 64) -> ScanOutcome:
    """Per-block inclusive scans over disjoint segments of ``data``.

    Each block scans its own ``block_threads``-sized segment — the first
    phase of a grid-wide scan.

    Raises:
        ConfigurationError: for empty input or a bad block size.
    """
    n = int(data.size)
    if n < 1:
        raise ConfigurationError("segmented scan needs at least 1 element")
    if not 1 <= block_threads <= 1024:
        raise ConfigurationError(
            f"block_threads must be in 1..1024, got {block_threads}")
    grid = -(-n // block_threads)

    def kernel(t):
        base = t.blockIdx * t.blockDim
        i = t.threadIdx
        gi = base + i
        active = gi < n
        if active:
            value = yield t.global_read("data", gi)
            yield t.shared_write("buf", i, value)
        seg = min(t.blockDim, n - base)
        offset = 1
        while offset < seg:
            yield t.syncthreads()
            addend = 0
            if active and offset <= i:
                addend = yield t.shared_read("buf", i - offset)
            yield t.syncthreads()
            if active and offset <= i:
                mine = yield t.shared_read("buf", i)
                yield t.shared_write("buf", i, mine + addend)
            offset *= 2
        if active:
            value = yield t.shared_read("buf", i)
            yield t.global_write("out", gi, value)

    out = np.zeros(n, np.int64)
    cuda = Cuda(device)
    result = cuda.launch(
        kernel, LaunchConfig(grid, block_threads),
        globals_={"data": data.astype(np.int64), "out": out},
        shared_decls={"buf": (block_threads, np.dtype(np.int64))})
    expected = np.concatenate([
        np.cumsum(data.astype(np.int64)[s:s + block_threads])
        for s in range(0, n, block_threads)])
    return ScanOutcome(values=out,
                       correct=bool((out == expected).all()),
                       elapsed=result.elapsed_cycles)


def cpu_prefix_sum(machine: CpuMachine, data: np.ndarray,
                   n_threads: int = 4,
                   detect_races: bool = True) -> ScanOutcome:
    """Two-level inclusive scan on the OpenMP layer.

    Args:
        detect_races: Run the race detector (the default).  The batched
            uniform rounds run either way; turning detection off only
            drops the detector's bookkeeping.
    """
    n = int(data.size)
    per_thread = -(-n // n_threads) if n else 1

    def body(tc):
        start = tc.tid * per_thread
        stop = min(start + per_thread, n)
        # Phase 1: local inclusive scan.
        running = 0
        for i in range(start, stop):
            value = yield tc.read("data", i)
            running += value
            yield tc.write("out", i, running)
        yield tc.atomic_write("totals", tc.tid, running)
        yield tc.barrier()
        # Phase 2: thread 0 scans the totals into offsets.
        if tc.tid == 0:
            acc = 0
            for t in range(tc.n_threads):
                total = yield tc.atomic_read("totals", t)
                yield tc.atomic_write("offsets", t, acc)
                acc += total
        yield tc.barrier()
        # Phase 3: add this thread's offset to its chunk.
        offset = yield tc.atomic_read("offsets", tc.tid)
        if offset:
            for i in range(start, stop):
                value = yield tc.read("out", i)
                yield tc.write("out", i, value + offset)

    omp = OpenMP(machine, n_threads=n_threads,
                 detect_races=detect_races)
    shared = {
        "data": data.astype(np.int64),
        "out": np.zeros(max(n, 1), np.int64),
        "totals": np.zeros(n_threads, np.int64),
        "offsets": np.zeros(n_threads, np.int64),
    }
    result = omp.parallel(body, shared=shared)
    out = result.memory["out"][:n]
    expected = np.cumsum(data.astype(np.int64))
    return ScanOutcome(values=out,
                       correct=bool((out == expected).all()),
                       elapsed=result.elapsed_ns)
