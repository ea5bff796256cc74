"""One kernels op process: build the machines, then run every program
twice — on fresh seeded inputs, then again on identical inputs.

Run by ``run.py`` as ``python syncbench/kernels_child.py SEED
[SPANS_OUT]``, or with ``setup`` alone to stop after set-up.  See
:func:`common.op_process` for the output and for tracing.  Set-up ends
once the simulator is imported and the machines are built.

The programs are Listing 1's five reductions, the
``examples/workload_gallery.py`` tour and the two multi-GPU workloads.
The fresh pass misses the dispatcher's content replay; the repeat pass
is served from it wherever a kernel is eligible.  Both passes must be
byte-identical, simulated cycles included.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from common import canonical_bytes, op_process, sha256_hex


def build_machines() -> dict:
    """The simulated machines every program runs on."""
    from repro.cpu.presets import SYSTEM3_CPU
    from repro.experiments.listing1 import mini_gpu
    from repro.gpu.multi import MultiGpu
    return {"cpu": SYSTEM3_CPU, "gallery_gpu": mini_gpu(sm_count=4),
            "listing_gpu": mini_gpu(),
            "multi": MultiGpu(mini_gpu(sm_count=4))}


def make_inputs(seed: int) -> dict:
    """Seeded inputs for every program (same seed, same inputs)."""
    import numpy as np
    from repro.workloads.bfs import random_graph
    rng = np.random.default_rng(seed)
    return {
        "listing_data": rng.integers(-2 ** 20, 2 ** 20,
                                     size=16384).astype(np.int32),
        "hist": rng.integers(0, 8, size=2048).astype(np.int64),
        "scan": rng.integers(-100, 100, size=256),
        "field": rng.normal(size=64),
        "sort": rng.integers(-500, 500, 256),
        "graph": random_graph(64, avg_degree=4, seed=seed % 2 ** 31),
        "mg_graph": random_graph(48, avg_degree=3,
                                 seed=(seed + 1) % 2 ** 31),
        "mg_field": rng.normal(size=24),
    }


def programs(machines: dict, inputs: dict) -> list:
    """``(name, thunk)`` per program; each thunk gets fresh input copies
    so a program cannot see another pass's mutations."""
    from repro.reductions import compare_reductions
    from repro.workloads import (compare_barriers, cpu_histogram,
                                 cpu_jacobi, cpu_pipeline, cpu_prefix_sum,
                                 gpu_bfs, gpu_bitonic_sort,
                                 gpu_block_prefix_sum, gpu_histogram)
    from repro.workloads.bfs import multi_gpu_bfs
    from repro.workloads.stencil import multi_gpu_jacobi
    cpu, gpu = machines["cpu"], machines["gallery_gpu"]
    multi = machines["multi"]

    def copy(name):
        value = inputs[name]
        if isinstance(value, tuple):
            return tuple(v.copy() for v in value)
        return value.copy()

    return [
        ("listing1", lambda: compare_reductions(
            machines["listing_gpu"], copy("listing_data"),
            block_threads=64)),
        ("cpu_histogram_atomic", lambda: cpu_histogram(
            cpu, copy("hist"), 8, strategy="atomic")),
        ("cpu_histogram_privatized", lambda: cpu_histogram(
            cpu, copy("hist"), 8, strategy="privatized")),
        ("gpu_histogram_global", lambda: gpu_histogram(
            gpu, copy("hist"), 8, strategy="global")),
        ("gpu_histogram_shared", lambda: gpu_histogram(
            gpu, copy("hist"), 8, strategy="shared")),
        ("gpu_block_prefix_sum", lambda: gpu_block_prefix_sum(
            gpu, copy("scan"))),
        ("cpu_prefix_sum", lambda: cpu_prefix_sum(
            cpu, copy("scan"), n_threads=8)),
        ("cpu_jacobi", lambda: cpu_jacobi(
            cpu, copy("field"), iterations=5, n_threads=8)),
        ("cpu_pipeline", lambda: cpu_pipeline(
            cpu, items_per_producer=16, n_threads=4, queue_slots=4)),
        ("gpu_bfs", lambda: gpu_bfs(gpu, *copy("graph"))),
        ("gpu_bitonic_sort", lambda: gpu_bitonic_sort(
            gpu, copy("sort"), trace=True)),
        ("compare_barriers", lambda: compare_barriers(
            cpu, n_threads=8, rounds=8)),
        ("multi_gpu_bfs", lambda: multi_gpu_bfs(
            multi, *copy("mg_graph"), n_devices=2, grid_blocks=2,
            block_threads=8)),
        ("multi_gpu_jacobi", lambda: multi_gpu_jacobi(
            multi, copy("mg_field"), iterations=3, n_devices=2,
            grid_blocks=1, block_threads=8)),
    ]


def correct(outcome) -> bool:
    """A program's own validation against its sequential reference."""
    if isinstance(outcome, dict):  # Listing 1: name -> outcome
        return all(o.correct for o in outcome.values())
    return bool(outcome.correct)


def run_pass(progs: list, tracer) -> tuple[list, list, bool]:
    """Run every program once; returns outcomes, per-program ms and
    whether every program validated."""
    outcomes, times = [], []
    for _name, thunk in progs:
        start = time.perf_counter()
        if tracer is not None:
            index = tracer.begin("workloads.check")
            try:
                outcome = thunk()
            finally:
                tracer.end(index)
        else:
            outcome = thunk()
        times.append((time.perf_counter() - start) * 1e3)
        outcomes.append(outcome)
    return outcomes, times, all(correct(o) for o in outcomes)


def setup() -> dict:
    machines = build_machines()
    # Everything the programs import is part of the timed set-up.
    import repro.reductions  # noqa: F401
    import repro.workloads.bfs  # noqa: F401
    import repro.workloads.stencil  # noqa: F401
    return machines


def ops(machines: dict, seed: int, tracer) -> dict:
    inputs = make_inputs(seed)
    op_ms, unit_ms, valid, digests = [], [], [], []
    for op_id in range(2):
        progs = programs(machines, inputs)
        start = time.perf_counter()
        with tracer.op(op_id) if tracer else nullcontext():
            outcomes, times, ok = run_pass(progs, tracer)
        op_ms.append((time.perf_counter() - start) * 1e3)
        unit_ms.extend(times)
        valid.append(ok)
        digests.append(sha256_hex(canonical_bytes(outcomes)))
    return {"op_ms": op_ms, "unit_ms": unit_ms, "units": 2 * len(progs),
            "valid": valid, "digests": digests}


if __name__ == "__main__":
    op_process(setup, ops)
