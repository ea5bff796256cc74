"""One matrix op process: import the CLI, then run the full matrix.

Run by ``run.py`` as ``python syncbench/matrix_child.py PARAM
[SPANS_OUT]``, where ``PARAM`` is JSON ``{"order": [[system,
"omp"|"cuda"], ...], "warm": W}``: the seeded sweep order and the number
of reruns after the cold matrix.  ``python syncbench/matrix_child.py
setup`` stops after set-up.  See :func:`common.op_process` for the
output and for tracing.

Set-up ends once ``repro.experiments.launch`` (the ``syncperf`` CLI) is
imported.  The cold matrix is the first one this process runs; each
rerun is a warm matrix.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from common import digest_csvs, op_process


def run_matrix(order: list) -> tuple[dict, list[float]]:
    """Run every (system, side) chunk in ``order``; returns the sweeps
    by key and each chunk's wall time in ms."""
    from repro.experiments import matrix as matrix_mod
    sweeps: dict = {}
    chunk_ms: list[float] = []
    for system, side in order:
        start = time.perf_counter()
        part = matrix_mod.run_full_matrix(
            systems=(system,), include_cpu=side == "omp",
            include_gpu=side == "cuda")
        chunk_ms.append((time.perf_counter() - start) * 1e3)
        sweeps.update(part.sweeps)
    return sweeps, chunk_ms


def setup() -> None:
    import repro.experiments.launch  # noqa: F401 - the set-up being timed


def ops(_state, param: dict, tracer) -> dict:
    op_ms, unit_ms, digests, units = [], [], [], 0
    for index in range(1 + param["warm"]):
        start = time.perf_counter()
        with tracer.op(index) if tracer else nullcontext():
            sweeps, chunks = run_matrix(param["order"])
        op_ms.append((time.perf_counter() - start) * 1e3)
        unit_ms.extend(chunks)
        units += len(sweeps)
        digests.append(digest_csvs(
            {key: sweep.to_csv() for key, sweep in sweeps.items()}))
    return {"op_ms": op_ms, "unit_ms": unit_ms, "units": units,
            "digests": digests}


if __name__ == "__main__":
    op_process(setup, ops)
