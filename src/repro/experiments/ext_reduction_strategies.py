"""Extension: OpenMP reduction strategies head to head.

The paper's recommendations imply an ordering for implementing a
reduction on the CPU: privatized per-thread accumulators (V-A5 (3)) beat
a shared atomic accumulator (V-A5 (2)), which beats a critical section
(V-A5 (5)).  This extension experiment runs all three strategies as real
programs on the OpenMP interpreter and checks both correctness and the
predicted ordering.
"""

from __future__ import annotations

from repro.analysis.trends import TrendCheck, check
from repro.cpu.machine import CpuMachine
from repro.cpu.presets import cpu_preset
from repro.openmp.interpreter import OpenMP
from repro.openmp.worksharing import ReduceOutcome, parallel_reduce

STRATEGIES = ("atomic", "critical", "privatized")


def run_reduction_strategies(machine: CpuMachine | None = None,
                             n: int = 1024, n_threads: int = 16
                             ) -> dict[str, ReduceOutcome]:
    """Sum 0..n-1 with each strategy on a paper CPU.

    The strategies run on the interpreter's batched uniform rounds
    (race detection off — the bodies are race-free by construction);
    one extra ``fast=False`` run of the atomic strategy, the scalar
    reference sweep, rides along under the ``"atomic_reference"`` key
    so the claims can assert dispatch parity.
    """
    machine = machine or cpu_preset(3)
    omp = OpenMP(machine, n_threads=n_threads, detect_races=False)
    outcomes = {strategy: parallel_reduce(omp, n, float, strategy=strategy)
                for strategy in STRATEGIES}
    scalar = OpenMP(machine, n_threads=n_threads, detect_races=False,
                    fast=False)
    outcomes["atomic_reference"] = parallel_reduce(scalar, n, float,
                                                   strategy="atomic")
    return outcomes


def claims_reduction_strategies(outcomes: dict[str, ReduceOutcome]
                                ) -> list[TrendCheck]:
    """Verify correctness, the predicted ordering, and dispatch parity."""
    reference = outcomes.get("atomic_reference")
    outcomes = {s: o for s, o in outcomes.items()
                if s != "atomic_reference"}
    # All strategies must agree on the value.
    values = {s: o.value for s, o in outcomes.items()}
    times = {s: o.result.elapsed_ns for s, o in outcomes.items()}
    agree = len({round(v, 6) for v in values.values()}) == 1
    checks = [] if reference is None else [
        check("batched and scalar dispatch agree on the atomic strategy",
              reference.value == outcomes["atomic"].value
              and reference.result.elapsed_ns
              == outcomes["atomic"].result.elapsed_ns),
    ]
    return checks + [
        check("all three strategies compute the same sum", agree,
              detail=f"values={values}"),
        check("privatized reduction is fastest (V-A5 (3))",
              times["privatized"] < min(times["atomic"],
                                        times["critical"]),
              detail=", ".join(f"{s}={t / 1e3:.1f}us"
                               for s, t in times.items())),
        check("critical section is slowest (V-A5 (5))",
              times["critical"] > max(times["atomic"],
                                      times["privatized"])),
    ]
