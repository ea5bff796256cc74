"""The engine benchmark suite: ``python -m repro.bench``.

Times the measurement fast path against the retained scalar reference
path (:func:`repro.core.engine.reference_engine`) at four granularities
— the raw protocol kernel, a representative sweep, the kernel
interpreters (``interp_*`` rows: CUDA/OpenMP workloads under batched
uniform-pass dispatch and the content-replay tier vs the scalar
schedulers, and the ``dispatch_replay`` row: cold dispatch vs warm
replay), and a full campaign (serial vs ``jobs=N``) — and
writes ``BENCH_engine.json`` at the repo root in a stable schema so the
performance trajectory is tracked across PRs:

.. code-block:: json

    {
      "schema": "syncperf-bench/v1",
      "mode": "full",
      "benchmarks": [
        {"id": "engine_kernel_cpu", "reference_s": ..., "fast_s": ...,
         "speedup": ...},
        {"id": "campaign", "reference_s": <serial>, "fast_s": <jobs=N>,
         "speedup": ..., "jobs": N}
      ]
    }

``reference_s`` is always the slow configuration (scalar path, or the
serial campaign) and ``fast_s`` the fast one, so ``speedup`` reads the
same way for every row.  The speedup numbers are regression-guarded by
the CI smoke job (``python -m repro.bench --smoke``), which also fails
when the campaign smoke exceeds a generous wall-clock ceiling.

Determinism: every benchmark run re-verifies that fast and reference
paths produce identical sweep CSV bytes before timing them — a speedup
measured against a divergent baseline would be meaningless.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Callable

from repro.common.errors import SimulationError
from repro.core.engine import MeasurementEngine, reference_engine
from repro.obs import counter_value
from repro.experiments.campaign import run_campaign
from repro.faults.scenario import use_faults

SCHEMA = "syncperf-bench/v1"

#: Experiment ids of the campaign benchmark (big enough that process
#: fan-out amortizes worker startup).
CAMPAIGN_IDS = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "ext-cross-system"]
CAMPAIGN_IDS_SMOKE = ["fig1", "fig2", "fig5", "fig7", "fig9"]


def default_output_path() -> Path:
    """``BENCH_engine.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "BENCH_engine.json"


def _best_of(func: Callable[[], object], repeats: int) -> float:
    """Wall-clock seconds of ``func``, best of ``repeats`` (min is the
    standard noise-robust statistic for benchmark timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _row(bench_id: str, reference_s: float, fast_s: float,
         **extra: object) -> dict:
    row = {
        "id": bench_id,
        "reference_s": round(reference_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(reference_s / fast_s, 2) if fast_s > 0
        else float("inf"),
    }
    row.update(extra)
    return row


# ------------------------------ kernels -------------------------------- #


def _cpu_kernel_case():
    from repro.cpu.presets import cpu_preset
    from repro.experiments.base import omp_atomic_update_scalar_spec
    from repro.common.datatypes import INT
    machine = cpu_preset(1)
    spec = omp_atomic_update_scalar_spec(INT)
    counts = list(range(2, machine.max_threads + 1))
    return machine, spec, [(machine.context(n), f"t={n}") for n in counts]


def _gpu_kernel_case():
    from repro.gpu.presets import gpu_preset
    from repro.experiments.base import cuda_atomic_scalar_spec
    from repro.common.datatypes import INT
    from repro.compiler.ops import PrimitiveKind
    from repro.gpu.spec import LaunchConfig, paper_thread_counts
    device = gpu_preset(1)
    spec = cuda_atomic_scalar_spec(PrimitiveKind.ATOMIC_ADD, INT)
    return device, spec, [(device.context(LaunchConfig(2, n)),
                           f"b=2/t={n}") for n in paper_thread_counts()]


def _bench_kernel(bench_id: str, case, repeats: int) -> dict:
    """Time the protocol kernel over one series, fast vs reference."""
    machine, spec, points = case()
    labels = [label for _, label in points]

    def run_fast():
        engine = MeasurementEngine(machine, fast=True)
        engine.prime(spec, labels)
        return [engine.measure(spec, ctx, label=label)
                for ctx, label in points]

    def run_reference():
        engine = MeasurementEngine(machine, fast=False)
        return [engine.measure(spec, ctx, label=label)
                for ctx, label in points]

    if run_fast() != run_reference():
        raise SimulationError(
            f"{bench_id}: fast path diverged from the reference path; "
            f"refusing to benchmark a broken fast path")
    return _row(bench_id,
                _best_of(run_reference, repeats),
                _best_of(run_fast, repeats),
                points=len(points))


# ------------------------------- sweeps -------------------------------- #


def _bench_sweep(bench_id: str, producer: Callable[[], object],
                 repeats: int) -> dict:
    """Time a representative experiment sweep, fast vs reference."""
    with reference_engine():
        ref_result = producer()
    fast_result = producer()
    if fast_result.to_csv() != ref_result.to_csv():
        raise SimulationError(
            f"{bench_id}: fast path diverged from the reference path; "
            f"refusing to benchmark a broken fast path")

    def run_reference():
        with reference_engine():
            producer()

    return _row(bench_id, _best_of(run_reference, repeats),
                _best_of(producer, repeats))


# ---------------------------- interpreters ----------------------------- #


#: Counters witnessing that the fast side actually ran fast machinery:
#: the batched uniform-pass dispatchers plus the content-replay tier
#: (replay hits bypass the pass counters).
_DISPATCH_COUNTERS = ("dispatch.hit",)


def _bench_interp(bench_id: str, producer: Callable[[], object],
                  counter_name: str, repeats: int) -> dict:
    """Time a kernel-interpreter workload, fast vs reference.

    ``counter_name`` names the public :mod:`repro.obs` engagement
    counter of the batched dispatcher (``interp.cuda.uniform_passes``
    or ``interp.omp.uniform_rounds``); together with the ``dispatch.*``
    tier counters it witnesses the fast side.  The row is refused when
    neither the batched dispatcher nor a dispatch tier ran on the fast
    side, or when any of them ran during the reference timing — either
    way the speedup would be meaningless.
    """
    witnesses = (counter_name,) + _DISPATCH_COUNTERS
    engaged = {name: counter_value(name) for name in witnesses}
    fast_result = producer()
    if all(counter_value(n) == engaged[n] for n in witnesses):
        raise SimulationError(
            f"{bench_id}: no fast machinery ran on the fast path "
            f"({counter_name} and the replay tier unchanged); refusing "
            f"to benchmark")
    engaged = {name: counter_value(name) for name in witnesses}
    with reference_engine():
        ref_result = producer()
    if any(counter_value(n) != engaged[n] for n in witnesses):
        raise SimulationError(
            f"{bench_id}: reference timing accidentally used the fast "
            f"path ({counter_name} or a dispatch tier moved); refusing "
            f"to benchmark")
    if fast_result != ref_result:
        raise SimulationError(
            f"{bench_id}: fast path diverged from the reference path; "
            f"refusing to benchmark a broken fast path")

    def run_reference():
        with reference_engine():
            producer()

    return _row(bench_id, _best_of(run_reference, repeats),
                _best_of(producer, repeats))


def _interp_cuda_stream():
    """Coalesced load/compute/store sweeps (uniform warp passes)."""
    import numpy as np
    from repro.cuda.interpreter import Cuda
    from repro.gpu.presets import gpu_preset
    from repro.gpu.spec import LaunchConfig

    def kernel(t):
        tid = t.global_id
        for _ in range(8):
            value = yield t.global_read("a", tid)
            yield t.global_write("b", tid, value * 2.0)
            yield t.alu(2)

    device = gpu_preset(1)
    n = 24 * 64
    a = np.arange(n, dtype=np.float64)
    b = np.zeros(n)
    result = Cuda(device).launch(kernel, LaunchConfig(24, 64),
                                 globals_={"a": a, "b": b})
    return (result.elapsed_cycles, b.tobytes())


def _interp_cuda_sync():
    """Fence/syncwarp-heavy kernel — the paper's sync-primitive shape."""
    from repro.cuda.interpreter import Cuda
    from repro.gpu.presets import gpu_preset
    from repro.gpu.spec import LaunchConfig

    def kernel(t):
        for _ in range(16):
            yield t.threadfence()
            yield t.syncwarp()

    device = gpu_preset(1)
    result = Cuda(device).launch(kernel, LaunchConfig(16, 64))
    return (result.elapsed_cycles,)


def _interp_cuda_histogram():
    import numpy as np
    from repro.gpu.presets import gpu_preset
    from repro.workloads.histogram import gpu_histogram
    data = (np.arange(2048, dtype=np.int64) * 7919) % 64
    out = gpu_histogram(gpu_preset(1), data, 64, strategy="shared")
    return (out.elapsed, out.correct, out.bins.tobytes())


def _make_interp_cuda_bfs() -> Callable[[], object]:
    """BFS producer with the graph hoisted out of the timed body (the
    generator costs the same on both sides and would dilute the row)."""
    from repro.gpu.presets import gpu_preset
    from repro.workloads.bfs import gpu_bfs, random_graph
    row_ptr, cols = random_graph(96, avg_degree=4, seed=1)
    device = gpu_preset(1)

    def producer():
        out = gpu_bfs(device, row_ptr, cols)
        return (out.elapsed, out.correct, out.levels,
                out.distances.tobytes())

    return producer


def _interp_omp_histogram():
    import numpy as np
    from repro.cpu.presets import cpu_preset
    from repro.workloads.histogram import cpu_histogram
    data = (np.arange(1600, dtype=np.int64) * 271) % 32
    out = cpu_histogram(cpu_preset(1), data, 32, strategy="atomic",
                        detect_races=False)
    return (out.elapsed, out.correct, out.bins.tobytes())


def _interp_omp_prefix_sum():
    import numpy as np
    from repro.cpu.presets import cpu_preset
    from repro.workloads.prefix_sum import cpu_prefix_sum
    data = (np.arange(1600, dtype=np.int64) * 31) % 100
    out = cpu_prefix_sum(cpu_preset(1), data, detect_races=False)
    return (out.elapsed, out.correct, out.values.tobytes())


# ------------------------------ dispatcher ----------------------------- #


def _dispatch_case():
    """A pure multi-block kernel the dispatcher can replay."""
    import numpy as np
    from repro.cuda.interpreter import Cuda
    from repro.gpu.presets import gpu_preset
    from repro.gpu.spec import LaunchConfig

    def kernel(t):
        tid = t.global_id
        acc = 0
        for i in range(6):
            value = yield t.global_read("a", tid)
            yield t.alu(2)
            acc = acc + value * (i + 1)
        yield t.global_write("b", tid, acc)
        yield t.syncthreads()
        total = yield t.global_read("b", tid)
        yield t.atomic_add("c", t.blockIdx, total)

    device = gpu_preset(1)
    launch = LaunchConfig(16, 64)
    n = 16 * 64

    def run(a: "np.ndarray"):
        memory = {"a": a, "b": np.zeros(n, dtype=np.int64),
                  "c": np.zeros(16, dtype=np.int64)}
        result = Cuda(device).launch(kernel, launch, memory)
        return (result.elapsed_cycles, memory["b"].tobytes(),
                memory["c"].tobytes())

    return run, n


def _bench_dispatch_replay(repeats: int) -> dict:
    """Cold dispatch (cache cleared every run) vs warm replay hits.

    Identical launches hit the dispatcher's replay cache and skip
    execution entirely; the row prices that steady-state win against
    the cold cost of keying + running + recording the same launch on
    the batched fast tier.
    Both sides must produce identical results and the warm side must
    actually hit (``dispatch.hit`` moving is the engagement witness).
    """
    import numpy as np
    from repro.compiler.dispatcher import DISPATCHER
    run, n = _dispatch_case()
    a = (np.arange(n, dtype=np.int64) * 13) % 97

    def run_cold():
        DISPATCHER.clear()
        return run(a.copy())

    def run_warm():
        return run(a.copy())

    cold_result = run_cold()
    prime = run_warm()  # record once, then every warm run replays
    hits = counter_value("dispatch.hit")
    warm_result = run_warm()
    if counter_value("dispatch.hit") == hits:
        raise SimulationError(
            "dispatch_replay: warm launch missed the replay cache; "
            "refusing to benchmark")
    if not (cold_result == prime == warm_result):
        raise SimulationError(
            "dispatch_replay: replay diverged from cold execution; "
            "refusing to benchmark a broken cache")
    return _row("dispatch_replay", _best_of(run_cold, repeats),
                _best_of(run_warm, repeats))


# ------------------------------- service ------------------------------- #


def _bench_service(repeats: int) -> list[dict]:
    """Service dispatch overhead: cache hit vs cold miss vs bare engine.

    Inline-mode service (no worker processes, no faults), so the rows
    time the orchestration layers themselves:

    * ``service_cached_hit`` — a cold miss (full measurement through
      the service) vs a warm content-addressed cache hit;
    * ``service_cold_miss`` — the same cold miss vs calling the engine
      directly, i.e. what validation + policy + cache accounting cost
      on top of the measurement.

    All three paths must produce the identical result payload before
    timing — a cache that answered differently from measuring would
    make the speedup (and the cache) meaningless.
    """
    import tempfile
    from repro.service.catalog import MeasureRequest, execute_request
    from repro.service.core import MeasurementService, ServiceConfig

    payload = {"primitive": "omp_atomic", "threads": 8}
    request = MeasureRequest.from_json(dict(payload))

    with tempfile.TemporaryDirectory() as tmp:
        cold_service = MeasurementService(ServiceConfig(workers=0))
        warm_service = MeasurementService(
            ServiceConfig(workers=0, cache_dir=tmp, cache_ttl_s=1e9))

        def run_cold() -> dict:
            return cold_service.submit(dict(payload))

        def run_hit() -> dict:
            return warm_service.submit(dict(payload))

        def run_direct() -> dict:
            return execute_request(request)

        prime = run_hit()  # populate the cache
        hit = run_hit()
        cold = run_cold()
        direct = run_direct()
        if hit.get("cache") != "hit" or prime.get("cache") != "miss":
            raise SimulationError(
                "service bench: warm submit did not hit the cache; "
                "refusing to benchmark")
        if not (hit["result"] == cold["result"] == direct):
            raise SimulationError(
                "service bench: cache hit diverged from measuring; "
                "refusing to benchmark")
        cold_s = _best_of(run_cold, repeats)
        return [
            _row("service_cached_hit", cold_s,
                 _best_of(run_hit, repeats)),
            _row("service_cold_miss", cold_s,
                 _best_of(run_direct, repeats)),
        ]


def _bench_obs_tracing(repeats: int) -> dict:
    """Price the tracing/attribution machinery on the hot serving path.

    Three variants of the same warm cache-hit request:

    * attribution off, untraced — the pre-observability fast path (the
      recorder-off budget baseline);
    * attribution on, untraced — the default service configuration;
    * attribution on + a trace context on every request — full
      cross-process tracing.

    The row's ``speedup`` is traced vs untraced (how much a trace
    costs when you ask for one); ``overhead_off_pct`` is the
    attribution-on tax over the attribution-off baseline — the number
    the <5% recorder-off overhead budget constrains.
    """
    import tempfile
    from repro.obs.context import TraceContext
    from repro.service.core import MeasurementService, ServiceConfig

    payload = {"primitive": "omp_atomic", "threads": 8}

    with tempfile.TemporaryDirectory() as tmp:
        plain = MeasurementService(ServiceConfig(
            workers=0, cache_dir=Path(tmp) / "off", cache_ttl_s=1e9,
            attribution=False))
        attr = MeasurementService(ServiceConfig(
            workers=0, cache_dir=Path(tmp) / "on", cache_ttl_s=1e9))

        # A warm hit is ~100 µs, far below timer noise for a single
        # call: each timing sample is a batch of submissions, sized so
        # one sample is tens of milliseconds — the <5% budget on the
        # plain/attr gap is only a few µs per hit, well under timer
        # noise at smaller batches.
        batch = 300

        def run_plain() -> None:
            for _ in range(batch):
                plain.submit(dict(payload))

        def run_attr() -> None:
            for _ in range(batch):
                attr.submit(dict(payload))

        def run_traced() -> None:
            for _ in range(batch):
                attr.submit(dict(
                    payload, trace=TraceContext.new().to_wire()))

        for service in (plain, attr):
            if service.submit(dict(payload)).get("status") != "served":
                raise SimulationError(
                    "obs tracing bench: warm-up submit failed; "
                    "refusing to benchmark")
        if attr.submit(dict(
                payload,
                trace=TraceContext.new().to_wire())).get("cache") \
                != "hit":
            raise SimulationError(
                "obs tracing bench: traced submit missed the warm "
                "cache; refusing to benchmark")
        # overhead_off_pct is a small difference of two ~100 µs
        # timings; timing each variant in its own contiguous window
        # lets CPU-frequency/load drift between the windows swamp the
        # real gap.  Interleave the variants round-robin and take the
        # per-variant minimum so every round sees the same machine.
        best = [float("inf")] * 3
        for _ in range(max(repeats, 7)):
            for i, fn in enumerate((run_plain, run_attr, run_traced)):
                start = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - start)
        plain_s, attr_s, traced_s = (b / batch for b in best)
        return _row("obs_tracing_overhead", traced_s, attr_s,
                    baseline_s=round(plain_s, 6),
                    overhead_off_pct=round(
                        (attr_s - plain_s) / plain_s * 100.0, 1)
                    if plain_s > 0 else 0.0)


# ------------------------------ campaign ------------------------------- #


def _bench_campaign(ids: list[str], jobs: int) -> dict:
    """Time a full campaign, serial vs ``jobs=N`` (one shot each: the
    campaign is the macro-benchmark and repeats would double runtime)."""

    def run(n_jobs: int) -> None:
        run_campaign(ids, jobs=n_jobs, log=lambda _msg: None)

    serial_s = _best_of(lambda: run(1), 1)
    parallel_s = _best_of(lambda: run(jobs), 1)
    return _row("campaign", serial_s, parallel_s,
                jobs=jobs, experiments=len(ids))


# ------------------------------- compare ------------------------------- #


def diff_payloads(new: dict, old: dict, tolerance: float) -> list[dict]:
    """Row-by-row delta report between two bench payloads.

    Every row present in *either* payload yields one entry —
    ``{"id", "old_speedup", "new_speedup", "delta_pct", "status"}`` —
    so one-sided rows are reported (status ``added`` / ``removed``)
    rather than silently dropped when the suite grows or a row is
    renamed.  Shared rows get status ``ok``, or ``regressed`` (with a
    ``floor`` key) when the fresh speedup falls more than ``tolerance``
    (a fraction, e.g. ``0.2`` = 20%) below the prior one.  The
    ``campaign`` row is ``skipped`` when the two payloads ran in
    different modes: the smoke campaign is a shorter experiment set
    than the full one, so their speedups are not comparable.
    """
    cross_mode = new.get("mode") != old.get("mode")
    old_rows = {row["id"]: row for row in old.get("benchmarks", [])}
    new_ids: set[str] = set()
    report = []
    for row in new.get("benchmarks", []):
        new_ids.add(row["id"])
        prior = old_rows.get(row["id"])
        if prior is None:
            report.append({"id": row["id"], "old_speedup": None,
                           "new_speedup": row["speedup"],
                           "delta_pct": None, "status": "added"})
            continue
        delta = (row["speedup"] / prior["speedup"] - 1.0) * 100 \
            if prior["speedup"] else float("inf")
        entry = {"id": row["id"], "old_speedup": prior["speedup"],
                 "new_speedup": row["speedup"],
                 "delta_pct": round(delta, 1)}
        floor = prior["speedup"] * (1.0 - tolerance)
        if cross_mode and row["id"] == "campaign":
            entry["status"] = "skipped"
        elif row["speedup"] < floor:
            entry["status"] = "regressed"
            entry["floor"] = round(floor, 2)
        else:
            entry["status"] = "ok"
        report.append(entry)
    for row_id in sorted(set(old_rows) - new_ids):
        report.append({"id": row_id,
                       "old_speedup": old_rows[row_id]["speedup"],
                       "new_speedup": None, "delta_pct": None,
                       "status": "removed"})
    return report


def compare_payloads(new: dict, old: dict, tolerance: float) -> list[dict]:
    """Diff two bench payloads row-by-row; returns the regressions.

    Only shared rows whose speedup fell past ``tolerance`` fail a
    comparison — ``added`` / ``removed`` rows are informational (new
    rows appear as the suite grows, and renamed rows should not brick
    history); :func:`diff_payloads` carries the full per-row report.
    """
    return [{"id": e["id"], "old_speedup": e["old_speedup"],
             "new_speedup": e["new_speedup"], "floor": e["floor"]}
            for e in diff_payloads(new, old, tolerance)
            if e["status"] == "regressed"]


def print_comparison(new: dict, old: dict, tolerance: float,
                     regressions: list[dict]) -> None:
    """Human-readable row-by-row delta table for ``--compare``.

    ``regressions`` (the :func:`compare_payloads` result the caller
    already holds) is accepted for interface stability; the table is
    derived from the full :func:`diff_payloads` report so one-sided
    rows show up labeled instead of vanishing.
    """
    del regressions  # the diff below carries the regression verdicts
    markers = {"regressed": "  REGRESSED", "added": "  added",
               "removed": "  removed",
               "skipped": "  skipped (mode differs)"}
    print(f"\ncomparison (tolerance {tolerance:.0%}):")
    print(f"{'benchmark':<28s} {'old':>8s} {'new':>8s} {'delta':>8s}")
    for entry in diff_payloads(new, old, tolerance):
        old_s = f"{entry['old_speedup']:>7.2f}x" \
            if entry["old_speedup"] is not None else f"{'-':>8s}"
        new_s = f"{entry['new_speedup']:>7.2f}x" \
            if entry["new_speedup"] is not None else f"{'-':>8s}"
        delta_s = f"{entry['delta_pct']:>+7.1f}%" \
            if entry["delta_pct"] is not None else f"{'-':>8s}"
        print(f"{entry['id']:<28s} {old_s} {new_s} {delta_s}"
              f"{markers.get(entry['status'], '')}")


# -------------------------------- main --------------------------------- #


def run_benchmarks(smoke: bool = False, jobs: int = 2) -> dict:
    """Run the suite; returns the ``BENCH_engine.json`` payload."""
    # Smoke mode shrinks only the campaign macro-benchmark; the micro
    # rows cost milliseconds each, and best-of-1 timings wobble enough
    # to mask real regressions, so they keep best-of-3 in both modes.
    repeats = 3
    from repro.experiments.omp_atomic_update import run_fig2
    from repro.experiments.cuda_atomicadd import run_fig9

    cuda_passes = "interp.cuda.uniform_passes"
    omp_rounds = "interp.omp.uniform_rounds"

    benchmarks = [
        _bench_kernel("engine_kernel_cpu", _cpu_kernel_case, repeats),
        _bench_kernel("engine_kernel_gpu", _gpu_kernel_case, repeats),
        _bench_sweep("sweep_fig2_omp_atomic", run_fig2, repeats),
        _bench_sweep("sweep_fig9_cuda_atomicadd",
                     lambda: run_fig9()[2], repeats),
        _bench_interp("interp_cuda_stream", _interp_cuda_stream,
                      cuda_passes, repeats),
        _bench_interp("interp_cuda_sync", _interp_cuda_sync,
                      cuda_passes, repeats),
        _bench_interp("interp_cuda_histogram", _interp_cuda_histogram,
                      cuda_passes, repeats),
        _bench_interp("interp_cuda_bfs", _make_interp_cuda_bfs(),
                      cuda_passes, repeats),
        _bench_interp("interp_omp_histogram", _interp_omp_histogram,
                      omp_rounds, repeats),
        _bench_interp("interp_omp_prefix_sum", _interp_omp_prefix_sum,
                      omp_rounds, repeats),
        _bench_dispatch_replay(repeats),
        *_bench_service(repeats),
        _bench_obs_tracing(repeats),
        _bench_campaign(CAMPAIGN_IDS_SMOKE if smoke else CAMPAIGN_IDS,
                        jobs),
    ]
    return {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "host": {"python": platform.python_version(),
                 "platform": platform.platform()},
        "benchmarks": benchmarks,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry for ``python -m repro.bench``."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the measurement engine fast path.")
    parser.add_argument("--smoke", action="store_true",
                        help="small configuration for CI (short "
                             "campaign)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the campaign benchmark "
                             "(default 2)")
    parser.add_argument("--output", metavar="FILE",
                        help="where to write the JSON report (default: "
                             "BENCH_engine.json at the repo root)")
    parser.add_argument("--max-seconds", type=float, metavar="S",
                        help="fail (exit 1) when the campaign smoke "
                             "benchmark's serial run exceeds this "
                             "wall-clock ceiling")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="diff this run against a prior "
                             "BENCH_engine.json and exit 2 when any "
                             "shared row regresses past --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        metavar="FRAC",
                        help="allowed fractional speedup drop per row "
                             "for --compare (default 0.2 = 20%%)")
    args = parser.parse_args(argv)

    old_payload = None
    if args.compare:
        # Load before running (and before --output possibly overwrites
        # the very file we are comparing against).
        old_payload = json.loads(Path(args.compare).read_text())

    with use_faults(None):  # benchmarks are always fault-free
        payload = run_benchmarks(smoke=args.smoke, jobs=args.jobs)

    output = Path(args.output) if args.output else default_output_path()
    output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"{'benchmark':<28s} {'reference':>10s} {'fast':>10s} "
          f"{'speedup':>8s}")
    for row in payload["benchmarks"]:
        print(f"{row['id']:<28s} {row['reference_s']:>9.3f}s "
              f"{row['fast_s']:>9.3f}s {row['speedup']:>7.2f}x")
    print(f"wrote {output}")

    if args.max_seconds is not None:
        campaign = next(r for r in payload["benchmarks"]
                        if r["id"] == "campaign")
        if campaign["reference_s"] > args.max_seconds:
            print(f"FAIL: campaign benchmark took "
                  f"{campaign['reference_s']:.1f}s serially, over the "
                  f"{args.max_seconds:g}s ceiling")
            return 1
    if old_payload is not None:
        regressions = compare_payloads(payload, old_payload,
                                       args.tolerance)
        print_comparison(payload, old_payload, args.tolerance,
                         regressions)
        if regressions:
            print(f"FAIL: {len(regressions)} row(s) regressed past the "
                  f"{args.tolerance:.0%} tolerance")
            return 2
    return 0
