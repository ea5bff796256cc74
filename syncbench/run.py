#!/usr/bin/env python3
"""Benchmark entry point.

    python3 syncbench/run.py --workload {matrix,kernels,service} \\
        --seed N --seconds S --trace {0,1}

Runs one workload for about ``S`` seconds from the root of a checkout
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer breakdown with ``--trace 1``.  See
``syncbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (ROOT, RUNS_DIR, apply_program_env, calibration_ms,
                    host_provenance, kill_after, median, program_env,
                    ratio, ratio_with_base, tail)
from tracing import ROOT as ROOT_SPAN, self_times

#: SHA-256 over every sweep CSV of ``run_full_matrix(systems=(1, 2,
#: 3))``, pinned from the canonical sweep order.  A simulator-only
#: change must leave it unchanged.
MATRIX_DIGEST = \
    "9102ce551788cdae49e124d95e77b5acbd493907e4ba3136e46a482635d8ab8c"
#: Warm reruns after the cold matrix in each matrix op process.
MATRIX_WARM = 4
#: Daemon lifetimes with a timed mix per service run; an untraced run
#: times as many extra set-up-only daemon starts between them.
SERVICE_SEGMENTS = 4
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "cold_ms": "ms",
    "warm_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: self times are ms per traced op; a ratio's base
#: is always reported beside it.
PER_LAYER = {
    "core.measure_ms": "ms",
    "core.prime_ms": "ms",
    "core.measurements": "count",
    "core.attempts": "count",
    "core.attempts_per_measurement": "ratio",
    "core.retry_ratio": "ratio",
    "core.us_per_attempt": "us",
    "rng.pool_hit_ratio": "ratio",
    "rng.pool_lookups": "count",
    "experiments.sweep_ms": "ms",
    "cuda.launch_ms": "ms",
    "cuda.passes": "count",
    "cuda.uniform_pass_ratio": "ratio",
    "cuda.us_per_pass": "us",
    "openmp.parallel_ms": "ms",
    "openmp.rounds": "count",
    "openmp.uniform_round_ratio": "ratio",
    "multigpu.launch_ms": "ms",
    "multigpu.launches": "count",
    "multigpu.replay_hit_ratio": "ratio",
    "compiler.dispatch_ms": "ms",
    "compiler.dispatches": "count",
    "compiler.replay_lookups": "count",
    "compiler.replay_hit_ratio": "ratio",
    "compiler.fallback_ratio": "ratio",
    "compiler.lifted_blocks": "count",
    "workloads.check_ms": "ms",
    "service.http_ms": "ms",
    "service.submit_ms": "ms",
    "service.cache_get_ms": "ms",
    "service.cache_put_ms": "ms",
    "service.worker_ms": "ms",
    "service.ipc_ms": "ms",
    "service.requests": "count",
    "service.cache_hit_ratio": "ratio",
    "service.retries": "count",
    "service.coalesced": "count",
    "service.failed": "count",
    "unattributed_ms": "ms",
    "traced_op_ms": "ms",
    "untraced_op_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
    "tail_ms": "ms",
    "tail_pct": "pct",
    "tail_samples": "count",
}

#: Every ratio metric and the per-layer metric holding its base.
RATIO_BASES = {
    "core.attempts_per_measurement": "core.measurements",
    "core.retry_ratio": "core.attempts",
    "core.us_per_attempt": "core.attempts",
    "rng.pool_hit_ratio": "rng.pool_lookups",
    "cuda.uniform_pass_ratio": "cuda.passes",
    "cuda.us_per_pass": "cuda.passes",
    "openmp.uniform_round_ratio": "openmp.rounds",
    "multigpu.replay_hit_ratio": "multigpu.launches",
    "compiler.replay_hit_ratio": "compiler.replay_lookups",
    "compiler.fallback_ratio": "compiler.dispatches",
    "service.cache_hit_ratio": "service.requests",
    "obs.trace_overhead_frac": "untraced_op_ms",
}

#: Span name -> per-layer self-time metric.
SPAN_METRIC = {
    ROOT_SPAN: "unattributed_ms",
    "core.measure": "core.measure_ms",
    "core.prime": "core.prime_ms",
    "experiments.sweep": "experiments.sweep_ms",
    "cuda.launch": "cuda.launch_ms",
    "openmp.parallel": "openmp.parallel_ms",
    "multigpu.launch": "multigpu.launch_ms",
    "compiler.dispatch": "compiler.dispatch_ms",
    "workloads.check": "workloads.check_ms",
    "service.http": "service.http_ms",
    "service.submit": "service.submit_ms",
    "service.cache_get": "service.cache_get_ms",
    "service.cache_put": "service.cache_put_ms",
    "service.worker": "service.worker_ms",
    "service.ipc": "service.ipc_ms",
}


class Run:
    """State of one benchmark run."""

    def __init__(self, args: argparse.Namespace, run_dir: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = args.trace == 1
        self.run_dir = run_dir
        self.rng = random.Random(args.seed)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def time_left(self, step_s: float = 0.0) -> bool:
        """Whether a step of ``step_s`` seconds started now would end
        less than half a step past the run's end."""
        return time.perf_counter() - self.start + step_s / 2 < self.seconds

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.problems.append(why)


def spawn(script: str, args: list[str]) -> tuple[float, dict]:
    """Start an op process; returns (spawn-to-``ready`` seconds, its
    JSON result)."""
    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "syncbench" / script), *args],
            stdout=subprocess.PIPE, stderr=err, text=True,
            env=program_env(), cwd=ROOT)
        timer = kill_after(proc, CHILD_TIMEOUT_S)
        try:
            line = proc.stdout.readline()  # blocks until set-up is done
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{script} failed ({proc.returncode}): "
                               f"{line!r} {err.read()[-2000:]}")
    return setup_s, json.loads(rest.splitlines()[-1])


def warm_bytecode() -> None:
    """Import every benchmarked module once, unmeasured, so set-up
    samples never include compiling the checkout's bytecode."""
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments.launch, "
         "repro.workloads, repro.reductions, repro.service.__main__"],
        env=program_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


def accumulate(total: dict, new: dict) -> None:
    """Add every value of ``new`` into ``total``."""
    for name, value in new.items():
        total[name] = total.get(name, 0) + value


def layer_metrics(self_ns: dict[str, int], ops: int) -> dict[str, float]:
    """Self time per layer as ms per traced op (sums to traced_op_ms).

    Every layer is wrapped in every traced process, so a layer without
    spans is a measured zero.
    """
    out = {metric: 0.0 for metric in SPAN_METRIC.values()}
    total = 0
    for span, ns in self_ns.items():
        out[SPAN_METRIC[span]] += ns / ops / 1e6
        total += ns
    out["traced_op_ms"] = total / ops / 1e6
    return out


def counter_metrics(counters: dict, calls: dict,
                    self_ns: dict[str, int]) -> dict[str, float]:
    """Every counter-based per-layer metric, from ``repro.obs.metrics``
    counter deltas and wrapper call counts of the traced processes."""
    def c(name: str) -> float:
        return float(counters.get(name, 0))

    attempts, passes, rounds = (c("engine.attempts"),
                                c("interp.cuda.passes"),
                                c("interp.omp.rounds"))
    core_ns = self_ns.get("core.measure", 0) + self_ns.get("core.prime", 0)
    dispatches = calls.get("Dispatcher.begin_cuda", 0) + \
        calls.get("Dispatcher.begin_omp", 0)
    return {
        **ratio_with_base("core.attempts_per_measurement", attempts,
                          c("engine.measurements"), "core.measurements"),
        **ratio_with_base("core.retry_ratio", c("engine.retries"),
                          attempts, "core.attempts"),
        "core.us_per_attempt": ratio(core_ns / 1e3, attempts),
        **ratio_with_base("rng.pool_hit_ratio", c("rng.pool.hits"),
                          c("rng.pool.hits") + c("rng.pool.misses"),
                          "rng.pool_lookups"),
        **ratio_with_base("cuda.uniform_pass_ratio",
                          c("interp.cuda.uniform_passes"), passes,
                          "cuda.passes"),
        "cuda.us_per_pass": ratio(self_ns.get("cuda.launch", 0) / 1e3,
                                  passes),
        **ratio_with_base("openmp.uniform_round_ratio",
                          c("interp.omp.uniform_rounds"), rounds,
                          "openmp.rounds"),
        **ratio_with_base("multigpu.replay_hit_ratio",
                          c("multigpu.replay_hit"), c("multigpu.launches"),
                          "multigpu.launches"),
        **ratio_with_base("compiler.replay_hit_ratio", c("dispatch.hit"),
                          c("dispatch.hit") + c("dispatch.miss"),
                          "compiler.replay_lookups"),
        **ratio_with_base("compiler.fallback_ratio", c("dispatch.fallback"),
                          dispatches, "compiler.dispatches"),
        "compiler.lifted_blocks": c("dispatch.lifted_blocks"),
        **ratio_with_base("service.cache_hit_ratio", c("service.cache_hit"),
                          c("service.requests"), "service.requests"),
        "service.retries": c("service.retries"),
        "service.coalesced": c("service.coalesced"),
        "service.failed": c("service.failed"),
    }


def per_layer(self_ns: dict, ops: int, counters: dict, calls: dict,
              plain_ms: list[float], unit_ms: list[float]) -> dict:
    """Every per-layer metric of a traced run: self times per traced op,
    counter metrics, trace overhead against the untraced ops, and the
    tail over the untraced ops' units."""
    out = layer_metrics(self_ns, ops)
    base = sum(plain_ms) / len(plain_ms)
    pct, value, n = tail(unit_ms)
    out.update({
        **counter_metrics(counters, calls, self_ns),
        "obs.trace_overhead_frac": ratio(out["traced_op_ms"], base) - 1.0,
        "untraced_op_ms": base,
        "tail_ms": value, "tail_pct": pct, "tail_samples": float(n),
    })
    return out


def run_processes(run: Run, script: str, param, check) -> dict[str, float]:
    """Drive op processes of ``script`` until the run's time is up.

    ``param()`` gives each process's JSON parameter; ``check(result)``
    returns ``(attempted, [(failed, why), ...])`` for one process's
    result, whose ``op_ms`` lists the cold op then the warm ones, and
    ``unit_ms``/``units`` the programs or sweep chunks inside them.  An
    untraced run precedes each op process with a set-up-only start, so
    set-up is sampled twice per process.  A traced run alternates traced
    and untraced processes.
    """
    setup, cold, warm, rss, unit_ms = [], [], [], [], []
    units, op_s = 0, 0.0
    traced_ops, plain_ops, self_ns, counters, calls = 0, [], {}, {}, {}
    index, step_s = 0, 0.0
    while not plain_ops or run.time_left(step_s):
        step_start = time.perf_counter()
        traced = run.traced and index % 2 == 0
        spans = run.run_dir / f"spans-{index}.json"
        if not run.traced:
            setup.append(spawn(script, ["setup"])[0])
        setup_s, res = spawn(script, [json.dumps(param()),
                                      *([str(spans)] if traced else [])])
        index += 1
        attempted, failures = check(res)
        run.attempted += attempted
        for n, why in failures:
            run.fail(n, why)
        step_s = time.perf_counter() - step_start
        if traced:
            dump = json.loads(spans.read_text())
            traced_ops += len(res["op_ms"])
            accumulate(self_ns, self_times(dump["spans"]))
            accumulate(counters, dump["counters"])
            accumulate(calls, dump["calls"])
            continue
        plain_ops.extend(res["op_ms"])
        setup.append(setup_s)
        cold.append(res["op_ms"][0])
        warm.extend(res["op_ms"][1:])
        rss.append(res["rss_mb"])
        unit_ms.extend(res["unit_ms"])
        units += res["units"]
        op_s += sum(res["op_ms"]) / 1e3
    if run.traced:
        return per_layer(self_ns, traced_ops, counters, calls, plain_ops,
                         unit_ms)
    return {"setup_s": median(setup), "cold_ms": median(cold),
            "warm_ms": median(warm), "ops_per_s": units / op_s,
            "peak_rss_mb": median(rss)}


# ------------------------------- matrix -------------------------------- #

def run_matrix(run: Run) -> dict[str, float]:
    chunks = [[system, side] for system in (1, 2, 3)
              for side in ("omp", "cuda")]

    def param() -> dict:
        order = chunks[:]
        run.rng.shuffle(order)
        return {"order": order, "warm": MATRIX_WARM}

    def check(res: dict) -> tuple[int, list]:
        wrong = sum(d != MATRIX_DIGEST for d in res["digests"])
        return len(res["digests"]), [
            (wrong, "matrix digest differs from the pinned digest")]

    return run_processes(run, "matrix_child.py", param, check)


# ------------------------------- kernels ------------------------------- #

def run_kernels(run: Run) -> dict[str, float]:
    def check(res: dict) -> tuple[int, list]:
        fresh, repeat = res["digests"]
        return res["units"], [
            (res["valid"].count(False),
             "a program failed its reference check"),
            (int(fresh != repeat), "repeat pass differs from the fresh pass")]

    return run_processes(run, "kernels_child.py",
                         lambda: run.rng.randrange(2 ** 31), check)


# ------------------------------- service ------------------------------- #

def run_service(run: Run) -> dict[str, float]:
    import service_bench as sb
    source = sb.RequestSource(run.seed)
    segment_s = run.seconds / SERVICE_SEGMENTS
    segments, setup = [], []
    for i in range(SERVICE_SEGMENTS):
        if not run.traced:
            setup.append(sb.setup_sample(run.run_dir / f"setup-{i}"))
        segments.append(sb.segment(source, segment_s, run.run_dir, i,
                                   traced=run.traced and i % 2 == 0))
    checks = [c for seg in segments for c in seg["checks"]]
    run.fail(sb.check_in_process(checks),
             "a served miss differs from in-process execute_request")
    plain = [s for s in segments if "trace" not in s]
    traced = [s for s in segments if "trace" in s]
    for seg in segments:
        run.attempted += seg["attempted"]
        run.fail(seg["failed"], "a request was not served as expected")
        if seg["requests"] != seg["attempted"]:
            run.fail(1, "daemon request count does not match the client")
    if not run.traced:
        mix_s = sum(s["mix_s"] for s in plain)
        return {
            "setup_s": median(setup + [s["setup_s"] for s in plain]),
            "cold_ms": median([x for s in plain for x in s["miss_ms"]]),
            "warm_ms": median([x for s in plain for x in s["hit_ms"]]),
            "ops_per_s": sum(s["attempted"] for s in plain) / mix_s,
            "peak_rss_mb": median([s["rss_mb"] for s in plain]),
        }
    self_ns, counters, calls = {}, {}, {}
    for seg in traced:
        accumulate(self_ns, seg["trace"]["self_ns"])
        accumulate(counters, seg["trace"]["counters"])
        accumulate(calls, seg["trace"]["calls"])
    return per_layer(self_ns, sum(s["trace"]["ops"] for s in traced),
                     counters, calls, [x for s in plain for x in s["op_ms"]],
                     [x for s in plain for x in s["latencies"]])


WORKLOADS = {"matrix": run_matrix, "kernels": run_kernels,
             "service": run_service}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"syncbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    apply_program_env()
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    try:
        warm_bytecode()
        calibration_before = calibration_ms()
        run = Run(args, Path(run_dir))
        values = WORKLOADS[args.workload](run)
        calibration_after = calibration_ms()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    names = PER_LAYER if run.traced else END_TO_END
    # A failed request's latency is infinite; keep the JSON valid.
    metrics = {name: {"value": min(float(values[name]),
                                   sys.float_info.max), "unit": unit}
               for name, unit in names.items()}
    print(json.dumps({"host": host_provenance(),
                      "calibration_ms": [calibration_before,
                                         calibration_after],
                      "problems": run.problems}))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
