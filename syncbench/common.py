"""Statistics, digests and process hygiene shared by the benchmark.

Importing this module does not import :mod:`repro`: the orchestrator
(``run.py``) uses these helpers before it decides which program
processes to start, and the unit tests exercise them without the
simulator.  Only :func:`op_process`, run inside an op process, imports
the simulator.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

#: Repository root (the checkout the benchmark runs from).
ROOT = Path(__file__).resolve().parent.parent
#: Where each run keeps its scratch directories (removed at run end).
RUNS_DIR = ROOT / ".syncbench-runs"
#: Environment switches that select a simulator tier or a persistent
#: plan store.  A user's shell must not change what is measured, so
#: every program process starts with all of them removed.
TIER_ENV_PREFIX = "SYNCPERF_"

#: Percentiles considered for the tail metric, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


# ------------------------------ statistics ----------------------------- #

def median(values: list[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Uses nearest-rank percentiles: percentile ``p`` of ``n`` sorted
    samples is the ``ceil(p/100 * n)``-th smallest, and the samples
    beyond it are the ``n - rank`` larger-ranked ones.

    Returns:
        ``(percentile, value, n)``; ``(0.0, 0.0, n)`` when even the
        median has fewer than :data:`TAIL_MIN_BEYOND` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = (0.0, 0.0, n)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(round(pct * n / 100.0, 6)))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1], n)
    return best


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0 for an empty base.

    Every ratio the benchmark prints is paired with a metric holding its
    base, so a 0 here is never ambiguous.
    """
    return numerator / base if base else 0.0


def ratio_with_base(name: str, numerator: float, base: float,
                    base_name: str) -> dict[str, float]:
    """A ratio metric together with the count it divides by."""
    return {name: ratio(numerator, base), base_name: float(base)}


def calibration_ms(rounds: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop, in ms.

    Printed beside the results as host provenance; never used to
    normalise them.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def host_provenance() -> dict:
    """Host facts printed beside the results."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "cpus": os.cpu_count(),
            "cpu_model": model, "platform": sys.platform}


# ------------------------------- digests ------------------------------- #

def canonical_bytes(value, _depth: int = 0) -> bytes:
    """A byte encoding of a simulator output that is equal iff the
    outputs are equal, floats and array bytes included."""
    if _depth > 32:
        raise ValueError("output nests too deeply to digest")
    nxt = _depth + 1
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value).encode()
    if isinstance(value, float):
        return float.hex(value).encode()
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}".encode()
    if hasattr(value, "dtype") and hasattr(value, "tobytes"):
        return (b"nd" + str(value.dtype).encode()
                + repr(getattr(value, "shape", ())).encode()
                + value.tobytes())
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(canonical_bytes(v, nxt)
                                for v in value) + b"]"
    if isinstance(value, dict):
        return b"{" + b",".join(
            canonical_bytes(k, nxt) + b":" + canonical_bytes(v, nxt)
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        ) + b"}"
    if dataclasses.is_dataclass(value):
        return type(value).__name__.encode() + canonical_bytes(
            {f.name: getattr(value, f.name)
             for f in dataclasses.fields(value)}, nxt)
    if hasattr(value, "__dict__"):
        return type(value).__name__.encode() + canonical_bytes(
            vars(value), nxt)
    if hasattr(value, "item"):  # numpy scalar
        return canonical_bytes(value.item(), nxt)
    raise TypeError(f"cannot digest {type(value).__name__}")


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def digest_csvs(csv_by_key: dict[str, str]) -> str:
    """SHA-256 over every sweep's CSV, in key order (order-independent
    in how the sweeps were produced)."""
    h = hashlib.sha256()
    for key in sorted(csv_by_key):
        h.update(key.encode())
        h.update(b"\n")
        h.update(csv_by_key[key].encode())
        h.update(b"\n")
    return h.hexdigest()


# ------------------------------- processes ----------------------------- #

def program_env() -> dict[str, str]:
    """Environment for every program process the benchmark starts.

    Removes every ``SYNCPERF_*`` switch (tier selection, dispatch mode,
    persistent plan store) so the default tiers are measured with
    in-memory plan caches that start empty in each process, points
    ``PYTHONPATH`` at the checkout's sources, and pins hash
    randomisation so set iteration order cannot vary between runs.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(TIER_ENV_PREFIX)}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def apply_program_env() -> None:
    """Make this process's own environment :func:`program_env`."""
    env = program_env()
    for key in list(os.environ):
        if key not in env:
            del os.environ[key]
    os.environ.update(env)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def kill_after(proc, seconds: float):
    """Start a timer that kills ``proc`` if it outlives ``seconds``;
    cancel it once the process has answered."""
    import threading
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def peak_rss_mb() -> float:
    """This process's peak resident set size, MB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, MB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` still exists (and is not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().split(") ", 1)[1][:1] != "Z"
    except (OSError, IndexError):
        return False


def op_process(setup, ops) -> None:
    """The skeleton every matrix and kernels op process runs.

    Called as ``python CHILD.py PARAM [SPANS_OUT]`` or ``python CHILD.py
    setup``.  ``setup()`` is the set-up being timed; ``ready`` is printed
    once it returns.  Then ``ops(state, json.loads(PARAM), tracer)``
    runs the ops and returns their result dict, to which the peak RSS
    and the ``repro.obs.metrics`` counter deltas are added.  Given
    ``SPANS_OUT``, every layer is wrapped first (``tracer`` is then a
    :class:`tracing.Tracer`, else None) and the spans, wrapper call
    counts and counter deltas are written there at the end.  The result
    is printed as JSON on the last line.
    """
    state = setup()
    print("ready", flush=True)
    if sys.argv[1] == "setup":  # a set-up sample only
        print("{}")
        return
    from repro.obs.metrics import REGISTRY
    tracer = None
    if len(sys.argv) > 2:
        from tracing import Tracer, layer_table
        tracer = Tracer()
        tracer.install(layer_table())
    before = REGISTRY.counters()
    out = ops(state, json.loads(sys.argv[1]), tracer)
    after = REGISTRY.counters()
    out["rss_mb"] = peak_rss_mb()
    counters = {k: v - before.get(k, 0) for k, v in after.items()
                if v != before.get(k, 0)}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(sys.argv[2], counters=counters)
    print(json.dumps(out))
