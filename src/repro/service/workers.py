"""Supervised measurement worker pool.

Measurements run in forked worker processes so that a crash, hang, or
runaway request can never take the service down — the failure domain of
one request is one worker.  The supervisor (:class:`WorkerPool`) owns
the lifecycle:

* **Heartbeats.** Each worker beats a shared ``multiprocessing.Value``
  from a daemon thread; a worker whose heartbeat goes stale while the
  supervisor is waiting on it is declared *hung*, killed, and replaced.
  The beat thread is deliberately separate from the measurement thread:
  a slow measurement keeps beating (alive, just slow — the deadline's
  job), while a wedged process stops (dead — the heartbeat's job).
* **Deadlines.** Every dispatch carries a wall-clock budget; exceeding
  it kills the worker (its late answer can never be told apart from the
  next request's answer once the pipe is desynchronized) and reports
  ``deadline``.
* **Restarts.** Any worker the supervisor kills — or that dies on its
  own — is replaced before the slot is reused, and the restart is
  counted on ``service.worker_restarts``.

Dispatch outcomes are plain dicts with a ``status`` of ``"ok"``,
``"error"`` (the measurement raised; carries the taxonomy error name),
``"worker_crash"``, ``"worker_hang"``, or ``"deadline"`` — the
supervisor never raises for a worker's misbehaviour.  Mapping infra
statuses onto the retry taxonomy is the caller's job
(:mod:`repro.service.core`).

Injected process faults (:class:`repro.faults.process.ProcessFaultPlan`)
are decided by the *supervisor* per dispatch and carried in the job
message, so a chaos run's fault sequence is deterministic in the plan
seed no matter how threads race.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue
import threading
import time
from pathlib import Path

from repro.faults.process import ProcessFaultPlan
from repro.faults.scenario import FaultScenario, use_faults
from repro.obs import event as obs_event
from repro.obs.context import TraceContext, traced_execution
from repro.obs.flight import FLIGHT
from repro.obs.metrics import counter as _counter
from repro.obs.metrics import counters_delta, counters_snapshot
from repro.service.catalog import MeasureRequest, execute_request

_C_RESTARTS = _counter("service.worker_restarts")
_C_DISPATCHES = _counter("service.dispatches")

#: Counter families a worker ships back (as per-job deltas) in its
#: reply frame, for per-request attribution and parent-side folding.
#: ``service.*`` is deliberately excluded — those counters are bumped
#: by the supervisor and would double-count if shipped.
ATTRIBUTION_PREFIXES = ("dispatch.", "cache.", "engine.", "interp.",
                        "faults.", "rng.")

#: Exit code a fault-injected crash uses (distinct from real tracebacks).
CRASH_EXIT_CODE = 70

#: How often a worker beats its heartbeat, seconds.
HEARTBEAT_INTERVAL_S = 0.02


def _worker_main(conn, heartbeat, scenario: FaultScenario | None) -> None:
    """Worker process entry: beat, then serve jobs off the pipe forever.

    Runs until the pipe closes or a poison pill (None) arrives.  All
    measurement exceptions are caught and reported as ``error`` replies;
    only injected fates (and genuine interpreter death) end the process.
    """
    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.is_set():
            heartbeat.value = time.monotonic()
            time.sleep(HEARTBEAT_INTERVAL_S)

    threading.Thread(target=beat, daemon=True).start()
    faults = use_faults(scenario) if scenario is not None \
        else contextlib.nullcontext()
    with faults:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                return
            if job is None:
                return
            fate = job.get("fate")
            if fate == "crash":
                os._exit(CRASH_EXIT_CODE)
            if fate == "hang":
                stop_beating.set()
                time.sleep(3600.0)  # supervisor kills us long before
            if fate == "slow":
                time.sleep(job.get("slow_seconds", 0.05))
            reply = serve_job(job)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return


def serve_job(job: dict) -> dict:
    """Execute one job dict to a reply dict (the worker-side core).

    Restores the shipped trace context (if any) for the duration of
    the measurement, runs it under a private recorder so the worker's
    spans — ``service.worker`` down through ``engine.measure`` and the
    dispatcher — ship back in the reply, and attaches the worker's
    per-job counter deltas (:data:`ATTRIBUTION_PREFIXES`) plus its
    pid.  The context is installed and torn down *inside* this call,
    so it can never leak into the next job on the same worker — torn
    or malformed ``"trace"`` fields degrade to an untraced execution.
    """
    ctx = TraceContext.from_wire(job.get("trace"))
    before = counters_snapshot(ATTRIBUTION_PREFIXES)
    spans = None
    try:
        request = MeasureRequest(**job["request"])
        result, spans = traced_execution(
            ctx, "worker", "service.worker",
            lambda: execute_request(request),
            request=request.describe())
        reply = {"status": "ok", "result": result}
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        reply = {"status": "error",
                 "error": type(exc).__name__,
                 "message": str(exc)}
    reply["pid"] = os.getpid()
    deltas = counters_delta(before, ATTRIBUTION_PREFIXES)
    if deltas:
        reply["counters"] = deltas
    if spans:
        reply["spans"] = spans
    return reply


class _Worker:
    """One supervised worker process (pipe + heartbeat + handle)."""

    def __init__(self, ctx, scenario: FaultScenario | None) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.heartbeat = ctx.Value("d", time.monotonic())
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.heartbeat, scenario),
            daemon=True)
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        """Tear the worker down unconditionally (idempotent)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        # Release the process bookkeeping eagerly; without this, killed
        # workers accumulate as zombies until pool shutdown.
        self.process.close()


class WorkerPool:
    """Fixed-size pool of supervised measurement workers.

    Thread-safe: any number of service threads may call
    :meth:`execute` concurrently; each dispatch exclusively owns one
    worker slot for its duration.

    Args:
        n_workers: Pool size (>= 1).
        heartbeat_timeout_s: Heartbeat staleness that declares a hang.
        scenario: Measurement-time fault scenario activated inside each
            worker (inherited semantics of a ``--faults`` campaign).
        fault_plan: Process-level fault plan applied per dispatch.
        poll_interval_s: Supervisor polling granularity.
        flight_dir: When set, every worker retirement dumps the
            process-wide flight recorder here (post-mortem context for
            the crash/hang/deadline that caused it).
    """

    def __init__(self, n_workers: int,
                 heartbeat_timeout_s: float = 1.0,
                 scenario: FaultScenario | None = None,
                 fault_plan: ProcessFaultPlan | None = None,
                 poll_interval_s: float = 0.01,
                 flight_dir: str | Path | None = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._ctx = multiprocessing.get_context("fork")
        self._scenario = scenario
        self._fault_plan = fault_plan
        self._flight_dir = Path(flight_dir) \
            if flight_dir is not None else None
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._poll_interval_s = poll_interval_s
        self._seq_lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._free: queue.Queue[_Worker] = queue.Queue()
        self._all: list[_Worker] = []
        self._all_lock = threading.Lock()
        for _ in range(n_workers):
            self._add_worker()
        self.restarts = 0
        #: Retirement counts by reason (``worker_crash``, ``deadline``,
        #: ...), surfaced through ``/healthz``.
        self.restart_reasons: dict[str, int] = {}

    def _add_worker(self) -> None:
        worker = _Worker(self._ctx, self._scenario)
        with self._all_lock:
            self._all.append(worker)
        self._free.put(worker)

    def _retire(self, worker: _Worker, reason: str) -> None:
        """Kill a misbehaving worker and put a fresh one in its slot."""
        pid = worker.process.pid
        worker.kill()
        with self._all_lock:
            self._all.remove(worker)
        self.restarts += 1
        self.restart_reasons[reason] = \
            self.restart_reasons.get(reason, 0) + 1
        _C_RESTARTS.add()
        obs_event("service.worker_restart", reason=reason)
        FLIGHT.record("service.worker_retired", reason=reason, pid=pid)
        if self._flight_dir is not None:
            try:
                FLIGHT.dump(self._flight_dir, reason)
            except OSError:  # pragma: no cover - dump must never kill
                pass
        self._add_worker()

    def worker_stats(self) -> list[dict]:
        """Per-worker liveness for ``/healthz``: pid, heartbeat age,
        aliveness."""
        now = time.monotonic()
        with self._all_lock:
            workers = list(self._all)
        stats = []
        for worker in workers:
            try:
                alive = worker.process.is_alive()
                pid = worker.process.pid
            except ValueError:  # pragma: no cover - closed mid-snapshot
                alive, pid = False, None
            stats.append({
                "pid": pid,
                "alive": alive,
                "heartbeat_age_s": round(
                    max(0.0, now - worker.heartbeat.value), 3),
            })
        return stats

    def next_seq(self) -> int:
        """Allocate the next dispatch sequence number (fate stream key)."""
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
            return seq

    def execute(self, request: MeasureRequest, deadline_s: float,
                seq: int | None = None,
                trace: dict | None = None) -> dict:
        """Dispatch one request to a worker and supervise to an outcome.

        Args:
            request: The validated measurement request.
            deadline_s: Wall-clock budget for this dispatch.
            seq: Dispatch sequence number for the fault-plan fate
                stream; allocated automatically when omitted.  Callers
                that retry pass a fresh ``next_seq()`` per attempt so
                each attempt draws its own fate.
            trace: Optional wire-format trace context
                (:meth:`repro.obs.context.TraceContext.to_wire`)
                restored inside the worker for this job only.

        Returns:
            ``{"status": "ok", "result": ...}`` or ``{"status":
            "error", "error": <class name>, "message": ...}`` from the
            worker (both carrying the worker's ``pid`` and shipped
            ``counters``/``spans``), or a supervisor verdict
            ``{"status": "worker_crash" | "worker_hang" | "deadline",
            "message": ...}``.
        """
        if self._closed:
            return {"status": "worker_crash",
                    "message": "worker pool is closed"}
        if seq is None:
            seq = self.next_seq()
        _C_DISPATCHES.add()
        fate = self._fault_plan.decide(seq) if self._fault_plan else None
        job = {"request": request.canonical(), "seq": seq, "fate": fate}
        if trace is not None:
            job["trace"] = trace
        if fate == "slow":
            job["slow_seconds"] = self._fault_plan.slow_seconds
        FLIGHT.record("service.dispatch", seq=seq, fate=fate,
                      request=request.describe(),
                      trace_id=(trace or {}).get("trace_id"))
        worker = self._free.get()
        try:
            if not worker.process.is_alive():
                # Died idle (shouldn't happen, but never dispatch into
                # a corpse): replace and take the replacement.
                self._retire(worker, "dead_idle")
                worker = self._free.get()
            try:
                worker.conn.send(job)
            except (BrokenPipeError, OSError):
                self._retire(worker, "send_failed")
                return {"status": "worker_crash",
                        "message": "worker pipe closed at dispatch"}
            verdict = self._await_reply(worker, deadline_s)
            FLIGHT.record("service.verdict", seq=seq,
                          status=verdict.get("status"),
                          pid=verdict.get("pid"))
            if verdict["status"] in ("ok", "error"):
                self._free.put(worker)
            else:
                self._retire(worker, verdict["status"])
            return verdict
        except BaseException:
            # Supervisor itself interrupted (e.g. KeyboardInterrupt):
            # don't leak the slot.
            self._retire(worker, "supervisor_error")
            raise

    def _await_reply(self, worker: _Worker, deadline_s: float) -> dict:
        """Poll one in-flight dispatch to a verdict."""
        start = time.monotonic()
        while True:
            if worker.conn.poll(self._poll_interval_s):
                try:
                    return worker.conn.recv()
                except (EOFError, OSError):
                    return {"status": "worker_crash",
                            "message": "worker pipe closed mid-reply"}
            now = time.monotonic()
            if not worker.process.is_alive():
                code = worker.process.exitcode
                return {"status": "worker_crash",
                        "message": f"worker exited with code {code}"}
            stale = now - worker.heartbeat.value
            if stale > self._heartbeat_timeout_s:
                return {"status": "worker_hang",
                        "message": f"heartbeat stale for {stale:.2f}s"}
            if now - start > deadline_s:
                return {"status": "deadline",
                        "message": f"deadline of {deadline_s:g}s "
                                   f"exceeded"}

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        self._closed = True
        with self._all_lock:
            workers = list(self._all)
            self._all.clear()
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
