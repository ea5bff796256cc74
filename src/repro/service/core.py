"""The measurement service: request orchestration and degradation.

:class:`MeasurementService` turns a wire-format request into exactly one
of three terminal responses — the invariant the chaos harness audits:

* ``served`` — a fresh measurement (or a fresh-enough cache hit);
* ``degraded`` — the live path is unhealthy (circuit open, retries
  exhausted) and a *stale* cache entry answered instead, explicitly
  labeled with its age and the failure that forced the fallback;
* ``failed`` — no measurement and no fallback; carries the taxonomy
  error name and exit code.

Every submission increments ``service.requests`` and exactly one of
``service.served`` / ``service.degraded`` / ``service.failed``, so
``requests == served + degraded + failed`` holds at every quiescent
point — that reconciliation is checked in CI.

The failure policy is the shared layer (:mod:`repro.service.policy`):
transient faults (measurement exhaustion, worker loss, deadlines) are
retried with seeded exponential backoff; permanent ones (configuration
errors) fail immediately; repeated failures of one (primitive, system)
stream trip that stream's circuit breaker so a known-bad configuration
stops burning workers and falls back to the cache at the door.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.common.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    WorkerLost,
)
from repro.core.protocol import MeasurementProtocol
from repro.experiments.campaign import (
    CampaignCheckpoint,
    ExperimentOutcome,
    campaign_fingerprint,
)
from repro.faults.process import ProcessFaultPlan
from repro.faults.scenario import FaultScenario, use_faults
from repro.obs import event as obs_event
from repro.obs import span as obs_span
from repro.obs.context import (
    TraceContext,
    TraceStore,
    current_context,
    maybe_context,
    traced_execution,
)
from repro.obs.flight import FLIGHT
from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import counter as _counter
from repro.obs.metrics import counters_delta, counters_snapshot
from repro.obs.metrics import gauge as _gauge
from repro.obs.recorder import get_recorder
from repro.service.cache import ResultCache, cache_key
from repro.service.catalog import MeasureRequest, execute_request
from repro.service.policy import (
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    error_exit_code,
    rebuild_exception,
    retryable_error_name,
)
from repro.service.workers import ATTRIBUTION_PREFIXES, WorkerPool

_C_REQUESTS = _counter("service.requests")
_C_SERVED = _counter("service.served")
_C_DEGRADED = _counter("service.degraded")
_C_FAILED = _counter("service.failed")
_C_RETRIES = _counter("service.retries")
_C_COALESCED = _counter("service.coalesced")
_C_BREAKER_OPEN = _counter("service.breaker_open")
_C_CACHE_HIT = _counter("service.cache_hit")
_C_CACHE_STALE = _counter("service.cache_stale_served")
_G_LAT_P50 = _gauge("service.latency_p50_ms")
_G_LAT_P99 = _gauge("service.latency_p99_ms")

#: Worker-pool verdicts that mean the *infrastructure* failed, not the
#: measurement: each maps to its taxonomy exception class.
_INFRA_ERRORS = {
    "worker_crash": WorkerLost,
    "worker_hang": WorkerLost,
    "deadline": DeadlineExceeded,
}

#: Counter families surfaced in per-response attribution (the ones a
#: client can reconcile against ``/metrics``); the rest of the shipped
#: prefixes still fold into the parent registry.
_ATTR_COUNTER_PREFIXES = ("dispatch.", "cache.")


def dispatch_tier(counters: dict[str, int]) -> str:
    """Name the dispatch tier a request's counter deltas evidence.

    ``replay`` when ``dispatch.hit`` moved (a content-keyed replay
    served a launch), else ``interpret`` — the launch ran on the plain
    interpreter (or fell back).
    """
    return "replay" if counters.get("dispatch.hit", 0) > 0 else "interpret"


class _Attribution:
    """Per-request attribution accumulator.

    One instance rides through a submission and absorbs each attempt's
    outcome — worker pid, shipped counter deltas, remote spans — so the
    terminal response can say *how* it was served: the serving path,
    the dispatch tier evidenced by ``dispatch.*`` deltas, retries, and
    the breaker state at termination.
    """

    __slots__ = ("trace_id", "serving", "worker_pid", "attempts",
                 "breaker", "counters", "spans")

    def __init__(self, ctx: TraceContext | None) -> None:
        self.trace_id = ctx.trace_id if ctx is not None else None
        self.serving: str | None = None
        self.worker_pid: int | None = None
        self.attempts = 0
        self.breaker: str | None = None
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []

    def absorb(self, outcome: dict) -> None:
        """Fold one attempt's shipped pid/deltas/spans in."""
        pid = outcome.get("pid")
        if pid is not None:
            self.worker_pid = pid
        for name, delta in (outcome.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0) + delta
        spans = outcome.get("spans")
        if spans:
            self.spans.extend(spans)

    def as_dict(self) -> dict:
        """The response's ``attribution`` field."""
        counters = {name: value
                    for name, value in sorted(self.counters.items())
                    if name.startswith(_ATTR_COUNTER_PREFIXES)}
        record = {
            "serving": self.serving or "none",
            "tier": dispatch_tier(self.counters)
            if self.serving == "measured" else None,
            "worker_pid": self.worker_pid,
            "attempts": self.attempts,
            "retries": max(0, self.attempts - 1),
            "breaker": self.breaker,
            "counters": counters,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        return record


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    Attributes:
        workers: Worker processes.  ``0`` executes inline in the
            calling thread — no isolation, no process faults, no
            deadline enforcement — for benchmarks and fast unit tests.
        deadline_s: Per-dispatch wall-clock budget.
        retry: Backoff policy for transient failures.
        breaker_failures: Consecutive failures that open a stream's
            circuit breaker.
        breaker_reset_s: Open-state cooldown before a half-open probe.
        heartbeat_timeout_s: Worker heartbeat staleness = hang.
        cache_dir: Result-cache root (None disables caching *and*
            graceful degradation).
        cache_ttl_s: Entry age at which a hit stops being fresh; stale
            entries only answer degraded requests.
        cache_max_entries: Result-cache entry ceiling (oldest-mtime
            eviction on put; ``cache.evictions``); None = unbounded.
        checkpoint_path: Optional request-ledger manifest
            (:class:`CampaignCheckpoint`), durable across kills.
        scenario: Measurement-time fault scenario active in workers.
        fault_plan: Process-level fault plan (crash/hang/slow).
        flight_dir: When set, worker retirements dump the flight
            recorder here for post-mortems (chaos-audited).
        trace_max: Distinct traces the in-memory store retains for
            ``GET /trace/<id>`` (oldest evicted).
    """

    workers: int = 2
    deadline_s: float = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failures: int = 5
    breaker_reset_s: float = 30.0
    heartbeat_timeout_s: float = 1.0
    cache_dir: str | Path | None = None
    cache_ttl_s: float = 3600.0
    cache_max_entries: int | None = None
    checkpoint_path: str | Path | None = None
    scenario: FaultScenario | None = None
    fault_plan: ProcessFaultPlan | None = None
    flight_dir: str | Path | None = None
    trace_max: int = 512


class _Flight:
    """One in-flight request digest other threads can wait on."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict | None = None


class MeasurementService:
    """Supervised, cached, circuit-broken measurement front-end.

    Thread-safe: the daemon calls :meth:`submit` from a thread pool.

    Args:
        config: Service tunables.
        sleep: Backoff sleep (injectable so tests run instantly).
        clock: Monotonic clock for breakers and latency (injectable).
    """

    def __init__(self, config: ServiceConfig | None = None,
                 sleep=time.sleep, clock=time.monotonic) -> None:
        self.config = config or ServiceConfig()
        self._sleep = sleep
        self._clock = clock
        self.fingerprint = dict(
            campaign_fingerprint(self.config.scenario,
                                 MeasurementProtocol()),
            service=repro.__version__)
        self.cache: ResultCache | None = None
        if self.config.cache_dir is not None:
            self.cache = ResultCache(
                self.config.cache_dir,
                max_entries=self.config.cache_max_entries)
        self.pool: WorkerPool | None = None
        if self.config.workers > 0:
            self.pool = WorkerPool(
                self.config.workers,
                heartbeat_timeout_s=self.config.heartbeat_timeout_s,
                scenario=self.config.scenario,
                fault_plan=self.config.fault_plan,
                flight_dir=self.config.flight_dir)
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._checkpoint: CampaignCheckpoint | None = None
        self._checkpoint_lock = threading.Lock()
        if self.config.checkpoint_path is not None:
            self._checkpoint = CampaignCheckpoint.open(
                self.config.checkpoint_path,
                fingerprint=self.fingerprint, resume=True)
        #: Served-latency distribution (O(1) observe; percentiles only
        #: at snapshot time — ``/healthz``, ``/metrics``, dashboard).
        self.latency = LatencyHistogram()
        #: Stitched cross-process traces for ``GET /trace/<id>``.
        self.traces = TraceStore(max_traces=self.config.trace_max)
        self._flights: dict[str, _Flight] = {}
        self._flight_lock = threading.Lock()
        self._request_index = len(
            self._checkpoint.state["experiments"]) \
            if self._checkpoint else 0
        self._inline_seq = 0
        self._inline_lock = threading.Lock()
        # The in-flight submission's attribution accumulator, keyed by
        # handling thread so the orchestration chain keeps its public
        # method signatures (each daemon executor thread handles one
        # submission at a time).
        self._attr_local = threading.local()

    # ------------------------------------------------------------ API

    def submit(self, payload: object) -> dict:
        """Process one wire-format request to a terminal response.

        Never raises: every exception, including unforeseen internal
        ones, terminates as a counted ``failed`` response.

        A dict payload may carry a ``"trace"`` field (wire-format
        :class:`TraceContext`); it is stripped before request
        validation — trace identity must never reach the cache key —
        and becomes the thread's current context for the submission.
        Traced responses gain a top-level ``trace_id`` and the stitched
        spans land in :attr:`traces`.
        """
        _C_REQUESTS.add()
        payload, ctx = self._extract_trace(payload)
        attribution = _Attribution(ctx)
        self._attr_local.value = attribution
        start = self._clock()
        try:
            with maybe_context(ctx), obs_span("service.request"):
                response = self._handle(payload)
        except BaseException as exc:  # noqa: BLE001 - terminal catch-all
            response = {
                "status": "failed",
                "error": type(exc).__name__,
                "message": str(exc),
                "exit_code": error_exit_code(exc),
            }
            attribution.serving = attribution.serving or "none"
            response["attribution"] = attribution.as_dict()
        finally:
            self._attr_local.value = None
        end = self._clock()
        latency_ms = (end - start) * 1e3
        response["latency_ms"] = round(latency_ms, 3)
        self._count(response)
        self._observe_latency(latency_ms)
        self._record_trace(ctx, attribution, response, start, end)
        FLIGHT.record("service.response",
                      status=response.get("status"),
                      serving=attribution.serving,
                      latency_ms=response["latency_ms"],
                      trace_id=attribution.trace_id)
        self._ledger(payload, response)
        return response

    def health(self) -> dict:
        """Liveness snapshot for ``/healthz``."""
        with self._breaker_lock:
            breakers = {f"{prim}/s{system}": breaker.state
                        for (prim, system), breaker
                        in sorted(self._breakers.items())}
        p50, p99 = self.latency_snapshot()
        return {
            "status": "ok",
            "version": repro.__version__,
            "workers": self.config.workers,
            "worker_restarts": self.pool.restarts if self.pool else 0,
            "restart_reasons": dict(sorted(
                self.pool.restart_reasons.items())) if self.pool else {},
            "workers_detail": self.pool.worker_stats()
            if self.pool else [],
            "breakers": breakers,
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "latency_count": self.latency.count,
        }

    def latency_snapshot(self) -> tuple[float, float]:
        """Current (p50, p99) from the histogram; refreshes the gauges.

        The only place percentiles are computed — the per-request path
        just buckets (the old implementation sorted the whole latency
        window on every request).
        """
        p50, p99 = self.latency.percentiles(0.50, 0.99)
        _G_LAT_P50.set(p50)
        _G_LAT_P99.set(p99)
        return p50, p99

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "MeasurementService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------- orchestration

    def _attribution(self) -> _Attribution:
        """This thread's in-flight attribution accumulator."""
        attribution = getattr(self._attr_local, "value", None)
        if attribution is None:  # pragma: no cover - direct method use
            attribution = _Attribution(None)
            self._attr_local.value = attribution
        return attribution

    def _handle(self, payload: object) -> dict:
        attribution = self._attribution()
        request = MeasureRequest.from_json(payload)
        # The request digest keys both the result cache and in-flight
        # coalescing, so it is computed even when caching is off.
        key = cache_key(request.canonical(),
                        json.dumps(self.fingerprint, sort_keys=True),
                        repro.__version__)
        if self.cache is not None:
            entry = self.cache.get(key)
            if entry is not None and \
                    entry.age_seconds <= self.config.cache_ttl_s:
                _C_CACHE_HIT.add()
                attribution.serving = "cache_hit"
                return {"status": "served", "cache": "hit",
                        "request": request.canonical(),
                        "result": entry.result,
                        "age_seconds": round(entry.age_seconds, 3),
                        "attribution": attribution.as_dict()}

        # Single-flight: identical cache-miss requests arriving while
        # one is already executing share that execution's terminal
        # response instead of burning workers on duplicate work.  Each
        # follower still counts as its own request/served/degraded/
        # failed, so the reconciliation invariant is untouched.
        while True:
            with self._flight_lock:
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    break  # this thread is the leader
            flight.event.wait()
            if flight.response is not None:
                _C_COALESCED.add()
                # A follower's attribution is the leader's (the work
                # was the leader's); ``coalesced`` marks it so counter
                # reconciliation can skip the duplicate deltas.
                attribution.serving = "coalesced"
                return dict(flight.response, coalesced=True)
            # The leader terminated without a response (an internal
            # error surfaced through submit's catch-all): contend for
            # leadership and execute normally.
        try:
            response = self._measure_miss(request, key)
            flight.response = response
            return response
        finally:
            with self._flight_lock:
                if self._flights.get(key) is flight:
                    del self._flights[key]
            flight.event.set()

    def _measure_miss(self, request: MeasureRequest, key: str) -> dict:
        """Breaker -> retry loop -> degrade for one cache-missed request."""
        attribution = self._attribution()
        breaker = self._breaker(request)
        if not breaker.allow():
            exc = CircuitOpenError(
                f"circuit open for {request.primitive}/s{request.system}"
                f" after repeated failures")
            return self._degrade_or_fail(request, key, exc)

        failure = None
        delays = self.config.retry.delays(key=request.describe())
        for attempt in range(self.config.retry.max_attempts):
            attribution.attempts += 1
            outcome = self._execute(request)
            self._fold_outcome(outcome, attribution)
            if outcome["status"] == "ok":
                breaker.record_success()
                if self.cache is not None and key is not None:
                    self.cache.put(key, outcome["result"],
                                   request.canonical())
                attribution.serving = "measured"
                attribution.breaker = breaker.state
                return {"status": "served", "cache": "miss",
                        "request": request.canonical(),
                        "result": outcome["result"],
                        "attempts": attempt + 1,
                        "attribution": attribution.as_dict()}
            failure = outcome
            breaker.record_failure()
            error_name = outcome.get("error", "")
            retryable = retryable_error_name(error_name) \
                if error_name else True
            obs_event("service.attempt_failed",
                      request=request.describe(),
                      status=outcome["status"], error=error_name,
                      retryable=retryable)
            if not retryable or attempt >= len(delays):
                break
            _C_RETRIES.add()
            self._sleep(delays[attempt])

        exc = self._failure_exception(failure)
        return self._degrade_or_fail(request, key, exc)

    def _execute(self, request: MeasureRequest) -> dict:
        """One measurement attempt: pooled dispatch or inline call."""
        ctx = current_context()
        if self.pool is not None:
            return self.pool.execute(
                request, self.config.deadline_s,
                trace=ctx.child().to_wire() if ctx is not None else None)
        # Inline mode: same fate stream as a pool would draw, but
        # crash/hang collapse to WorkerLost without killing anything —
        # there is no process to kill.
        fate = None
        if self.config.fault_plan is not None:
            with self._inline_lock:
                seq = self._inline_seq
                self._inline_seq += 1
            fate = self.config.fault_plan.decide(seq)
        if fate in ("crash", "hang"):
            return {"status": f"worker_{fate}",
                    "message": f"injected {fate} (inline mode)"}
        return self._execute_inline(request, ctx)

    def _execute_inline(self, request: MeasureRequest,
                        ctx: TraceContext | None) -> dict:
        """Inline execution with the same reply shape a worker ships.

        Attribution needs per-request counter deltas; with no process
        boundary to isolate them, inline executions serialize under
        ``_inline_lock`` so concurrent submissions (the daemon's
        executor threads) cannot interleave their counter windows.
        """
        with self._inline_lock:
            before = counters_snapshot(ATTRIBUTION_PREFIXES)
            spans = None
            try:
                with use_faults(self.config.scenario):
                    result, spans = traced_execution(
                        ctx, "daemon-inline", "service.execute",
                        lambda: execute_request(request),
                        request=request.describe())
                outcome: dict = {"status": "ok", "result": result}
            except Exception as exc:  # noqa: BLE001 - mirrors worker reply
                outcome = {"status": "error",
                           "error": type(exc).__name__,
                           "message": str(exc)}
            outcome["pid"] = os.getpid()
            deltas = counters_delta(before, ATTRIBUTION_PREFIXES)
            if deltas:
                outcome["counters"] = deltas
                outcome["counters_folded"] = True
            if spans:
                outcome["spans"] = spans
            return outcome

    def _fold_outcome(self, outcome: dict,
                      attribution: _Attribution) -> None:
        """Absorb one attempt's shipped telemetry into the parent side.

        Pool-worker counter bumps died with the fork — fold the
        shipped deltas into this process's registry so ``/metrics``
        sees dispatcher/engine activity (inline outcomes mark
        ``counters_folded``: their bumps already happened here).
        Shipped spans also stitch into any installed recorder.
        """
        attribution.absorb(outcome)
        if not outcome.get("counters_folded"):
            for name, delta in (outcome.get("counters") or {}).items():
                _counter(name).add(delta)
        recorder = get_recorder()
        if recorder is not None and outcome.get("spans"):
            recorder.add_remote_spans(outcome["spans"])

    def _failure_exception(self, outcome: dict | None) -> ReproError:
        """The taxonomy exception a final failed outcome maps to."""
        if outcome is None:  # pragma: no cover - defensive
            return WorkerLost("no attempt completed")
        status = outcome["status"]
        if status in _INFRA_ERRORS:
            return _INFRA_ERRORS[status](outcome.get("message", status))
        return rebuild_exception(outcome.get("error", "CampaignError"),
                                 outcome.get("message", ""))

    def _degrade_or_fail(self, request: MeasureRequest,
                         key: str | None, exc: Exception) -> dict:
        """Answer from stale cache if possible, else fail with taxonomy."""
        attribution = self._attribution()
        attribution.breaker = self._breaker(request).state
        if self.cache is not None and key is not None:
            entry = self.cache.get(key)
            if entry is not None:
                _C_CACHE_STALE.add()
                obs_event("service.degraded",
                          request=request.describe(),
                          error=type(exc).__name__,
                          stale_seconds=round(entry.age_seconds, 3))
                attribution.serving = "stale_cache"
                return {"status": "degraded", "cache": "stale",
                        "request": request.canonical(),
                        "result": entry.result,
                        "stale_seconds": round(entry.age_seconds, 3),
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "attribution": attribution.as_dict()}
        attribution.serving = "none"
        return {"status": "failed",
                "error": type(exc).__name__,
                "message": str(exc),
                "exit_code": error_exit_code(exc),
                "attribution": attribution.as_dict()}

    # ------------------------------------------------------- accounting

    def _breaker(self, request: MeasureRequest) -> CircuitBreaker:
        stream = (request.primitive, request.system)
        with self._breaker_lock:
            breaker = self._breakers.get(stream)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.config.breaker_failures,
                    reset_timeout_s=self.config.breaker_reset_s,
                    clock=self._clock,
                    on_transition=lambda old, new, s=stream:
                        self._breaker_moved(s, old, new))
                self._breakers[stream] = breaker
            return breaker

    def _breaker_moved(self, stream: tuple[str, int],
                       old: str, new: str) -> None:
        obs_event("service.breaker_transition",
                  stream=f"{stream[0]}/s{stream[1]}",
                  from_state=old, to_state=new)
        if new == OPEN:
            _C_BREAKER_OPEN.add()

    def _count(self, response: dict) -> None:
        status = response.get("status")
        if status == "served":
            _C_SERVED.add()
        elif status == "degraded":
            _C_DEGRADED.add()
        else:
            _C_FAILED.add()

    def _observe_latency(self, latency_ms: float) -> None:
        # O(1): one histogram bucket add.  Percentiles (and the
        # back-compat gauges) materialize in latency_snapshot() only
        # when a reader asks.
        self.latency.observe(latency_ms)

    def _extract_trace(self, payload: object
                       ) -> tuple[object, TraceContext | None]:
        """Split the optional ``"trace"`` field off a request payload.

        The field must come off before :class:`MeasureRequest`
        validation (unknown fields are rejected by design) and before
        the cache key is computed — trace identity can never change
        what is measured or where it is cached.
        """
        if isinstance(payload, dict) and "trace" in payload:
            payload = dict(payload)
            ctx = TraceContext.from_wire(payload.pop("trace"))
            return payload, ctx
        return payload, None

    def _record_trace(self, ctx: TraceContext | None,
                      attribution: _Attribution, response: dict,
                      start: float, end: float) -> None:
        """Stitch one traced submission into the trace store."""
        if ctx is None:
            return
        response["trace_id"] = ctx.trace_id
        records = [{
            "type": "span", "sid": 0, "parent": None,
            "name": "service.request",
            "t0": start, "t1": end,
            "trace_id": ctx.trace_id,
            "role": "daemon", "pid": os.getpid(),
            "attrs": {"status": response.get("status"),
                      "serving": attribution.serving or "none"},
        }]
        records.extend(attribution.spans)
        self.traces.add(ctx.trace_id, records)

    def _ledger(self, payload: object, response: dict) -> None:
        """Durably record one terminal response in the checkpoint."""
        if self._checkpoint is None:
            return
        status = response.get("status")
        described = payload.get("primitive", "?") \
            if isinstance(payload, dict) else "?"
        outcome_status = {"served": "done",
                          "degraded": "skipped"}.get(status, "failed")
        with self._checkpoint_lock:
            index = self._request_index
            self._request_index += 1
            outcome = ExperimentOutcome(
                exp_id=f"req-{index:06d}",
                status=outcome_status,
                error=response.get("error", ""),
                message=f"{described}: {status}"
                        + (f" ({response.get('message', '')})"
                           if status != "served" else ""))
            self._checkpoint.record(outcome)
