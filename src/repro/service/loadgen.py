"""Seeded load generator for the measurement service.

Drives a running daemon over real HTTP (``http.client``, one-shot
connections, a thread per lane) with a deterministic request mix, then
reconciles three views of the run:

* the client's own ledger — every request it sent and the terminal
  status it got back (anything unanswerable is counted ``lost``, which
  the smoke gate requires to be zero);
* client-side latency percentiles (p50/p99) over all requests;
* the daemon's ``/metrics`` counters, as deltas across the run — the
  counter identity ``requests == served + degraded + failed`` must
  hold exactly, and the server must have counted exactly as many new
  requests as the client sent.  Deltas, not absolutes, so a daemon
  that already served other traffic still reconciles — but the
  generator must be the only active client while it runs.

Three further audits ride on the same run:

* **attribution** — every non-coalesced response's ``attribution.
  counters`` (per-request ``dispatch.*``/``cache.*`` deltas) must sum
  to exactly the server-side ``/metrics`` movement of those counters;
* **histogram** — the daemon's ``syncperf_service_latency_ms``
  exposition, diffed across the run, must have counted exactly the
  requests the daemon reports serving (client and server observe
  different clocks, so only counts — not sums — reconcile);
* **tracing** (``trace=True``) — every request carries a fresh
  :class:`TraceContext`; the report then proves at least one response's
  ``trace_id`` resolves via ``GET /trace/<id>`` to a stitched
  cross-process trace whose spans cover both the daemon and an
  executor role (worker or inline).

The mix is Zipf-flavoured on purpose: a small set of popular requests
recurs (exercising the cache-hit path) over a long tail of distinct
ones (exercising cold dispatch), all drawn from a seeded stream so two
runs with the same seed replay the same traffic.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from repro.obs.context import TraceContext, trace_roles
from repro.obs.export import _metric_name
from repro.obs.hist import LatencyHistogram
from repro.service.catalog import CATALOG, MeasureRequest
from repro.service.daemon import LATENCY_SERIES

#: Thread counts the CPU mix draws from (valid on every paper system).
_CPU_THREADS = (2, 4, 8, 16)
_GPU_THREADS = (32, 64, 128, 256)
_GPU_BLOCKS = (1, 2, 4)

#: Every ``dispatch.*``/``cache.*`` counter the engine can move — the
#: attribution audit compares sums over the union of these and
#: whatever the responses actually reported, so a counter the server
#: moved but no response attributed still fails the audit.
KNOWN_ATTR_COUNTERS = (
    "dispatch.hit", "dispatch.miss", "dispatch.shape_hit",
    "dispatch.compile", "dispatch.fallback", "dispatch.lifted_blocks",
    "dispatch.lifted_regions", "dispatch.evictions",
    "dispatch.disk_hit", "dispatch.disk_miss", "dispatch.disk_write",
    "dispatch.disk_corrupt", "cache.evictions",
)


def request_mix(n: int, seed: int = 0,
                popular_fraction: float = 0.6) -> list[dict]:
    """A deterministic traffic mix of ``n`` request payloads.

    ``popular_fraction`` of requests repeat one of four fixed popular
    requests (cache-hot); the rest are drawn across the catalogue
    (cache-cold at first sight).
    """
    rng = random.Random(f"loadgen/{seed}")
    popular = [
        {"primitive": "omp_atomic", "threads": 16},
        {"primitive": "omp_barrier", "threads": 8},
        {"primitive": "cuda_syncthreads", "threads": 128, "blocks": 2},
        {"primitive": "cuda_atomicadd", "threads": 64, "blocks": 2},
    ]
    names = sorted(CATALOG)
    payloads: list[dict] = []
    for _ in range(n):
        if rng.random() < popular_fraction:
            payloads.append(dict(rng.choice(popular)))
            continue
        name = rng.choice(names)
        if CATALOG[name].substrate == "cpu":
            payloads.append({"primitive": name,
                             "threads": rng.choice(_CPU_THREADS)})
        else:
            payloads.append({"primitive": name,
                             "threads": rng.choice(_GPU_THREADS),
                             "blocks": rng.choice(_GPU_BLOCKS)})
    for payload in payloads:
        MeasureRequest.from_json(dict(payload))  # the mix is always valid
    return payloads


def parse_metrics(text: str) -> dict[str, float]:
    """Parse Prometheus text exposition into ``{metric: value}``."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:  # pragma: no cover - malformed exposition
            continue
    return values


def _percentile(sample: list[float], q: float) -> float:
    if not sample:
        return 0.0
    ordered = sorted(sample)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1)))
    return round(ordered[index], 3)


class LoadGenerator:
    """Threaded HTTP replay of a request mix against one daemon.

    Args:
        host: Daemon host.
        port: Daemon port.
        concurrency: Client lanes (threads).
        timeout_s: Per-request socket timeout; a timeout counts the
            request as ``lost`` (the one thing the smoke gate forbids).
        trace: Stamp every request with a fresh trace context and
            audit stitched traces via ``GET /trace/<id>`` after the
            run.
    """

    def __init__(self, host: str, port: int, concurrency: int = 4,
                 timeout_s: float = 60.0, trace: bool = False) -> None:
        self.host = host
        self.port = port
        self.concurrency = max(1, concurrency)
        self.timeout_s = timeout_s
        self.trace = trace
        #: Spans of the last stitched trace the post-run audit fetched
        #: (for ``--trace-out`` export).
        self.last_trace: list[dict] = []

    def _post(self, payload: dict) -> dict | None:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request("POST", "/measure", body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            raw = conn.getresponse().read()
            return json.loads(raw.decode())
        except (OSError, ValueError):
            return None
        finally:
            conn.close()

    def _get(self, path: str) -> str:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def run(self, payloads: list[dict]) -> dict:
        """Replay the mix and reconcile client and server accounting.

        Returns:
            A report dict: ``sent``, per-status counts, ``lost``,
            client p50/p99 latencies, the ``/metrics`` counter deltas
            across the run, ``reconciled`` (the counter identity),
            ``attribution_reconciled`` (per-response counter sums ==
            server deltas), ``hist`` (client/server histogram counts +
            ``reconciled``), and — with ``trace=True`` — ``trace``
            (stitched-trace audit results).
        """
        before_text = self._get("/metrics")
        before = parse_metrics(before_text)
        lanes: list[list[dict]] = [[] for _ in range(self.concurrency)]
        for index, payload in enumerate(payloads):
            lanes[index % self.concurrency].append(payload)
        statuses: dict[str, int] = {}
        latencies: list[float] = []
        responses: list[dict] = []
        client_hist = LatencyHistogram()
        lost = 0
        lock = threading.Lock()

        def lane(work: list[dict]) -> None:
            nonlocal lost
            for payload in work:
                if self.trace:
                    payload = dict(payload,
                                   trace=TraceContext.new().to_wire())
                start = time.monotonic()
                response = self._post(payload)
                elapsed_ms = (time.monotonic() - start) * 1e3
                with lock:
                    if response is None or "status" not in response:
                        lost += 1
                        continue
                    latencies.append(elapsed_ms)
                    client_hist.observe(elapsed_ms)
                    responses.append(response)
                    status = response["status"]
                    statuses[status] = statuses.get(status, 0) + 1

        threads = [threading.Thread(target=lane, args=(work,),
                                    daemon=True)
                   for work in lanes if work]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        after_text = self._get("/metrics")
        after = parse_metrics(after_text)

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        requests = delta("syncperf_service_requests")
        served = delta("syncperf_service_served")
        degraded = delta("syncperf_service_degraded")
        failed = delta("syncperf_service_failed")
        reconciled = (lost == 0
                      and requests == served + degraded + failed
                      and requests == float(len(payloads)))
        report = {
            "sent": len(payloads),
            "statuses": dict(sorted(statuses.items())),
            "lost": lost,
            "p50_ms": _percentile(latencies, 0.50),
            "p99_ms": _percentile(latencies, 0.99),
            "server": {"requests": requests, "served": served,
                       "degraded": degraded, "failed": failed},
            "reconciled": reconciled,
        }
        report["attribution_reconciled"] = self._reconcile_attribution(
            responses, delta, lost)
        report["hist"] = self._reconcile_histograms(
            before_text, after_text, client_hist, requests)
        if self.trace:
            report["trace"] = self._audit_traces(responses)
        return report

    # ----------------------------------------------------------- audits

    def _reconcile_attribution(self, responses: list[dict], delta,
                               lost: int) -> bool:
        """Per-response counter sums must equal the server's deltas.

        Coalesced followers carry a *copy* of their leader's
        attribution — the work happened once — so they are skipped.
        A lost request may still have moved server counters the client
        never saw, so any loss fails the audit outright.
        """
        if lost:
            return False
        sums: dict[str, float] = {}
        for response in responses:
            if response.get("coalesced"):
                continue
            attribution = response.get("attribution") or {}
            for name, value in (attribution.get("counters")
                                or {}).items():
                sums[name] = sums.get(name, 0.0) + value
        names = set(sums) | set(KNOWN_ATTR_COUNTERS)
        return all(sums.get(name, 0.0) == delta(_metric_name(name))
                   for name in names)

    def _reconcile_histograms(self, before_text: str, after_text: str,
                              client_hist: LatencyHistogram,
                              requests: float) -> dict:
        """Server histogram window vs the daemon's request accounting.

        Client and server measure different clocks (socket round-trip
        vs submission wall time), so the distributions differ — but
        the *counts* must match exactly: the server bucketed one
        latency per request it reports having processed.
        """
        try:
            server_before = LatencyHistogram.from_prometheus(
                before_text, LATENCY_SERIES)
            server_after = LatencyHistogram.from_prometheus(
                after_text, LATENCY_SERIES)
            window = server_after.diff(server_before)
        except ValueError as exc:
            return {"reconciled": False, "error": str(exc)}
        return {
            "client_count": client_hist.count,
            "server_count": window.count,
            "server_p50_ms": window.percentile(0.50),
            "server_p99_ms": window.percentile(0.99),
            "reconciled": float(window.count) == requests,
        }

    def _audit_traces(self, responses: list[dict]) -> dict:
        """Fetch stitched traces for measured responses and check them.

        A trace counts as stitched when its spans span two roles — the
        daemon plus an executor (worker or inline) — under one id, and
        include a measurement-layer span (``engine.*``), proving the
        context crossed the process (or at least the dispatch)
        boundary and the worker's span buffer shipped back.
        """
        candidates = [
            response for response in responses
            if response.get("trace_id")
            and not response.get("coalesced")
            and (response.get("attribution") or {}).get("serving")
            == "measured"]
        stitched = 0
        checked = 0
        for response in candidates[:8]:
            trace_id = response["trace_id"]
            try:
                body = json.loads(self._get(f"/trace/{trace_id}"))
            except ValueError:
                continue
            spans = body.get("spans") or []
            checked += 1
            roles = set(trace_roles(spans))
            names = {record.get("name") for record in spans}
            if "daemon" in roles and \
                    (roles & {"worker", "daemon-inline"}) and \
                    any(str(name).startswith("engine.")
                        for name in names):
                stitched += 1
                self.last_trace = spans
        return {"traced": len(candidates), "checked": checked,
                "stitched": stitched,
                "ok": stitched > 0 or not candidates}
