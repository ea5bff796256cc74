"""Asyncio HTTP/JSON front-end of the measurement service.

A deliberately small, dependency-free HTTP/1.1 server (``asyncio``
streams; no frameworks) exposing three endpoints:

``POST /measure``
    Body: a JSON measure request (:class:`repro.service.catalog.
    MeasureRequest` wire format).  Responds 200 with the terminal
    response dict for ``served`` *and* ``degraded`` (a degraded answer
    is a success with an explicit staleness label, not an error), 400
    for invalid requests, 503 when the service is unavailable (circuit
    open / workers lost / deadline) with no cache to fall back on, and
    500 for anything else.  The event loop parses the body and runs
    :meth:`~repro.service.core.MeasurementService.lookup` (validation,
    cache key, one cache read).  Requests that cannot block — fresh
    cache hits and invalid requests — are answered on the loop; misses
    and stale entries wait on a worker, and a service with a checkpoint
    ledger fsyncs every answer, so those finish on an executor
    thread.  Bodies are compact JSON.

``GET /metrics``
    Prometheus text exposition of the service's counters (service,
    dispatch, and cache families) — as deltas against the daemon's
    start so one process can host sequential daemons without leaking
    counts across them — plus latency gauges and the full
    ``syncperf_service_latency_ms`` histogram triple.

``GET /healthz``
    JSON liveness: version, worker restarts and per-worker heartbeat
    detail, per-stream breaker states, latency percentiles, and the
    primitive catalogue.

``GET /trace/<id>``
    The stitched cross-process trace for one ``trace_id`` previously
    returned by ``/measure`` — daemon, worker, and engine span records
    sharing that id — or 404 when unknown/evicted.

``GET /dashboard``
    A self-contained SVG/HTML ops page (latency histogram, dispatch
    tier mix, serving mix, breaker/worker tables) rendered through
    :mod:`repro.obs.dashboard`.

Connections are one-shot (``Connection: close``): the client mix is
benchmarks and smoke tests, where per-request sockets keep failure
attribution trivial.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs.dashboard import render_dashboard
from repro.obs.export import prometheus_text
from repro.obs.metrics import REGISTRY
from repro.service.catalog import CATALOG
from repro.service.core import MeasurementService
from repro.service.policy import EXIT_CONFIG, EXIT_UNAVAILABLE

#: Largest accepted request body; a measure request is ~100 bytes.
MAX_BODY_BYTES = 64 * 1024

#: Counter families exposed (and baselined) by ``GET /metrics``.
METRIC_PREFIXES = ("service.", "dispatch.", "cache.")

#: Series name of the served-latency histogram exposition.
LATENCY_SERIES = "syncperf_service_latency_ms"


class _Html(str):
    """Marker subclass: respond as ``text/html``, not ``text/plain``."""

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                500: "Internal Server Error", 503: "Service Unavailable"}


def _http_status(response: dict) -> int:
    """Map a terminal service response onto an HTTP status."""
    if response.get("status") in ("served", "degraded"):
        return 200
    exit_code = response.get("exit_code")
    if exit_code == EXIT_CONFIG:
        return 400
    if exit_code == EXIT_UNAVAILABLE:
        return 503
    return 500


class ServiceDaemon:
    """One HTTP daemon wrapping a :class:`MeasurementService`.

    Args:
        service: The service to expose.
        host: Bind address (loopback by default; this is a lab tool).
        port: Bind port (0 = ephemeral; read :attr:`port` after start).
        max_concurrency: Executor threads for in-flight blocking
            submissions (misses, stale entries, and every request of a
            service with a checkpoint ledger).  Hits and invalid
            requests are answered on the event loop and never wait
            for one.
    """

    def __init__(self, service: MeasurementService,
                 host: str = "127.0.0.1", port: int = 0,
                 max_concurrency: int = 8) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency,
            thread_name_prefix="service-submit")
        self._server: asyncio.AbstractServer | None = None
        self._counter_baseline: dict[str, int] = {}
        self._started = threading.Event()

    # --------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start serving (resolves :attr:`port`)."""
        self._counter_baseline = {
            name: value for name, value in REGISTRY.counters().items()
            if name.startswith(METRIC_PREFIXES)}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def run_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread; returns once the port is bound.

        The embedding entry for tests and the smoke harness: the caller
        keeps the main thread (e.g. to drive a load generator) and the
        daemon dies with the process.
        """
        def main() -> None:
            asyncio.run(self.serve_forever())

        thread = threading.Thread(target=main, daemon=True,
                                  name="service-daemon")
        thread.start()
        if not self._started.wait(timeout=10.0):  # pragma: no cover
            raise RuntimeError("service daemon failed to bind in 10s")
        return thread

    # ---------------------------------------------------------- protocol

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, body = await self._handle_request(reader)
        except Exception as exc:  # noqa: BLE001 - protocol catch-all
            status = 500
            body = {"status": "failed", "error": type(exc).__name__,
                    "message": str(exc)}
        try:
            await self._respond(writer, status, body)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> tuple[int, dict | str]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line "
                                  f"{request_line!r}"}
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        if path == "/measure":
            if method != "POST":
                return 405, {"error": "POST /measure"}
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                return 400, {"error": "bad Content-Length"}
            if length > MAX_BODY_BYTES:
                return 413, {"error": f"body over {MAX_BODY_BYTES}B"}
            raw = await reader.readexactly(length) if length else b""
            try:
                payload = json.loads(raw.decode() or "null")
            except (ValueError, UnicodeDecodeError) as exc:
                return 400, {"status": "failed", "error": "BadRequest",
                             "message": f"body is not JSON: {exc}"}
            found = self.service.lookup(payload)
            if found.blocking:
                loop = asyncio.get_running_loop()
                response = await loop.run_in_executor(
                    self._executor, self.service.submit, found)
            else:
                response = self.service.submit(found)
            return _http_status(response), response
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET /metrics"}
            return 200, self._metrics_text()
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET /healthz"}
            health = self.service.health()
            health["catalog"] = {name: entry.description
                                 for name, entry in sorted(
                                     CATALOG.items())}
            return 200, health
        if path.startswith("/trace/"):
            if method != "GET":
                return 405, {"error": "GET /trace/<id>"}
            trace_id = path[len("/trace/"):]
            spans = self.service.traces.get(trace_id)
            if spans is None:
                return 404, {"error": f"unknown trace {trace_id!r}"}
            return 200, {"trace_id": trace_id, "spans": spans}
        if path == "/dashboard":
            if method != "GET":
                return 405, {"error": "GET /dashboard"}
            return 200, _Html(self._dashboard_html())
        return 404, {"error": f"no route for {path}"}

    def _dashboard_html(self) -> str:
        """The ops dashboard rendered from the live service."""
        counters = {
            name: value - self._counter_baseline.get(name, 0)
            for name, value in REGISTRY.counters().items()
            if name.startswith(METRIC_PREFIXES)}
        return render_dashboard(self.service.health(), counters,
                                self.service.latency)

    def _metrics_text(self) -> str:
        """Counter deltas since daemon start, gauges, and the latency
        histogram exposition."""
        counters = {
            name: value - self._counter_baseline.get(name, 0)
            for name, value in REGISTRY.counters().items()
            if name.startswith(METRIC_PREFIXES)}
        gauges = {name: value
                  for name, value in REGISTRY.gauges().items()
                  if name.startswith("service.")}
        text = prometheus_text(counters, gauges)
        hist_lines = self.service.latency.prometheus_lines(
            LATENCY_SERIES)
        return text + "\n".join(hist_lines) + "\n"

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body: dict | str) -> None:
        if isinstance(body, _Html):
            payload = body.encode()
            content_type = "text/html; charset=utf-8"
        elif isinstance(body, str):
            payload = body.encode()
            content_type = "text/plain; version=0.0.4"
        else:
            # Compact: any ``indent`` forces json's pure-Python encoder.
            payload = (json.dumps(body, separators=(",", ":"),
                                  default=str) + "\n").encode()
            content_type = "application/json"
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}"
                f"\r\nContent-Type: {content_type}"
                f"\r\nContent-Length: {len(payload)}"
                f"\r\nConnection: close\r\n\r\n")
        writer.write(head.encode() + payload)
        await writer.drain()
