"""Cross-process tracing and per-request attribution in the service."""

from __future__ import annotations

import http.client
import json
import os

import pytest

from repro.faults.process import ProcessFaultPlan
from repro.obs.context import TraceContext, current_context, trace_roles
from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import counters_delta, counters_snapshot
from repro.obs.recorder import get_recorder
from repro.service.core import MeasurementService, ServiceConfig
from repro.service.daemon import LATENCY_SERIES, ServiceDaemon
from repro.service.loadgen import LoadGenerator, request_mix
from repro.service.policy import RetryPolicy
from repro.service.workers import serve_job

#: The counter families surfaced in response attribution.
_ATTR_PREFIXES = ("dispatch.", "cache.")


@pytest.fixture(autouse=True)
def _no_leftover_trace_state():
    """Tracing must never leak context or a recorder across tests."""
    yield
    assert get_recorder() is None
    assert current_context() is None


def _traced(payload: dict) -> tuple[dict, TraceContext]:
    """A request payload stamped with a fresh wire trace context."""
    ctx = TraceContext.new()
    return dict(payload, trace=ctx.to_wire()), ctx


class TestInlineAttribution:
    """Inline-mode (workers=0) attribution and trace stitching."""

    def _config(self, tmp_path, **overrides):
        base = dict(workers=0, cache_dir=tmp_path / "cache",
                    retry=RetryPolicy(max_attempts=2,
                                      base_delay_s=0.001))
        base.update(overrides)
        return ServiceConfig(**base)

    def test_measured_response_carries_attribution(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            before = counters_snapshot(_ATTR_PREFIXES)
            response = service.submit({"primitive": "omp_atomic",
                                       "threads": 8})
            delta = counters_delta(before, _ATTR_PREFIXES)
        assert response["status"] == "served"
        attribution = response["attribution"]
        assert attribution["serving"] == "measured"
        assert attribution["tier"] in ("replay", "shape", "disk",
                                       "lift", "interpret")
        assert attribution["worker_pid"] == os.getpid()
        assert attribution["attempts"] == 1
        assert attribution["retries"] == 0
        assert attribution["breaker"] == "closed"
        # Exact reconciliation: the per-request counters ARE the
        # registry movement of the attributed families.
        assert attribution["counters"] == delta

    def test_cache_hit_attribution_has_no_tier(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            service.submit({"primitive": "omp_barrier"})
            warm = service.submit({"primitive": "omp_barrier"})
        attribution = warm["attribution"]
        assert attribution["serving"] == "cache_hit"
        assert attribution["tier"] is None
        assert attribution["counters"] == {}

    def test_failed_response_attributes_none(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            response = service.submit({"primitive": "nope"})
        assert response["status"] == "failed"
        assert response["attribution"]["serving"] == "none"

    def test_traced_submission_stitches_inline_trace(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            payload, ctx = _traced({"primitive": "omp_atomic",
                                    "threads": 8})
            response = service.submit(payload)
            spans = service.traces.get(ctx.trace_id)
        assert response["trace_id"] == ctx.trace_id
        assert response["attribution"]["trace_id"] == ctx.trace_id
        roles = set(trace_roles(spans))
        assert {"daemon", "daemon-inline"} <= roles
        names = {record["name"] for record in spans}
        assert "service.request" in names
        assert "service.execute" in names
        assert any(str(name).startswith("engine.") for name in names)
        assert all(record.get("trace_id") == ctx.trace_id
                   for record in spans)

    def test_context_never_leaks_into_next_request(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            payload, _ = _traced({"primitive": "omp_atomic"})
            assert "trace_id" in service.submit(payload)
            plain = service.submit({"primitive": "omp_atomic",
                                    "threads": 4})
        assert plain["status"] == "served"
        assert "trace_id" not in plain
        assert current_context() is None

    def test_torn_trace_field_degrades_to_untraced(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            response = service.submit({"primitive": "omp_atomic",
                                       "trace": "not-a-context"})
        assert response["status"] == "served"
        assert "trace_id" not in response
        assert len(service.traces) == 0

    def test_trace_store_eviction_bounds_the_daemon(self, tmp_path):
        config = self._config(tmp_path, trace_max=2)
        with MeasurementService(config) as service:
            ids = []
            for threads in (2, 4, 8):
                payload, ctx = _traced({"primitive": "omp_atomic",
                                        "threads": threads})
                service.submit(payload)
                ids.append(ctx.trace_id)
            assert service.traces.get(ids[0]) is None
            assert service.traces.get(ids[-1]) is not None


class TestPoolTracing:
    """Real forked workers: propagation, kill+replace, reconciliation."""

    def _config(self, tmp_path, **overrides):
        base = dict(workers=1, cache_dir=tmp_path / "cache",
                    retry=RetryPolicy(max_attempts=2,
                                      base_delay_s=0.001))
        base.update(overrides)
        return ServiceConfig(**base)

    def test_trace_crosses_the_process_boundary(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            payload, ctx = _traced({"primitive": "omp_atomic",
                                    "threads": 8})
            before = counters_snapshot(_ATTR_PREFIXES)
            response = service.submit(payload)
            delta = counters_delta(before, _ATTR_PREFIXES)
            spans = service.traces.get(ctx.trace_id)
        assert response["status"] == "served"
        attribution = response["attribution"]
        assert attribution["serving"] == "measured"
        assert attribution["worker_pid"] not in (None, os.getpid())
        # The folded worker deltas are the parent registry's movement.
        assert attribution["counters"] == delta
        roles = set(trace_roles(spans))
        assert {"daemon", "worker"} <= roles
        worker_spans = [record for record in spans
                        if record.get("role") == "worker"]
        assert worker_spans
        assert all(record["pid"] == attribution["worker_pid"]
                   for record in worker_spans)
        names = {record["name"] for record in spans}
        assert "service.worker" in names
        assert any(str(name).startswith("engine.") for name in names)

    def test_trace_survives_worker_kill_and_replace(self, tmp_path):
        config = self._config(
            tmp_path, retry=RetryPolicy(max_attempts=1),
            fault_plan=ProcessFaultPlan(crash_prob=1.0, seed=1))
        with MeasurementService(config,
                                sleep=lambda _s: None) as service:
            payload, _ = _traced({"primitive": "omp_atomic"})
            crashed = service.submit(payload)
            assert crashed["status"] == "failed"
            assert service.pool.restarts >= 1
            # Faults off: the *replacement* worker must still receive
            # and ship the trace context.
            service.pool._fault_plan = None
            payload, ctx = _traced({"primitive": "omp_atomic"})
            response = service.submit(payload)
            spans = service.traces.get(ctx.trace_id)
        assert response["status"] == "served"
        roles = set(trace_roles(spans))
        assert {"daemon", "worker"} <= roles
        assert service.health()["restart_reasons"].get(
            "worker_crash", 0) >= 1

    def test_healthz_reports_per_worker_detail(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            service.submit({"primitive": "omp_atomic"})
            health = service.health()
        assert health["workers"] == 1
        assert isinstance(health["latency_count"], int)
        assert health["latency_count"] >= 1
        assert health["restart_reasons"] == {}
        (stat,) = health["workers_detail"]
        assert stat["alive"] is True
        assert isinstance(stat["pid"], int)
        assert stat["heartbeat_age_s"] >= 0.0


class TestWorkerJobFrames:
    """The worker-side job core: restoration, shipping, no leaks."""

    JOB = {"request": {"primitive": "omp_atomic", "threads": 4},
           "seq": 0, "fate": None}

    def test_traced_job_ships_stamped_spans(self):
        ctx = TraceContext.new()
        reply = serve_job(dict(self.JOB, trace=ctx.to_wire()))
        assert reply["status"] == "ok"
        assert reply["pid"] == os.getpid()
        assert reply["counters"]
        spans = reply["spans"]
        assert all(record["trace_id"] == ctx.trace_id
                   for record in spans)
        assert all(record["role"] == "worker" for record in spans)
        assert "service.worker" in {r["name"] for r in spans}

    def test_untraced_job_ships_no_spans(self):
        reply = serve_job(dict(self.JOB))
        assert reply["status"] == "ok"
        assert "spans" not in reply

    @pytest.mark.parametrize("torn", ["garbage", 7, {}, {"trace_id": 3}])
    def test_torn_trace_frame_degrades_to_untraced(self, torn):
        reply = serve_job(dict(self.JOB, trace=torn))
        assert reply["status"] == "ok"
        assert "spans" not in reply

    def test_context_is_scoped_to_one_job(self):
        traced = serve_job(dict(self.JOB,
                                trace=TraceContext.new().to_wire()))
        follow_up = serve_job(dict(self.JOB))
        assert "spans" in traced
        assert "spans" not in follow_up
        assert current_context() is None

    def test_failing_job_still_reports_identity(self):
        bad = {"request": {"primitive": "omp_atomic", "threads": 999},
               "seq": 0, "fate": None,
               "trace": TraceContext.new().to_wire()}
        reply = serve_job(bad)
        assert reply["status"] == "error"
        assert reply["error"] == "ConfigurationError"
        assert reply["pid"] == os.getpid()
        assert current_context() is None


@pytest.fixture()
def daemon(tmp_path):
    """A running inline-mode daemon on an ephemeral loopback port."""
    service = MeasurementService(ServiceConfig(
        workers=0, cache_dir=tmp_path / "cache",
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.001)))
    daemon = ServiceDaemon(service)
    daemon.run_in_thread()
    yield daemon
    service.close()


def _request(daemon, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                      timeout=30.0)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None
                     else None)
        response = conn.getresponse()
        return (response.status, response.getheader("Content-Type"),
                response.read().decode())
    finally:
        conn.close()


class TestDaemonObservability:
    def test_trace_endpoint_round_trip(self, daemon):
        payload, ctx = _traced({"primitive": "omp_atomic",
                                "threads": 16})
        status, _, raw = _request(daemon, "POST", "/measure", payload)
        assert status == 200
        assert json.loads(raw)["trace_id"] == ctx.trace_id
        status, ctype, raw = _request(daemon, "GET",
                                      f"/trace/{ctx.trace_id}")
        assert status == 200
        assert ctype.startswith("application/json")
        body = json.loads(raw)
        assert body["trace_id"] == ctx.trace_id
        assert {"daemon", "daemon-inline"} <= \
            set(trace_roles(body["spans"]))

    def test_unknown_trace_is_404(self, daemon):
        status, _, raw = _request(daemon, "GET", "/trace/deadbeef")
        assert status == 404
        assert "unknown trace" in json.loads(raw)["error"]
        assert _request(daemon, "POST", "/trace/deadbeef")[0] == 405

    def test_metrics_exposition_carries_the_histogram(self, daemon):
        for threads in (2, 4):
            _request(daemon, "POST", "/measure",
                     {"primitive": "omp_atomic", "threads": threads})
        _, ctype, text = _request(daemon, "GET", "/metrics")
        assert ctype.startswith("text/plain")
        hist = LatencyHistogram.from_prometheus(text, LATENCY_SERIES)
        assert hist.count == 2
        assert hist.sum > 0

    def test_dashboard_is_selfcontained_html(self, daemon):
        _request(daemon, "POST", "/measure",
                 {"primitive": "omp_barrier"})
        status, ctype, page = _request(daemon, "GET", "/dashboard")
        assert status == 200
        assert ctype.startswith("text/html")
        assert "<svg" in page
        assert "latency (ms)" in page
        assert _request(daemon, "POST", "/dashboard")[0] == 405


class TestTracedLoadGenerator:
    def test_traced_run_audits_stitching_end_to_end(self, daemon):
        generator = LoadGenerator("127.0.0.1", daemon.port,
                                  concurrency=3, trace=True)
        report = generator.run(request_mix(12, seed=11))
        assert report["reconciled"], report
        assert report["attribution_reconciled"], report
        assert report["hist"]["reconciled"], report
        assert report["hist"]["server_count"] == 12
        trace = report["trace"]
        assert trace["traced"] > 0
        assert trace["stitched"] > 0
        assert trace["ok"], report
        assert generator.last_trace  # exported by --trace-out
