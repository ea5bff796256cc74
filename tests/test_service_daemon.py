"""The HTTP daemon and load generator over a real loopback socket."""

from __future__ import annotations

import http.client
import json
import sys
import threading

import pytest

from repro.obs.context import TraceContext
from repro.service.cache import ResultCache
from repro.service.core import MeasurementService, ServiceConfig
from repro.service.daemon import ServiceDaemon
from repro.service.loadgen import (
    LoadGenerator,
    parse_metrics,
    request_mix,
)
from repro.service.policy import RetryPolicy


@pytest.fixture()
def daemon(tmp_path):
    """A running daemon on an ephemeral loopback port (inline mode:
    these tests exercise the HTTP boundary, not process supervision)."""
    service = MeasurementService(ServiceConfig(
        workers=0, cache_dir=tmp_path / "cache",
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.001)))
    daemon = ServiceDaemon(service)
    daemon.run_in_thread()
    yield daemon
    service.close()


def _request(daemon, method, path, body=None, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                      timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None
                     else None)
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


class TestEndpoints:
    def test_measure_round_trip(self, daemon):
        status, raw = _request(daemon, "POST", "/measure",
                               {"primitive": "omp_atomic",
                                "threads": 16})
        assert status == 200
        payload = json.loads(raw)
        assert payload["status"] == "served"
        assert payload["result"]["per_op_time"] is not None
        assert payload["latency_ms"] >= 0

    def test_bad_request_is_400_with_taxonomy(self, daemon):
        status, raw = _request(daemon, "POST", "/measure",
                               {"primitive": "nope"})
        assert status == 400
        payload = json.loads(raw)
        assert payload["error"] == "ConfigurationError"

    def test_non_json_body_is_400(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=30.0)
        try:
            conn.request("POST", "/measure", body="{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_route_404_and_wrong_method_405(self, daemon):
        assert _request(daemon, "GET", "/nothere")[0] == 404
        assert _request(daemon, "GET", "/measure")[0] == 405
        assert _request(daemon, "POST", "/metrics")[0] == 405

    def test_healthz_lists_catalog_and_breakers(self, daemon):
        status, raw = _request(daemon, "GET", "/healthz")
        assert status == 200
        health = json.loads(raw)
        assert health["status"] == "ok"
        assert "omp_atomic" in health["catalog"]
        assert "breakers" in health

    def test_metrics_are_deltas_since_daemon_start(self, daemon):
        _request(daemon, "POST", "/measure",
                 {"primitive": "omp_barrier"})
        _, text = _request(daemon, "GET", "/metrics")
        values = parse_metrics(text)
        assert values["syncperf_service_requests"] == 1.0
        assert values["syncperf_service_served"] == 1.0


class TestLoadGenerator:
    def test_load_reconciles_and_reports_latency(self, daemon):
        generator = LoadGenerator("127.0.0.1", daemon.port,
                                  concurrency=3)
        report = generator.run(request_mix(18, seed=5))
        assert report["reconciled"], report
        assert report["lost"] == 0
        assert report["sent"] == 18
        assert report["p99_ms"] >= report["p50_ms"] > 0
        assert report["server"]["requests"] == 18.0

    def test_loop_and_executor_submissions_reconcile_under_stress(
            self, daemon):
        # Hits finish on the event loop while misses finish on executor
        # threads; a lost counter or histogram update between them
        # breaks the reconciliation.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            generator = LoadGenerator("127.0.0.1", daemon.port,
                                      concurrency=6)
            report = generator.run(request_mix(60, seed=9))
        finally:
            sys.setswitchinterval(interval)
        assert report["lost"] == 0
        assert report["reconciled"], report
        assert report["attribution_reconciled"], report
        assert report["hist"]["reconciled"], report


def _inline_service(tmp_path, **overrides) -> MeasurementService:
    config = dict(workers=0, cache_dir=tmp_path / "cache",
                  retry=RetryPolicy(max_attempts=2, base_delay_s=0.001))
    config.update(overrides)
    return MeasurementService(ServiceConfig(**config))


class TestEventLoopAnswers:
    """Hits and invalid requests are answered on the event loop; only
    requests that can block wait for an executor thread."""

    def test_hit_is_served_while_a_miss_holds_the_executor(self,
                                                           tmp_path):
        service = _inline_service(tmp_path)
        cached = {"primitive": "omp_barrier"}
        assert service.submit(cached)["cache"] == "miss"
        entered, release = threading.Event(), threading.Event()
        measure_miss = service._measure_miss

        def blocked(*args):
            entered.set()
            release.wait(30.0)
            return measure_miss(*args)

        service._measure_miss = blocked
        daemon = ServiceDaemon(service, max_concurrency=1)
        daemon.run_in_thread()
        miss: list = []
        client = threading.Thread(target=lambda: miss.append(_request(
            daemon, "POST", "/measure", {"primitive": "omp_atomic"})))
        client.start()
        try:
            assert entered.wait(30.0), "the miss never reached a worker"
            status, raw = _request(daemon, "POST", "/measure", cached,
                                   timeout=5.0)
            assert status == 200
            assert json.loads(raw)["cache"] == "hit"
            status, _ = _request(daemon, "POST", "/measure",
                                 {"primitive": "nope"}, timeout=5.0)
            assert status == 400
            assert not release.is_set()
        finally:
            release.set()
            client.join(30.0)
            service.close()
        status, raw = miss[0]
        assert status == 200
        assert json.loads(raw)["cache"] == "miss"

    def test_one_submit_and_at_most_one_cache_read_per_request(
            self, daemon, monkeypatch):
        calls = {"submit": 0, "get": 0}

        def count(owner, attr, name):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        count(MeasurementService, "submit", "submit")
        count(ResultCache, "get", "get")

        def post(body):
            before = dict(calls)
            status, raw = _request(daemon, "POST", "/measure", body)
            return status, json.loads(raw), {
                name: calls[name] - before[name] for name in calls}

        payload = {"primitive": "omp_atomic", "threads": 8}
        status, miss, delta = post(payload)
        assert (status, miss["cache"]) == (200, "miss")
        assert delta == {"submit": 1, "get": 1}
        status, hit, delta = post(payload)
        assert (status, hit["cache"]) == (200, "hit")
        assert delta == {"submit": 1, "get": 1}
        status, traced, delta = post(
            dict(payload, trace=TraceContext.new().to_wire()))
        assert (status, traced["cache"]) == (200, "hit")
        assert "trace_id" in traced
        assert delta == {"submit": 1, "get": 1}
        # An invalid request has no cache key, so it never reads.
        status, _, delta = post({"primitive": "nope"})
        assert status == 400
        assert delta == {"submit": 1, "get": 0}

    def test_bodies_are_compact_and_parse_to_the_submitted_response(
            self, daemon, monkeypatch):
        returned: list[dict] = []
        submit = daemon.service.submit

        def recording(found):
            returned.append(submit(found))
            return returned[-1]

        monkeypatch.setattr(daemon.service, "submit", recording)
        payload = {"primitive": "omp_atomic", "threads": 4}
        for body, cache in ((payload, "miss"), (payload, "hit"),
                            ({"primitive": "nope"}, None)):
            status, raw = _request(daemon, "POST", "/measure", body)
            parsed = json.loads(raw)
            assert parsed == returned[-1]
            assert parsed.get("cache") == cache
            assert status == (400 if cache is None else 200)
            assert raw == json.dumps(returned[-1],
                                     separators=(",", ":")) + "\n"

    def test_ledger_records_each_hit_once(self, tmp_path):
        ledger_path = tmp_path / "ledger.json"
        service = _inline_service(tmp_path, checkpoint_path=ledger_path)
        payload = {"primitive": "omp_barrier"}
        daemon = ServiceDaemon(service)
        daemon.run_in_thread()
        try:
            caches = [json.loads(_request(daemon, "POST", "/measure",
                                          payload)[1])["cache"]
                      for _ in range(4)]
            # The ledger fsyncs, so even a hit finishes off the loop.
            assert service.lookup(payload).blocking
        finally:
            service.close()
        assert caches == ["miss", "hit", "hit", "hit"]
        records = json.loads(ledger_path.read_text())["experiments"]
        assert sorted(records) == [f"req-{i:06d}" for i in range(4)]
        assert {r["status"] for r in records.values()} == {"done"}
