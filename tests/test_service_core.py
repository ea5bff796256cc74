"""Service orchestration: catalog, worker supervision, degradation."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

import repro
from repro.common.errors import ConfigurationError
from repro.cpu.presets import cpu_preset
from repro.faults.process import ProcessFaultPlan
from repro.obs.metrics import REGISTRY
from repro.service.cache import ResultCache, cache_key
from repro.service.catalog import (
    CATALOG,
    DTYPE_BY_NAME,
    MeasureRequest,
    execute_request,
)
from repro.service.core import MeasurementService, ServiceConfig
from repro.service.policy import (
    EXIT_CONFIG,
    EXIT_UNAVAILABLE,
    RetryPolicy,
)
from repro.service.workers import WorkerPool


def _service_counters() -> dict[str, int]:
    return {name: value for name, value in REGISTRY.counters().items()
            if name.startswith("service.")}


def _reconciles(before: dict[str, int]) -> bool:
    after = _service_counters()
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in after}
    return delta.get("service.requests", 0) == (
        delta.get("service.served", 0)
        + delta.get("service.degraded", 0)
        + delta.get("service.failed", 0))


class TestProcessFaultPlan:
    def test_fates_are_deterministic_per_seq(self):
        plan = ProcessFaultPlan(crash_prob=0.3, hang_prob=0.3,
                                slow_prob=0.3, seed=9)
        fates = [plan.decide(seq) for seq in range(50)]
        assert fates == [plan.decide(seq) for seq in range(50)]
        assert len({f for f in fates if f}) >= 2  # mix actually varies

    def test_inactive_plan_never_fires(self):
        plan = ProcessFaultPlan()
        assert not plan.active
        assert all(plan.decide(seq) is None for seq in range(20))

    @pytest.mark.parametrize("kwargs", [
        {"crash_prob": -0.1},
        {"crash_prob": 1.1},
        {"crash_prob": 0.6, "hang_prob": 0.6},
        {"slow_seconds": -1.0},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProcessFaultPlan(**kwargs)


class TestCatalog:
    def test_every_entry_executes(self):
        for name, entry in CATALOG.items():
            request = MeasureRequest(
                primitive=name,
                threads=8 if entry.substrate == "cpu" else 64)
            payload = execute_request(request)
            assert payload["spec_name"], name
            expected = "ns" if entry.substrate == "cpu" else "cycles"
            assert payload["unit"] == expected

    def test_execution_is_deterministic(self):
        request = MeasureRequest(primitive="omp_atomic", threads=16)
        assert execute_request(request) == execute_request(request)

    def test_n_runs_override(self):
        request = MeasureRequest(primitive="omp_barrier", n_runs=3)
        assert execute_request(request)["spec_name"] == "omp_barrier"

    @pytest.mark.parametrize("payload", [
        {"primitive": "no_such_primitive"},
        {"primitive": "omp_atomic", "dtype": "quad"},
        {"primitive": "omp_atomic", "system": 4},
        {"primitive": "omp_atomic", "threads": 1},
        {"primitive": "omp_atomic", "threads": 4096},
        {"primitive": "cuda_syncthreads", "threads": 2048},
        {"primitive": "cuda_syncthreads", "blocks": 0},
        {"primitive": "omp_atomic", "n_runs": 0},
        {"primitive": "omp_atomic", "typo_field": 1},
        {"primitive": "omp_atomic", "threads": "many"},
        {},
        ["not", "a", "dict"],
    ])
    def test_invalid_requests_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            MeasureRequest.from_json(payload)


def _generated_payloads(n: int, seed: int) -> list[dict]:
    """Valid wire requests over every catalogue field."""
    rng = random.Random(seed)
    payloads = []
    for _ in range(n):
        primitive = rng.choice(sorted(CATALOG))
        system = rng.randint(1, 3)
        payload = {"primitive": primitive, "system": system,
                   "dtype": rng.choice(sorted(DTYPE_BY_NAME)),
                   "n_runs": rng.choice([None, rng.randint(1, 64)])}
        if CATALOG[primitive].substrate == "cpu":
            payload["threads"] = rng.randint(
                2, cpu_preset(system).max_threads)
        else:
            payload["threads"] = rng.randint(1, 1024)
            payload["blocks"] = rng.randint(1, 64)
        payloads.append(payload)
    return payloads


class TestCanonicalIdentity:
    """Cache identity is byte-identical to the ``asdict`` formula, so
    entries written before still hit."""

    def test_canonical_equals_asdict_in_field_order(self):
        for payload in _generated_payloads(300, seed=23):
            request = MeasureRequest.from_json(payload)
            canonical = request.canonical()
            assert canonical == dataclasses.asdict(request)
            assert list(canonical) == list(dataclasses.asdict(request))

    def test_lookup_key_is_the_asdict_key(self, tmp_path):
        with MeasurementService(ServiceConfig(
                workers=0, cache_dir=tmp_path / "cache")) as service:
            fingerprint = json.dumps(service.fingerprint, sort_keys=True)
            for payload in _generated_payloads(100, seed=29):
                request = MeasureRequest.from_json(payload)
                assert service.lookup(payload).key == cache_key(
                    dataclasses.asdict(request), fingerprint,
                    repro.__version__)


class TestWorkerPool:
    """Real forked workers: one short test per supervision verdict."""

    REQ = MeasureRequest(primitive="omp_atomic", threads=4)

    def test_ok_and_error_verdicts(self):
        with WorkerPool(1) as pool:
            verdict = pool.execute(self.REQ, deadline_s=30.0)
            assert verdict["status"] == "ok"
            assert verdict["result"]["spec_name"]
            bad = MeasureRequest(primitive="omp_atomic", threads=999)
            verdict = pool.execute(bad, deadline_s=30.0)
            assert verdict["status"] == "error"
            assert verdict["error"] == "ConfigurationError"

    def test_crash_is_detected_and_worker_replaced(self):
        plan = ProcessFaultPlan(crash_prob=1.0, seed=1)
        with WorkerPool(1, fault_plan=plan) as pool:
            verdict = pool.execute(self.REQ, deadline_s=30.0)
            assert verdict["status"] == "worker_crash"
            assert pool.restarts == 1
            pool._fault_plan = None  # next dispatch must succeed
            assert pool.execute(self.REQ,
                                deadline_s=30.0)["status"] == "ok"

    def test_hang_is_detected_via_stale_heartbeat(self):
        plan = ProcessFaultPlan(hang_prob=1.0, seed=2)
        with WorkerPool(1, fault_plan=plan,
                        heartbeat_timeout_s=0.2) as pool:
            verdict = pool.execute(self.REQ, deadline_s=30.0)
            assert verdict["status"] == "worker_hang"
            assert pool.restarts == 1

    def test_slow_worker_trips_the_deadline(self):
        plan = ProcessFaultPlan(slow_prob=1.0, slow_seconds=5.0, seed=3)
        with WorkerPool(1, fault_plan=plan) as pool:
            verdict = pool.execute(self.REQ, deadline_s=0.3)
            assert verdict["status"] == "deadline"
            assert pool.restarts == 1


class TestServiceInline:
    """Inline-mode service: orchestration logic without processes."""

    def _config(self, tmp_path, **overrides):
        base = dict(workers=0, cache_dir=tmp_path / "cache",
                    retry=RetryPolicy(max_attempts=2,
                                      base_delay_s=0.001))
        base.update(overrides)
        return ServiceConfig(**base)

    def test_cold_then_warm_hit(self, tmp_path):
        before = _service_counters()
        with MeasurementService(self._config(tmp_path),
                                sleep=lambda _s: None) as service:
            cold = service.submit({"primitive": "omp_atomic"})
            warm = service.submit({"primitive": "omp_atomic"})
        assert (cold["status"], cold["cache"]) == ("served", "miss")
        assert (warm["status"], warm["cache"]) == ("served", "hit")
        assert warm["result"] == cold["result"]
        # A cache answer must be byte-identical to measuring directly.
        assert warm["result"] == execute_request(
            MeasureRequest.from_json({"primitive": "omp_atomic"}))
        assert _reconciles(before)

    def test_invalid_request_fails_with_config_code(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            outcome = service.submit({"primitive": "nope"})
        assert outcome["status"] == "failed"
        assert outcome["error"] == "ConfigurationError"
        assert outcome["exit_code"] == EXIT_CONFIG

    def test_submit_never_raises(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            outcome = service.submit("not even a dict")
        assert outcome["status"] == "failed"

    def test_degrades_to_stale_cache_with_labels(self, tmp_path):
        config = self._config(tmp_path, cache_ttl_s=1e9)
        with MeasurementService(config) as service:
            assert service.submit(
                {"primitive": "omp_barrier"})["status"] == "served"
        broken = self._config(
            tmp_path, cache_ttl_s=0.0,
            fault_plan=ProcessFaultPlan(crash_prob=1.0, seed=4))
        before = _service_counters()
        with MeasurementService(broken,
                                sleep=lambda _s: None) as service:
            outcome = service.submit({"primitive": "omp_barrier"})
        assert outcome["status"] == "degraded"
        assert outcome["cache"] == "stale"
        assert outcome["stale_seconds"] >= 0
        assert outcome["error"] == "WorkerLost"
        assert outcome["result"]["spec_name"] == "omp_barrier"
        assert _reconciles(before)

    def test_failure_without_cache_carries_taxonomy(self, tmp_path):
        config = ServiceConfig(
            workers=0, retry=RetryPolicy(max_attempts=2,
                                         base_delay_s=0.001),
            fault_plan=ProcessFaultPlan(hang_prob=1.0, seed=5))
        with MeasurementService(config,
                                sleep=lambda _s: None) as service:
            outcome = service.submit({"primitive": "omp_atomic"})
        assert outcome["status"] == "failed"
        assert outcome["error"] == "WorkerLost"
        assert outcome["exit_code"] == EXIT_UNAVAILABLE

    def test_breaker_trips_and_recovers(self, tmp_path):
        clock = [0.0]
        config = ServiceConfig(
            workers=0, breaker_failures=2, breaker_reset_s=10.0,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=ProcessFaultPlan(crash_prob=1.0, seed=6))
        service = MeasurementService(config, sleep=lambda _s: None,
                                     clock=lambda: clock[0])
        with service:
            for _ in range(2):
                assert service.submit(
                    {"primitive": "omp_atomic"})["error"] == \
                    "WorkerLost"
            tripped = service.submit({"primitive": "omp_atomic"})
            assert tripped["error"] == "CircuitOpenError"
            assert service.health()["breakers"] == {
                "omp_atomic/s3": "open"}
            # Cooldown elapses; the half-open probe succeeds (faults
            # off) and the breaker closes again.
            object.__setattr__(service.config, "fault_plan", None)
            clock[0] += 11.0
            recovered = service.submit({"primitive": "omp_atomic"})
            assert recovered["status"] == "served"
            assert service.health()["breakers"] == {
                "omp_atomic/s3": "closed"}

    def test_breakers_are_per_stream(self, tmp_path):
        config = ServiceConfig(
            workers=0, breaker_failures=1, breaker_reset_s=1e9,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=ProcessFaultPlan(crash_prob=1.0, seed=7))
        with MeasurementService(config,
                                sleep=lambda _s: None) as service:
            service.submit({"primitive": "omp_atomic"})
            object.__setattr__(service.config, "fault_plan", None)
            other = service.submit({"primitive": "omp_barrier"})
            assert other["status"] == "served"
            same = service.submit({"primitive": "omp_atomic"})
            assert same["error"] == "CircuitOpenError"

    def test_checkpoint_ledger_records_every_request(self, tmp_path):
        config = self._config(
            tmp_path, checkpoint_path=tmp_path / "ledger.json")
        with MeasurementService(config) as service:
            service.submit({"primitive": "omp_atomic"})
            service.submit({"primitive": "bad"})
        ledger = json.loads((tmp_path / "ledger.json").read_text())
        records = ledger["experiments"]
        assert len(records) == 2
        statuses = sorted(r["status"] for r in records.values())
        assert statuses == ["done", "failed"]

    def test_latency_gauges_and_health(self, tmp_path):
        with MeasurementService(self._config(tmp_path)) as service:
            service.submit({"primitive": "omp_atomic"})
            health = service.health()
        assert health["status"] == "ok"
        assert health["latency_p50_ms"] > 0
        assert health["latency_p99_ms"] >= health["latency_p50_ms"]
        gauges = REGISTRY.gauges()
        assert gauges["service.latency_p50_ms"] > 0


class TestLookup:
    """The front half of a submission: one validation, one key, one
    cache read, no side effects; it says whether finishing can block."""

    PAYLOAD = {"primitive": "omp_barrier"}

    def _service(self, tmp_path, **overrides):
        base = dict(workers=0, cache_dir=tmp_path / "cache")
        base.update(overrides)
        return MeasurementService(ServiceConfig(**base))

    def test_blocking_flags(self, tmp_path):
        with self._service(tmp_path) as service:
            miss = service.lookup(self.PAYLOAD)
            assert (miss.hit, miss.blocking, miss.entry) == (
                False, True, None)
            service.submit(miss)
            hit = service.lookup(self.PAYLOAD)
            assert (hit.hit, hit.blocking) == (True, False)
            invalid = service.lookup({"primitive": "nope"})
            assert isinstance(invalid.error, ConfigurationError)
            assert (invalid.key, invalid.blocking) == (None, False)
        with self._service(tmp_path, cache_ttl_s=0.0) as service:
            stale = service.lookup(self.PAYLOAD)
            assert stale.entry is not None
            assert (stale.hit, stale.blocking) == (False, True)
        with self._service(tmp_path, checkpoint_path=tmp_path /
                           "ledger.json") as service:
            assert service.lookup(self.PAYLOAD).blocking
            assert service.lookup({"primitive": "nope"}).blocking

    def test_lookup_has_no_side_effects(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        with self._service(tmp_path, checkpoint_path=ledger) as service:
            before = _service_counters()
            service.lookup(self.PAYLOAD)
            service.lookup({"primitive": "nope"})
            assert _service_counters() == before
            assert service.latency.count == 0
            assert not ledger.exists() or \
                not json.loads(ledger.read_text())["experiments"]

    def test_submitted_record_matches_a_raw_submit(self, tmp_path):
        with self._service(tmp_path) as service:
            service.submit(self.PAYLOAD)
            via_record = service.submit(service.lookup(self.PAYLOAD))
            direct = service.submit(self.PAYLOAD)
        for response in (via_record, direct):
            response.pop("latency_ms")
            response.pop("age_seconds")
        assert via_record == direct

    def test_degraded_answer_reuses_the_one_cache_read(self, tmp_path,
                                                       monkeypatch):
        with self._service(tmp_path) as service:
            service.submit(self.PAYLOAD)
        reads = []
        get = ResultCache.get
        monkeypatch.setattr(ResultCache, "get", lambda self, key: (
            reads.append(key), get(self, key))[1])
        broken = self._service(
            tmp_path, cache_ttl_s=0.0,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            fault_plan=ProcessFaultPlan(crash_prob=1.0, seed=4))
        with broken as service:
            outcome = service.submit(self.PAYLOAD)
        assert (outcome["status"], outcome["cache"]) == (
            "degraded", "stale")
        assert outcome["stale_seconds"] >= 0
        assert len(reads) == 1


class TestCoalescing:
    """Single-flight: concurrent identical misses share one execution."""

    def _slow_service(self, tmp_path, monkeypatch, calls):
        import time as _time
        orig = MeasurementService._measure_miss

        def slow(self, found):
            calls.append(found.key)
            _time.sleep(0.15)  # hold the flight open for the followers
            return orig(self, found)

        monkeypatch.setattr(MeasurementService, "_measure_miss", slow)
        return MeasurementService(
            ServiceConfig(workers=0, cache_dir=tmp_path / "cache"))

    def test_concurrent_identical_requests_share_one_flight(
            self, tmp_path, monkeypatch):
        import threading
        from repro.obs.metrics import counter_value
        calls: list[str] = []
        before = _service_counters()
        coalesced = counter_value("service.coalesced")
        with self._slow_service(tmp_path, monkeypatch, calls) as service:
            results = [None] * 4

            def submit(i):
                results[i] = service.submit(
                    {"primitive": "omp_atomic", "threads": 4})

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(calls) == 1, "followers must not re-measure"
        assert counter_value("service.coalesced") - coalesced == 3
        followers = [r for r in results if r.get("coalesced")]
        assert len(followers) == 3
        leader, = (r for r in results if not r.get("coalesced"))
        for follower in followers:
            assert follower["result"] == leader["result"]
            assert follower["status"] == leader["status"] == "served"
        assert _reconciles(before), \
            "every submission still counts exactly once"

    def test_different_requests_do_not_coalesce(self, tmp_path,
                                                monkeypatch):
        import threading
        calls: list[str] = []
        with self._slow_service(tmp_path, monkeypatch, calls) as service:
            threads = [
                threading.Thread(target=service.submit, args=(
                    {"primitive": "omp_atomic", "threads": n},))
                for n in (2, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(calls) == 2
        assert len(set(calls)) == 2, "distinct digests, distinct flights"

    def test_sequential_requests_never_coalesce(self, tmp_path):
        from repro.obs.metrics import counter_value
        coalesced = counter_value("service.coalesced")
        with MeasurementService(
                ServiceConfig(workers=0,
                              cache_dir=tmp_path / "cache")) as service:
            first = service.submit({"primitive": "omp_atomic"})
            second = service.submit({"primitive": "omp_atomic"})
        assert not first.get("coalesced")
        assert not second.get("coalesced")  # warm hit, not a flight
        assert counter_value("service.coalesced") == coalesced
