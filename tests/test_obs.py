"""The observability core: counters, recorder, and instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import MeasurementError
from repro.compiler.ops import op_barrier
from repro.core.engine import MeasurementEngine
from repro.core.spec import MeasurementSpec
from repro.cuda.interpreter import Cuda
from repro.faults.machine import FaultyMachine
from repro.faults.models import DroppedRun
from repro.faults.scenario import FaultScenario
from repro.gpu.spec import LaunchConfig
from repro.obs import (
    REGISTRY,
    Recorder,
    count,
    counter,
    counter_value,
    event,
    gauge,
    get_recorder,
    recording,
    span,
)
from repro.openmp.interpreter import OpenMP


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    """Every test here must leave the process with no recorder."""
    yield
    assert get_recorder() is None


def barrier_spec() -> MeasurementSpec:
    return MeasurementSpec.single("b", op_barrier())


class TestMetrics:
    def test_counter_is_monotonic_and_named(self):
        c = counter("test.obs.monotonic")
        before = c.value
        c.add(3)
        c.add(2)
        assert c.value == before + 5
        assert counter_value("test.obs.monotonic") == c.value

    def test_counter_identity_per_name(self):
        assert counter("test.obs.same") is counter("test.obs.same")
        assert REGISTRY.counter("test.obs.same") is \
            counter("test.obs.same")

    def test_count_convenience_bumps_registry(self):
        before = counter_value("test.obs.convenience")
        count("test.obs.convenience")
        count("test.obs.convenience", 4)
        assert counter_value("test.obs.convenience") == before + 5

    def test_gauge_holds_last_value(self):
        g = gauge("test.obs.level")
        g.set(1.5)
        g.set(2.5)
        assert g.value == 2.5

    def test_unknown_counter_reads_zero(self):
        assert counter_value("test.obs.never.touched.xyz") == 0


class TestRecorder:
    def test_default_is_off(self):
        assert get_recorder() is None
        with span("no.recorder") as rec:
            assert rec is None
        event("no.recorder.event")  # must be a silent no-op

    def test_span_nesting_records_parent_links(self):
        rec = Recorder()
        with recording(rec):
            with span("outer", kind="test"):
                with span("inner"):
                    pass
        spans = rec.spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["sid"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"kind": "test"}
        assert 0 <= outer["t0"] <= inner["t0"] <= inner["t1"] <= \
            outer["t1"]

    def test_counter_deltas_stream_into_recorder(self):
        rec = Recorder()
        with recording(rec):
            count("test.obs.stream", 2)
            count("test.obs.stream", 3)
        assert rec.counters["test.obs.stream"] == 5
        deltas = [e["delta"] for e in rec.events
                  if e["type"] == "count" and
                  e["name"] == "test.obs.stream"]
        assert deltas == [2, 3]
        count("test.obs.stream")  # uninstalled: registry only
        assert rec.counters["test.obs.stream"] == 5

    def test_recording_restores_previous_recorder(self):
        outer_rec = Recorder()
        with recording(outer_rec):
            with recording(Recorder()):
                pass
            assert get_recorder() is outer_rec

    def test_events_carry_attrs(self):
        rec = Recorder()
        with recording(rec):
            event("retry", attempt=2, reason="timeout")
        record = [e for e in rec.events if e["type"] == "event"][0]
        assert record["name"] == "retry"
        assert record["attrs"] == {"attempt": 2, "reason": "timeout"}


class TestEngineInstrumentation:
    def test_measure_bumps_engine_counters(self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        ctx = quiet_cpu.context(4)
        before = {name: counter_value(name) for name in
                  ("engine.measurements", "engine.path.fast",
                   "engine.path.reference")}
        engine.measure(barrier_spec(), ctx, "obs")
        assert counter_value("engine.measurements") == \
            before["engine.measurements"] + 1
        fast_delta = counter_value("engine.path.fast") - \
            before["engine.path.fast"]
        ref_delta = counter_value("engine.path.reference") - \
            before["engine.path.reference"]
        assert fast_delta + ref_delta == 1

    def test_path_counters_reconcile_with_measurements(self, quiet_cpu):
        ctx = quiet_cpu.context(4)
        base = {name: counter_value(name) for name in
                ("engine.measurements", "engine.path.fast",
                 "engine.path.reference")}
        MeasurementEngine(quiet_cpu, fast=True).measure(
            barrier_spec(), ctx, "f")
        MeasurementEngine(quiet_cpu, fast=False).measure(
            barrier_spec(), ctx, "r")
        assert counter_value("engine.path.fast") - \
            base["engine.path.fast"] == 1
        assert counter_value("engine.path.reference") - \
            base["engine.path.reference"] == 1
        assert counter_value("engine.measurements") - \
            base["engine.measurements"] == 2

    def test_attempt_counters_cover_runs(self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        before = counter_value("engine.attempts")
        engine.measure(barrier_spec(), quiet_cpu.context(4))
        # At least one timed attempt per protocol run.
        assert counter_value("engine.attempts") - before >= \
            engine.protocol.n_runs

    def test_measure_records_span_when_recorder_installed(
            self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        ctx = quiet_cpu.context(4)
        rec = Recorder()
        with recording(rec):
            engine.measure(barrier_spec(), ctx, "spanned")
        spans = rec.spans()
        assert [s["name"] for s in spans] == ["engine.measure"]
        assert spans[0]["attrs"]["spec"] == "b"
        assert spans[0]["attrs"]["label"] == "spanned"

    def test_measure_robust_escalations_on_result_and_counter(
            self, quiet_cpu, monkeypatch):
        real = MeasurementEngine._run_protocol
        calls = {"n": 0}

        def flaky(self, proto, spec, ctx, label):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise MeasurementError("injected flake")
            return real(self, proto, spec, ctx, label)

        monkeypatch.setattr(MeasurementEngine, "_run_protocol", flaky)
        engine = MeasurementEngine(quiet_cpu)
        before = counter_value("engine.escalations")
        rec = Recorder()
        with recording(rec):
            result = engine.measure_robust(barrier_spec(),
                                           quiet_cpu.context(4), "esc")
        assert result.escalations == 2
        assert counter_value("engine.escalations") - before == 2
        retries = [e for e in rec.events if e["type"] == "event" and
                   e["name"] == "engine.measure_robust.retry"]
        assert [r["attrs"]["attempt"] for r in retries] == [1, 2]
        assert all("reason" in r["attrs"] for r in retries)
        # One engine.measure span per attempted round.
        assert [s["name"] for s in rec.spans()] == \
            ["engine.measure"] * 3

    def test_clean_measure_robust_reports_zero_escalations(
            self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        result = engine.measure_robust(barrier_spec(),
                                       quiet_cpu.context(4), "clean")
        assert result.escalations == 0

    def test_fault_activation_counters(self, quiet_cpu):
        scenario = FaultScenario("dead", (DroppedRun(drop_prob=1.0),))
        machine = FaultyMachine(quiet_cpu, scenario)
        engine = MeasurementEngine(machine)
        before = {name: counter_value(name) for name in
                  ("faults.activations", "faults.dropped_attempts",
                   "faults.activations.DroppedRun",
                   "engine.fault_dropped_attempts")}
        with pytest.raises(MeasurementError):
            engine.measure(barrier_spec(), machine.context(4))
        for name in before:
            assert counter_value(name) > before[name], name
        assert counter_value("faults.activations.DroppedRun") - \
            before["faults.activations.DroppedRun"] == \
            counter_value("faults.dropped_attempts") - \
            before["faults.dropped_attempts"]


class TestInterpreterCounters:
    def test_cuda_pass_counters_reconcile(self, mini_gpu):
        # Pins the batched fast path's own counters, so the replay
        # cache starts empty: a replay would skip the pass loop.
        from repro.compiler.dispatcher import DISPATCHER

        def kernel(t):
            yield t.alu(1)
            yield t.syncthreads()
            yield t.alu(1)

        base = {name: counter_value(name) for name in
                ("interp.cuda.uniform_passes",
                 "interp.cuda.fallback_passes", "interp.cuda.passes",
                 "interp.cuda.blocks_fast")}
        DISPATCHER.clear()
        Cuda(mini_gpu).launch(kernel, LaunchConfig(2, 64))
        deltas = {name: counter_value(name) - base[name]
                  for name in base}
        assert deltas["interp.cuda.blocks_fast"] == 2
        assert deltas["interp.cuda.passes"] > 0
        assert deltas["interp.cuda.uniform_passes"] + \
            deltas["interp.cuda.fallback_passes"] == \
            deltas["interp.cuda.passes"]

    def test_cuda_reference_blocks_counted(self, mini_gpu):
        def kernel(t):
            yield t.alu(1)

        before = counter_value("interp.cuda.blocks_reference")
        Cuda(mini_gpu, fast=False).launch(kernel, LaunchConfig(3, 32))
        assert counter_value("interp.cuda.blocks_reference") - \
            before == 3

    def test_omp_round_counters_reconcile(self, quiet_cpu):
        from repro.compiler.dispatcher import DISPATCHER

        def body(tc):
            yield tc.atomic_update("counter", 0, lambda v: v + 1)
            yield tc.barrier()
            yield tc.atomic_update("counter", 0, lambda v: v + 1)

        base = {name: counter_value(name) for name in
                ("interp.omp.uniform_rounds",
                 "interp.omp.fallback_rounds", "interp.omp.rounds",
                 "interp.omp.regions_fast")}
        # An identical region recorded earlier in the process would be
        # replayed without a single fast-path round; these counters are
        # the fast tier's, so start from an empty replay cache.
        DISPATCHER.clear()
        OpenMP(quiet_cpu, n_threads=4, detect_races=False).parallel(
            body, shared={"counter": np.zeros(1, np.int64)})
        deltas = {name: counter_value(name) - base[name]
                  for name in base}
        assert deltas["interp.omp.regions_fast"] == 1
        assert deltas["interp.omp.rounds"] > 0
        assert deltas["interp.omp.uniform_rounds"] + \
            deltas["interp.omp.fallback_rounds"] == \
            deltas["interp.omp.rounds"]

    def test_omp_reference_regions_counted(self, quiet_cpu):
        def body(tc):
            yield tc.barrier()

        before = counter_value("interp.omp.regions_reference")
        OpenMP(quiet_cpu, n_threads=2, fast=False).parallel(body)
        assert counter_value("interp.omp.regions_reference") - \
            before == 1

    def test_launch_and_region_record_spans(self, mini_gpu, quiet_cpu):
        from repro.compiler.dispatcher import DISPATCHER

        def kernel(t):
            yield t.alu(1)

        def body(tc):
            yield tc.barrier()

        rec = Recorder()
        # An empty replay cache: a replay hit records its own
        # dispatch.replay span, pinned in tests/test_dispatcher.py.
        DISPATCHER.clear()
        with recording(rec):
            Cuda(mini_gpu).launch(kernel, LaunchConfig(1, 32))
            OpenMP(quiet_cpu, n_threads=2).parallel(body)
        names = [s["name"] for s in rec.spans()]
        assert names == ["cuda.launch", "omp.parallel"]
        launch_span, region_span = rec.spans()
        assert launch_span["attrs"]["grid_blocks"] == 1
        assert region_span["attrs"]["n_threads"] == 2

    def test_traced_launch_attaches_timeline(self, mini_gpu):
        def kernel(t):
            yield t.alu(1)

        rec = Recorder()
        with recording(rec):
            Cuda(mini_gpu).launch(kernel, LaunchConfig(1, 32),
                                  trace=True)
        assert [t[0] for t in rec.timelines] == ["cuda"]
        source, rows, unit = rec.timelines[0]
        assert unit == "cycles"
        assert rows and len(rows[0]) == 4

    def test_traced_region_attaches_timeline(self, quiet_cpu):
        def body(tc):
            yield tc.barrier()

        rec = Recorder()
        with recording(rec):
            OpenMP(quiet_cpu, n_threads=2).parallel(body, trace=True)
        assert [t[0] for t in rec.timelines] == ["openmp"]
        assert rec.timelines[0][2] == "ns"


class TestRngPoolCounters:
    def test_pool_misses_counted_for_unprimed_points(self):
        from repro.common.rng import RngStreamPool
        pool = RngStreamPool()
        misses = counter_value("rng.pool.misses")
        assert pool.take_point("never-primed/run", 0) is None
        assert counter_value("rng.pool.misses") == misses + 1

    def test_pool_hits_counted_for_primed_points(self):
        from repro.common.rng import RngStreamPool
        pool = RngStreamPool()
        pool.prime_points([("p/run", 0, 2)])
        hits = counter_value("rng.pool.hits")
        tokens = pool.take_point("p/run", 0)
        if tokens is None:  # pool disabled itself on this numpy build
            pytest.skip("rng pool incompatible with this numpy")
        assert counter_value("rng.pool.hits") == hits + 1


class TestCampaignInstrumentation:
    def test_campaign_counters_and_checkpoint_events(self, tmp_path):
        from repro.experiments.campaign import (
            CampaignCheckpoint,
            run_campaign,
        )
        from repro.experiments.registry import ExperimentDef

        registry = {"one": ExperimentDef(
            "one", "Fig. X", "fake one", "meta",
            lambda proto=None: {},
            lambda payload: [], lambda payload: [])}
        manifest = tmp_path / "campaign.json"
        base = {name: counter_value(name) for name in
                ("campaign.experiments_done",
                 "campaign.experiments_skipped",
                 "campaign.checkpoint_writes")}
        rec = Recorder()
        with recording(rec):
            checkpoint = CampaignCheckpoint.open(manifest)
            run_campaign(["one"], experiments=registry,
                         checkpoint=checkpoint, log=lambda line: None)
            # Resume: the completed id must be skipped and recorded.
            resumed = CampaignCheckpoint.open(manifest, resume=True)
            run_campaign(["one"], experiments=registry,
                         checkpoint=resumed, log=lambda line: None)
        assert counter_value("campaign.experiments_done") - \
            base["campaign.experiments_done"] == 1
        assert counter_value("campaign.experiments_skipped") - \
            base["campaign.experiments_skipped"] == 1
        assert counter_value("campaign.checkpoint_writes") - \
            base["campaign.checkpoint_writes"] >= 1
        names = [e["name"] for e in rec.events
                 if e["type"] == "event"]
        assert "campaign.checkpoint_write" in names
        assert "campaign.resume_skip" in names
        assert "campaign.experiment" in \
            [s["name"] for s in rec.spans()]

    def test_failed_experiment_counted(self):
        from repro.experiments.campaign import run_campaign
        from repro.experiments.registry import ExperimentDef

        def boom(proto=None):
            raise MeasurementError("bad experiment")

        registry = {"bad": ExperimentDef(
            "bad", "Fig. X", "fake bad", "meta", boom,
            lambda payload: [], lambda payload: [])}
        before = counter_value("campaign.experiments_failed")
        rec = Recorder()
        with recording(rec):
            run_campaign(["bad"], experiments=registry,
                         keep_going=True, log=lambda line: None)
        assert counter_value("campaign.experiments_failed") - \
            before == 1
        failures = [e for e in rec.events if e["type"] == "event" and
                    e["name"] == "campaign.experiment_failed"]
        assert failures and \
            failures[0]["attrs"]["error"] == "MeasurementError"
