"""The fault-injection subsystem: determinism, DSL, protocol response."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    ConfigurationError,
    FaultInjectionError,
    MeasurementError,
)
from repro.compiler.ops import op_barrier
from repro.core.engine import MeasurementEngine
from repro.core.protocol import MeasurementProtocol
from repro.core.spec import MeasurementSpec
from repro.cpu.presets import cpu_preset
from repro.experiments.base import omp_barrier_spec, sweep_omp
from repro.faults.machine import FaultyMachine, wrap_machine
from repro.faults.models import (
    DroppedRun,
    PreemptionBurst,
    ThermalThrottle,
    TimerQuantize,
    build_model,
)
from repro.faults.presets import PRESETS, preset_scenario, resolve_faults
from repro.faults.scenario import (
    FaultScenario,
    active_scenario,
    parse_scenario,
    use_faults,
)


def barrier_spec() -> MeasurementSpec:
    return MeasurementSpec.single("b", op_barrier())


class TestDeterminism:
    def test_same_seed_same_sweep_csv(self):
        """The acceptance criterion: two fault-injected campaigns with
        the same (seed, scenario) are byte-identical."""
        scenario = preset_scenario("storm")
        csvs = []
        for _ in range(2):
            machine = FaultyMachine(cpu_preset(3), scenario)
            sweep = sweep_omp(machine, {"barrier": omp_barrier_spec()},
                              name="det", thread_counts=[2, 4, 8])
            csvs.append(sweep.to_csv())
        assert csvs[0] == csvs[1]

    def test_different_seed_different_results(self):
        results = []
        for seed in (0, 1):
            scenario = preset_scenario("storm").with_seed(seed)
            machine = FaultyMachine(cpu_preset(3), scenario)
            engine = MeasurementEngine(machine)
            results.append(engine.measure(
                barrier_spec(), machine.context(8), label="t=8"))
        assert results[0].test_median != results[1].test_median

    def test_faults_do_not_reshuffle_clean_jitter(self):
        """Intensity 0 reproduces the clean measurement exactly: the
        fault stream is separate from the machine's jitter streams."""
        machine = cpu_preset(3)
        clean = MeasurementEngine(machine).measure(
            barrier_spec(), machine.context(8), label="t=8")
        zero = FaultyMachine(machine, preset_scenario("storm").scaled(0))
        faded = MeasurementEngine(zero).measure(
            barrier_spec(), zero.context(8), label="t=8")
        assert clean == faded


class TestScenarioDsl:
    def test_parse_composition(self):
        scenario = parse_scenario(
            "preempt(prob=0.05,length=2)+drop(drop_prob=0.1)")
        assert len(scenario.faults) == 2
        assert isinstance(scenario.faults[0], PreemptionBurst)
        assert scenario.faults[0].prob == 0.05
        assert scenario.faults[0].length == 2
        assert isinstance(scenario.faults[1], DroppedRun)

    def test_parse_bare_model(self):
        scenario = parse_scenario("quantize")
        assert isinstance(scenario.faults[0], TimerQuantize)

    @pytest.mark.parametrize("bad", [
        "", "bogus", "preempt(nope=1)", "preempt(prob)",
        "preempt(prob=x)", "pre empt",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ConfigurationError):
            parse_scenario(bad)

    def test_build_model_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault"):
            build_model("wormhole")

    def test_preset_lookup_and_catalogue(self):
        assert preset_scenario("storm").name == "storm"
        with pytest.raises(ConfigurationError, match="calm"):
            preset_scenario("nope")
        for name, scenario in PRESETS.items():
            assert scenario.name == name

    def test_resolve_intensity_suffix(self):
        scenario = resolve_faults("storm@0.5", seed=3)
        assert scenario.name == "storm@0.5"
        assert scenario.seed == 3
        base = preset_scenario("storm")
        assert scenario.faults[0].prob == base.faults[0].prob * 0.5

    def test_resolve_falls_back_to_dsl(self):
        scenario = resolve_faults("drop(drop_prob=0.2)", seed=0)
        assert isinstance(scenario.faults[0], DroppedRun)


class TestScaling:
    def test_intensity_zero_is_noop(self):
        scenario = preset_scenario("noisy-amd").scaled(0)
        assert scenario.faults == ()
        assert scenario.jitter_storm == 1.0

    def test_probabilities_capped_below_one(self):
        model = DroppedRun(drop_prob=0.5).scaled(10)
        assert model.drop_prob < 1.0

    def test_thermal_scales_excess_only(self):
        model = ThermalThrottle(peak=1.4).scaled(0.5)
        assert model.peak == pytest.approx(1.2)
        assert model.onset == ThermalThrottle().onset

    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            preset_scenario("storm").scaled(-1)


class TestActiveScenario:
    def test_engine_wraps_under_use_faults(self, quiet_cpu):
        scenario = FaultScenario("t", (TimerQuantize(8.0),))
        with use_faults(scenario):
            engine = MeasurementEngine(quiet_cpu)
            assert isinstance(engine.machine, FaultyMachine)
        assert active_scenario() is None
        assert not isinstance(MeasurementEngine(quiet_cpu).machine,
                              FaultyMachine)

    def test_wrap_is_idempotent(self, quiet_cpu):
        scenario = FaultScenario("t", (TimerQuantize(8.0),))
        wrapped = FaultyMachine(quiet_cpu, scenario)
        assert wrap_machine(wrapped, scenario) is wrapped
        assert wrap_machine(quiet_cpu, None) is quiet_cpu

    def test_name_passthrough_keeps_jitter_streams(self, quiet_cpu):
        scenario = FaultScenario("t", ())
        assert FaultyMachine(quiet_cpu, scenario).name == quiet_cpu.name


class TestSharedContextUnderFaults:
    @pytest.mark.parametrize("preset", ["calm", "noisy-amd"])
    def test_faulted_requests_leave_the_context_memo_bounded(self,
                                                             preset):
        """Every engine wraps the shared preset machine anew (and, under
        a jitter storm, rebuilds it with stormed jitter).  Neither may
        add per-request entries to the preset's shared context, and a
        faulted engine must not be served the clean machine's plan."""
        from repro.core.engine import reference_engine
        from repro.service.catalog import MeasureRequest, execute_request
        request = MeasureRequest(primitive="omp_atomic", system=3,
                                 threads=8)
        ctx = cpu_preset(3).context(8)
        execute_request(request)  # the clean plan, with its sampler
        with use_faults(PRESETS[preset]):
            with reference_engine():
                want = execute_request(request)
            first = execute_request(request)
            size = len(ctx._cost_cache)
            for _ in range(20):
                assert execute_request(request) == want
        assert first == want
        assert len(ctx._cost_cache) == size


class TestProtocolUnderFaults:
    def test_quantize_floors_measurements(self, quiet_cpu):
        scenario = FaultScenario("q", (TimerQuantize(1000.0),))
        machine = FaultyMachine(quiet_cpu, scenario)
        engine = MeasurementEngine(machine)
        result = engine.measure(barrier_spec(), machine.context(4))
        assert result.baseline_median % 1000.0 == 0.0
        assert result.test_median % 1000.0 == 0.0

    def test_all_drops_raise_measurement_error(self, quiet_cpu):
        scenario = FaultScenario("dead", (DroppedRun(drop_prob=1.0),))
        machine = FaultyMachine(quiet_cpu, scenario)
        engine = MeasurementEngine(machine)
        with pytest.raises(MeasurementError, match="every run was dropped"):
            engine.measure(barrier_spec(), machine.context(4))

    def test_dropped_runs_counted(self, quiet_cpu):
        scenario = FaultScenario("flaky", (DroppedRun(drop_prob=0.55),),
                                 seed=1)
        machine = FaultyMachine(quiet_cpu, scenario)
        engine = MeasurementEngine(machine)
        result = engine.measure(barrier_spec(), machine.context(4))
        assert result.dropped_runs > 0
        assert result.valid_fraction < 1.0

    def test_attempt_budget_stops_early(self, quiet_cpu):
        scenario = FaultScenario("dead", (DroppedRun(drop_prob=1.0),))
        machine = FaultyMachine(quiet_cpu, scenario)
        engine = MeasurementEngine(
            machine, MeasurementProtocol(attempt_budget=3))
        with pytest.raises(MeasurementError, match="attempt_budget=3"):
            engine.measure(barrier_spec(), machine.context(4))

    def test_fault_injection_error_is_raised_by_model(self):
        import numpy as np
        rng = np.random.default_rng(0)
        with pytest.raises(FaultInjectionError):
            for _ in range(50):
                DroppedRun(drop_prob=0.5).apply(1.0, 1.0, rng, {})


class TestEscalation:
    def test_measure_robust_matches_measure_on_clean_machine(
            self, quiet_cpu):
        engine = MeasurementEngine(quiet_cpu)
        ctx = quiet_cpu.context(4)
        assert engine.measure_robust(barrier_spec(), ctx, "x") == \
            engine.measure(barrier_spec(), ctx, "x")

    def test_escalation_exhaustion_raises(self, quiet_cpu):
        scenario = FaultScenario("dead", (DroppedRun(drop_prob=1.0),))
        machine = FaultyMachine(quiet_cpu, scenario)
        engine = MeasurementEngine(
            machine, MeasurementProtocol(max_escalations=2))
        with pytest.raises(MeasurementError, match="3 round"):
            engine.measure_robust(barrier_spec(), machine.context(4))

    def test_sweep_records_point_failure_instead_of_aborting(
            self, quiet_cpu):
        scenario = FaultScenario("dead", (DroppedRun(drop_prob=1.0),))
        machine = FaultyMachine(quiet_cpu, scenario)
        sweep = sweep_omp(machine, {"barrier": omp_barrier_spec()},
                          name="doomed", thread_counts=[2, 4])
        assert sweep.series[0].points == []
        assert len(sweep.failures) == 2
        assert sweep.failures[0].error == "MeasurementError"
        assert "# failure:" in sweep.to_csv()


class TestFaultToleranceExperiment:
    def test_valid_fraction_degrades_monotonically(self):
        from repro.experiments.ext_fault_tolerance import (
            INTENSITIES,
            claims_fault_tolerance,
            run_fault_tolerance,
        )
        sweep = run_fault_tolerance(None)
        series = sweep.series_by_label("barrier")
        fractions = {p.x: p.result.valid_fraction for p in series.points}
        assert fractions.get(0.0) == 1.0
        assert fractions.get(INTENSITIES[-1], 0.0) < 1.0
        for check in claims_fault_tolerance(sweep):
            assert check.passed, str(check)
