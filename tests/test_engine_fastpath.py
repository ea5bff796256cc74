"""The fast engine setting must be bit-identical to ``fast=False``.

The engine has one protocol kernel with four point routes (see
:mod:`repro.core.engine`).  A ``fast=False`` engine runs every point
through the general loop with scalar draws, which is the authoritative
semantics; the default setting (pooled streams, closed form, compiled
samplers, raw-state hot loop) must reproduce it result-by-result — same
medians, same valid-run counts, same dropped counts — across machines,
seeds, spec shapes, RNG pool backends, budgets and fault injection.  Any
divergence here is a correctness bug, never an acceptable approximation.
"""

import math

import pytest

from repro.common.datatypes import DOUBLE, INT
from repro.common.errors import MeasurementError
from repro.common.rng import RngStreamPool
from repro.compiler.ops import Op, PrimitiveKind, Scope
from repro.core.engine import (
    MeasurementEngine,
    fast_path_default,
    reference_engine,
)
from repro.core.protocol import MeasurementProtocol
from repro.core.spec import MeasurementSpec
from repro.cpu.machine import CpuMachine
from repro.cpu.presets import cpu_preset
from repro.experiments.base import (
    cuda_atomic_scalar_spec,
    cuda_fence_spec,
    omp_atomic_read_spec,
    omp_atomic_update_scalar_spec,
    omp_flush_spec,
)
from repro.faults.machine import FaultyMachine, wrap_machine
from repro.faults.presets import preset_scenario
from repro.faults.scenario import use_faults
from repro.gpu.device import GpuDevice
from repro.gpu.multi import MultiGpu
from repro.gpu.presets import gpu_preset
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import counter_value


def _outcome(engine, spec, ctx, label):
    """A measurement, or the raised error's text (faults can make a
    point legitimately unmeasurable — both paths must agree on that
    too)."""
    try:
        return engine.measure(spec, ctx, label=label)
    except MeasurementError as exc:
        return f"{type(exc).__name__}: {exc}"


def _series(machine, spec, points, *, fast, protocol=None, prime=True):
    """Measure a list of ``(ctx, label)`` points on one engine."""
    engine = MeasurementEngine(machine, protocol, fast=fast)
    if prime and fast:
        engine.prime(spec, [label for _, label in points])
    return [_outcome(engine, spec, ctx, label) for ctx, label in points]


def _assert_equivalent(machine, spec, points, protocol=None, prime=True):
    fast = _series(machine, spec, points, fast=True, protocol=protocol,
                   prime=prime)
    ref = _series(machine, spec, points, fast=False, protocol=protocol)
    assert fast == ref


def _cpu_points(machine, label_prefix=""):
    return [(machine.context(n), f"{label_prefix}t={n}")
            for n in range(2, machine.max_threads + 1, 3)]


def _gpu_points(device, blocks=2):
    return [(device.context(LaunchConfig(blocks, n)), f"b={blocks}/t={n}")
            for n in (1, 32, 256, 1024)]


class TestCpuEquivalence:
    @pytest.mark.parametrize("system", [1, 2, 3])
    def test_atomic_update_sweep(self, system):
        machine = cpu_preset(system)
        _assert_equivalent(machine, omp_atomic_update_scalar_spec(INT),
                           _cpu_points(machine))

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_seeds(self, seed):
        machine = cpu_preset(3)
        protocol = MeasurementProtocol(seed=seed)
        _assert_equivalent(machine, omp_atomic_update_scalar_spec(DOUBLE),
                           _cpu_points(machine), protocol=protocol)

    def test_unprimed_points_fall_back_identically(self):
        machine = cpu_preset(3)
        _assert_equivalent(machine, omp_atomic_update_scalar_spec(INT),
                           _cpu_points(machine), prime=False)

    def test_contrast_and_inserted_shapes(self):
        machine = cpu_preset(2)
        for spec in (omp_atomic_read_spec(INT), omp_flush_spec(INT, 1)):
            _assert_equivalent(machine, spec, _cpu_points(machine))

    def test_attempt_budget_path(self):
        machine = cpu_preset(3)
        protocol = MeasurementProtocol(attempt_budget=20)
        _assert_equivalent(machine, omp_atomic_update_scalar_spec(INT),
                           _cpu_points(machine), protocol=protocol)

    def test_quiet_machine_closed_form(self, quiet_cpu):
        # Zero jitter exercises the fast path's no-sampling shortcut.
        _assert_equivalent(quiet_cpu, omp_atomic_update_scalar_spec(INT),
                           _cpu_points(quiet_cpu))


class TestGpuEquivalence:
    @pytest.mark.parametrize("system", [1, 2, 3])
    def test_atomic_add_sweep(self, system):
        device = gpu_preset(system)
        spec = cuda_atomic_scalar_spec(PrimitiveKind.ATOMIC_ADD, INT)
        _assert_equivalent(device, spec, _gpu_points(device))

    def test_noisy_system_fence(self):
        # __threadfence_system() is the one GPU primitive that draws
        # noise (PCIe round trips), so it exercises real sampling.
        device = gpu_preset(3)
        spec = cuda_fence_spec(Scope.SYSTEM, INT, 1)
        _assert_equivalent(device, spec, _gpu_points(device))

    def test_unrecordable_spec(self):
        device = gpu_preset(3)
        ballot = Op(kind=PrimitiveKind.VOTE_BALLOT, result_used=False)
        spec = MeasurementSpec.single("ballot", ballot)
        fast = _series(device, spec, _gpu_points(device), fast=True)
        ref = _series(device, spec, _gpu_points(device), fast=False)
        # repr comparison: unrecordable results carry NaN fields, and
        # NaN != NaN would fail a plain dataclass equality.
        assert [repr(r) for r in fast] == [repr(r) for r in ref]
        assert all(r.unrecordable for r in fast)


class TestFaultEquivalence:
    @pytest.mark.parametrize("preset", ["calm", "storm", "lossy",
                                        "stress-lab"])
    def test_active_scenario_cpu(self, preset):
        # The engine wraps its machine in a FaultyMachine when a
        # scenario is active; the wrapper routes the fast path back to
        # per-sample scalar draws so mid-pair fault injection fires at
        # the same stream position as the reference.
        machine = cpu_preset(3)
        spec = omp_atomic_update_scalar_spec(INT)
        with use_faults(preset_scenario(preset)):
            _assert_equivalent(machine, spec, _cpu_points(machine))

    def test_explicit_faulty_machine_wrap(self):
        # One wrapper per engine: a FaultyMachine's fault stream is
        # stateful (consumed in call order), so sharing a single
        # wrapper across two engines would compare different stream
        # positions, not different kernels.
        spec = omp_atomic_update_scalar_spec(INT)
        base = cpu_preset(3)
        points = [(base.context(n), f"t={n}") for n in (2, 8, 16)]

        def wrapped():
            machine = wrap_machine(base, preset_scenario("storm"))
            assert isinstance(machine, FaultyMachine)
            return machine

        fast = _series(wrapped(), spec, points, fast=True)
        ref = _series(wrapped(), spec, points, fast=False)
        assert fast == ref

    def test_golden_corpus_verifies_under_active_faults(self):
        # The golden corpus is the end-to-end byte-identity oracle; it
        # must stay clean with the fast path enabled even while a fault
        # scenario is active in the process (verify pins faults off).
        from repro.experiments.golden import default_corpus_dir, \
            verify_golden
        assert fast_path_default()
        with use_faults(preset_scenario("stress-lab")):
            problems = verify_golden(default_corpus_dir())
        assert not problems, "\n".join(problems)


class _FakeClock:
    """``time.monotonic`` stand-in advancing one second per call, so a
    time budget expires after a fixed number of budget polls."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestTimeBudget:
    def _budgeted(self, monkeypatch, machine, spec, points, budget):
        outcomes = []
        for fast in (True, False):
            monkeypatch.setattr("repro.core.engine.time.monotonic",
                                _FakeClock())
            outcomes.append(_series(
                machine, spec, points, fast=fast,
                protocol=MeasurementProtocol(time_budget_s=budget)))
        return outcomes

    @pytest.mark.parametrize("quiet", [False, True])
    def test_partial_budget_agrees(self, monkeypatch, quiet_cpu, quiet):
        # Each point polls the clock once to set its deadline and once
        # per attempt, so 5.5 s admits 5 attempts of the 9 runs, on the
        # sampler route and on the silent one.
        machine = quiet_cpu if quiet else cpu_preset(3)
        spec = omp_atomic_update_scalar_spec(INT)
        points = [(machine.context(n), f"t={n}") for n in (2, 8)]
        fast, ref = self._budgeted(monkeypatch, machine, spec, points, 5.5)
        assert fast == ref
        for result in ref:
            assert result.dropped_runs == 1
            assert result.valid_fraction <= 5 / 9

    def test_budget_without_attempts_raises_alike(self, monkeypatch):
        machine = cpu_preset(3)
        spec = omp_atomic_update_scalar_spec(INT)
        points = [(machine.context(4), "t=4")]
        # The first poll already lies past a half-second deadline.
        fast, ref = self._budgeted(monkeypatch, machine, spec, points,
                                   0.5)
        assert fast == ref
        assert fast[0].startswith("MeasurementError: ")
        assert "time_budget_s=0.5" in fast[0]


class _SpyMachine(CpuMachine):
    """Counts the noise calls the engine makes (no override of
    ``run_noise`` at class level, so compiled samplers stay on offer)."""

    def __init__(self, base: CpuMachine) -> None:
        super().__init__(base.topology, base.params, base.jitter)
        self.calls = {"run_noise": 0, "noise_sampler": 0}
        run_noise = self.run_noise
        noise_sampler = self.noise_sampler

        def counted_run_noise(*args):
            self.calls["run_noise"] += 1
            return run_noise(*args)

        def counted_noise_sampler(*args):
            self.calls["noise_sampler"] += 1
            return noise_sampler(*args)

        self.run_noise = counted_run_noise
        self.noise_sampler = counted_noise_sampler


class TestOracle:
    """Pins what a ``fast=False`` engine is: the general loop with one
    ``make_rng`` per run and two ``run_noise`` calls per attempt."""

    _PATHS = ("engine.path.fast", "engine.path.reference",
              "engine.attempts", "engine.fault_dropped_attempts")

    @pytest.mark.parametrize("quiet", [False, True])
    def test_reference_setting_is_scalar(self, monkeypatch, quiet_cpu,
                                         quiet):
        taken = []
        take_point = RngStreamPool.take_point
        monkeypatch.setattr(
            RngStreamPool, "take_point",
            lambda pool, *args: taken.append(args) or
            take_point(pool, *args))
        machine = _SpyMachine(quiet_cpu if quiet else cpu_preset(3))
        spec = omp_atomic_update_scalar_spec(INT)
        points = _cpu_points(machine)
        before = {name: counter_value(name) for name in self._PATHS}
        ref = _series(machine, spec, points, fast=False)
        moved = {name: counter_value(name) - before[name]
                 for name in self._PATHS}
        assert not taken
        assert machine.calls["noise_sampler"] == 0
        assert moved["engine.path.fast"] == 0
        assert moved["engine.path.reference"] == len(points)
        assert moved["engine.fault_dropped_attempts"] == 0
        assert machine.calls["run_noise"] == 2 * moved["engine.attempts"]
        assert moved["engine.attempts"] >= 9 * len(points)
        # The spy itself is transparent: the fast setting reproduces the
        # oracle, with the closed form on the quiet machine and, on the
        # noisy one, one taken point and one compiled sampler per point.
        assert _series(machine, spec, points, fast=True) == ref
        expected = 0 if quiet else len(points)
        assert len(taken) == expected
        assert machine.calls["noise_sampler"] == expected


class TestBackendsAndRouting:
    def test_dict_setter_fallback_backend(self, monkeypatch):
        # Force the pool off the raw-state (ctypes) backend: tokens
        # become (state, inc) int pairs through the public state
        # property, and results must not change.
        monkeypatch.setattr(RngStreamPool, "_CTYPES_OK", False)
        monkeypatch.setattr(RngStreamPool, "_TOKEN_CACHE", {})
        machine = cpu_preset(3)
        _assert_equivalent(machine, omp_atomic_update_scalar_spec(INT),
                           _cpu_points(machine))

    def test_run_noise_override_routed_through_subclass(self):
        class TweakedMachine(CpuMachine):
            # A subclass with its own noise model must not be silently
            # replaced by the base class's compiled sampler.
            def run_noise(self, rng, ctx, body=(), base_cost=0.0):
                return super().run_noise(rng, ctx, body, base_cost) + 0.5

        base = cpu_preset(3)
        machine = TweakedMachine(base.topology, base.params, base.jitter)
        assert machine.noise_sampler(machine.context(4), ((), ()),
                                     (0.0, 0.0)) is None
        _assert_equivalent(machine, omp_atomic_update_scalar_spec(INT),
                           _cpu_points(machine))

    @pytest.mark.parametrize("multi", [False, True])
    def test_gpu_run_noise_override_routed_through_subclass(self, multi):
        base = MultiGpu if multi else GpuDevice

        class JitteryDevice(base):
            # Draws even for on-device bodies, which the base class's
            # closed form and compiled sampler would both skip.
            def run_noise(self, rng, ctx, body=(), base_cost=0.0):
                return super().run_noise(rng, ctx, body, base_cost) + \
                    float(rng.normal(0.0, 5.0))

        device = gpu_preset(3)
        if multi:
            machine = JitteryDevice(device)
            points = [(machine.context(d, LaunchConfig(2, 32)), f"d={d}")
                      for d in (2, 4)]
        else:
            machine = JitteryDevice(device.spec, device.params,
                                    device.atomics)
            points = _gpu_points(machine)
        assert not machine.noise_free(())
        assert machine.noise_sampler(points[0][0], ((), ()),
                                     (0.0, 0.0)) is None
        _assert_equivalent(
            machine, cuda_atomic_scalar_spec(PrimitiveKind.ATOMIC_ADD, INT),
            points)

    def test_reference_engine_scopes_the_default(self):
        default = fast_path_default()
        with reference_engine():
            assert not fast_path_default()
            assert not MeasurementEngine(cpu_preset(1)).fast
        assert fast_path_default() == default

    def test_pool_self_check_replica(self):
        # The pool refuses the fast seeding path unless its pure-python
        # SeedSequence/PCG64 replica matches the installed numpy.
        pool = RngStreamPool()
        assert pool._self_check()


def test_median_matches_statistics():
    import statistics
    from repro.core.engine import _median
    for values in ([1.0], [3.0, 1.0], [5.0, 2.0, 9.0],
                   [0.1, 0.2, 0.3, 0.4], [2.0, 2.0, 2.0]):
        assert _median(list(values)) == statistics.median(values)
    assert math.isfinite(_median([1e308, -1e308, 0.0]))
