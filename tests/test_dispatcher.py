"""The JIT-style dispatch layer: cache accounting, invalidation,
isolation, tier byte-identity, and the bench ``--compare`` diff.

The differential-fuzz harness (``test_differential_fuzz.py``) pins
byte-identity over random programs; this suite pins the dispatcher's
*mechanics* — which launches are keyed, when the cache hits, what
invalidates it, and how every degradation path falls back.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import nullcontext

import numpy as np
import pytest

import repro.compiler.dispatcher as dmod
from repro.bench import compare_payloads
from repro.common.errors import DataRaceError, SimulationError
from repro.compiler.dispatcher import (
    DISPATCHER, Dispatcher, dispatch_disabled, dispatch_forced,
    machine_fingerprint,
)
from repro.compiler.lift import kernel_purity
from repro.cuda.interpreter import Cuda, KernelThread
from repro.gpu.costs import GpuCostParams
from repro.gpu.device import GpuDevice
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import counter_value
from repro.openmp.interpreter import OpenMP


def _counters(*names: str) -> dict[str, int]:
    return {name: counter_value(name) for name in names}


def _deltas(before: dict[str, int]) -> dict[str, int]:
    return {name: counter_value(name) - value
            for name, value in before.items()}


DISPATCH = ("dispatch.hit", "dispatch.miss", "dispatch.compile",
            "dispatch.fallback", "dispatch.lifted_blocks")


# A steady kernel the dispatcher can both lift and replay.
def steady_kernel(t):
    tid = t.global_id
    acc = 0
    for i in range(3):
        value = yield t.global_read("a", tid)
        yield t.alu(2)
        acc = acc + value * (i + 1)
    yield t.global_write("b", tid, acc)
    yield t.syncthreads()
    total = yield t.global_read("b", tid)
    yield t.atomic_add("c", 0, total)


# Data-dependent control flow: unliftable, but replayable.
def divergent_kernel(t):
    value = yield t.global_read("a", t.global_id)
    if value % 2 == 0:
        yield t.alu(3)
        yield t.global_write("b", t.global_id, value * 2)
    else:
        yield t.global_write("b", t.global_id, value + 1)


_MODULE_SCALE = 3
_MODULE_TABLE = [3]


def _module_helper(x):
    return x * _MODULE_SCALE


# Really impure: a mutable module list, and a call into module code.
def list_kernel(t):
    yield t.global_write("b", t.global_id, _MODULE_TABLE[0])


def helper_kernel(t):
    yield t.global_write("b", t.global_id, _module_helper(t.global_id))


# Pure: an annotated context parameter and an immutable module constant.
def annotated_kernel(t: KernelThread):
    value = yield t.global_read("a", t.global_id)
    yield t.global_write("b", t.global_id, value * _MODULE_SCALE)


LC = LaunchConfig(2, 64)
N = 2 * 64


def _memory(seed: int = 0) -> dict[str, np.ndarray]:
    return {"a": (np.arange(N, dtype=np.int64) * 13 + seed) % 101,
            "b": np.zeros(N, dtype=np.int64),
            "c": np.zeros(1, dtype=np.int64)}


def _snapshot(memory) -> dict[str, bytes]:
    return {name: arr.tobytes() for name, arr in memory.items()}


# --------------------------------------------------------------------- #
# Machine fingerprints
# --------------------------------------------------------------------- #


class TestMachineFingerprint:
    def test_stable_across_calls(self, mini_gpu):
        assert machine_fingerprint(mini_gpu) == \
            machine_fingerprint(mini_gpu)

    def test_changes_with_cost_params(self, mini_gpu):
        other = GpuDevice(mini_gpu.spec, dataclasses.replace(
            GpuCostParams(), sync_base_cycles=999))
        assert machine_fingerprint(mini_gpu) != \
            machine_fingerprint(other)

    def test_in_place_mutation_detected(self, mini_gpu):
        device = GpuDevice(mini_gpu.spec, GpuCostParams())
        before = machine_fingerprint(device)
        object.__setattr__(device.params, "sync_base_cycles",
                           device.params.sync_base_cycles + 7)
        assert machine_fingerprint(device) != before

    def test_faulty_machine_not_fingerprintable(self, quiet_cpu):
        from repro.faults.models import DroppedRun
        from repro.faults.scenario import FaultScenario
        from repro.faults.machine import FaultyMachine
        wrapped = FaultyMachine(
            quiet_cpu, FaultScenario("f", (DroppedRun(drop_prob=0.5),)))
        assert machine_fingerprint(wrapped) is None


# --------------------------------------------------------------------- #
# CUDA: replay + lifted tiers
# --------------------------------------------------------------------- #


class TestCudaDispatch:
    def test_miss_then_hit_accounting(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(1))  # first sighting
        before = _counters(*DISPATCH)
        first = _memory()
        cuda.launch(steady_kernel, LC, first)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1
        assert d["dispatch.hit"] == 0
        assert d["dispatch.compile"] == 1
        assert d["dispatch.lifted_blocks"] == LC.grid_blocks

        before = _counters(*DISPATCH)
        second = _memory()
        cuda.launch(steady_kernel, LC, second)
        d = _deltas(before)
        assert d["dispatch.hit"] == 1
        assert d["dispatch.miss"] == 0
        assert d["dispatch.compile"] == 0
        assert _snapshot(first) == _snapshot(second)

    def test_replay_matches_reference(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory())  # record
        warm_mem = _memory()
        warm = cuda.launch(steady_kernel, LC, warm_mem)
        ref_mem = _memory()
        ref = Cuda(mini_gpu, fast=False).launch(steady_kernel, LC,
                                                ref_mem)
        assert _snapshot(warm_mem) == _snapshot(ref_mem)
        assert warm.elapsed_cycles == ref.elapsed_cycles
        assert warm.block_cycles == ref.block_cycles
        assert warm.stats == ref.stats

    def test_lifted_plans_reused_on_fresh_data(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(2))  # first sighting
        cuda.launch(steady_kernel, LC, _memory(0))  # capture
        before = _counters(*DISPATCH)
        fast_mem = _memory(1)  # new content: replay must miss
        fast = cuda.launch(steady_kernel, LC, fast_mem)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1
        assert d["dispatch.compile"] == 0, "plans must be reused"
        assert d["dispatch.lifted_blocks"] == LC.grid_blocks
        ref_mem = _memory(1)
        ref = Cuda(mini_gpu, fast=False).launch(steady_kernel, LC,
                                                ref_mem)
        assert _snapshot(fast_mem) == _snapshot(ref_mem)
        assert fast.elapsed_cycles == ref.elapsed_cycles
        assert fast.block_cycles == ref.block_cycles
        assert fast.stats == ref.stats

    def test_tiers_record_spans(self, mini_gpu):
        from repro.obs import Recorder, recording
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        rec = Recorder()
        with recording(rec):
            cuda.launch(steady_kernel, LC, _memory(0))  # first sighting
            cuda.launch(steady_kernel, LC, _memory(0))  # replay hit
            cuda.launch(steady_kernel, LC, _memory(1))  # capture + plans
        names = [s["name"] for s in rec.spans()]
        assert "dispatch.capture" in names
        assert "dispatch.replay" in names
        assert "dispatch.lifted" in names
        lifted = next(s for s in rec.spans()
                      if s["name"] == "dispatch.lifted")
        assert lifted["attrs"]["kind"] == "cuda"

    def test_divergent_kernel_falls_back_but_replays(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(divergent_kernel, LC, _memory(1))  # first sighting
        before = _counters(*DISPATCH)
        cuda.launch(divergent_kernel, LC, _memory())
        d = _deltas(before)
        assert d["dispatch.miss"] == 1
        assert d["dispatch.lifted_blocks"] == 0
        assert d["dispatch.fallback"] == 1  # capture aborted

        before = _counters(*DISPATCH)
        replayed = _memory()
        cuda.launch(divergent_kernel, LC, replayed)
        assert _deltas(before)["dispatch.hit"] == 1
        ref = _memory()
        Cuda(mini_gpu, fast=False).launch(divergent_kernel, LC, ref)
        assert _snapshot(replayed) == _snapshot(ref)

    def test_impure_kernel_not_keyed(self, mini_gpu):
        for kernel, culprit in ((list_kernel, "list"),
                                (helper_kernel, "function")):
            DISPATCHER.clear()
            with pytest.raises(dmod._Unsignable, match=culprit):
                dmod.function_signature(kernel, False)
            cuda = Cuda(mini_gpu)
            before = _counters(*DISPATCH)
            cuda.launch(kernel, LC, _memory())
            cuda.launch(kernel, LC, _memory())
            d = _deltas(before)
            assert d["dispatch.fallback"] == 2, kernel.__name__
            assert d["dispatch.hit"] == d["dispatch.miss"] == 0
        # Annotations are never evaluated by the generator; an
        # immutable module constant is keyed by value.
        ok, reason = kernel_purity(annotated_kernel)
        assert ok, reason

    def test_budget_exhaustion_identical_to_reference(self, mini_gpu):
        DISPATCHER.clear()
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())  # record
        before = _counters("dispatch.hit")
        fast_mem = _memory()
        with pytest.raises(SimulationError) as fast_exc:
            Cuda(mini_gpu, max_steps=10).launch(steady_kernel, LC,
                                                fast_mem)
        assert _deltas(before)["dispatch.hit"] == 0, \
            "a replay must never mask a budget blowout"
        assert "step budget" in str(fast_exc.value)
        with pytest.raises(SimulationError, match="step budget"):
            Cuda(mini_gpu, max_steps=10, fast=False).launch(
                steady_kernel, LC, _memory())


# --------------------------------------------------------------------- #
# Isolation + invalidation
# --------------------------------------------------------------------- #


def scale2_kernel(t):
    value = yield t.global_read("a", t.global_id)
    yield t.global_write("b", t.global_id, value * 2)


def scale3_kernel(t):
    value = yield t.global_read("a", t.global_id)
    yield t.global_write("b", t.global_id, value * 3)


class TestIsolation:
    def test_cross_kernel_isolation(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        m2 = _memory()
        cuda.launch(scale2_kernel, LC, m2)
        cuda.launch(scale2_kernel, LC, _memory())  # warm the cache
        m3 = _memory()
        cuda.launch(scale3_kernel, LC, m3)
        assert np.array_equal(m3["b"], m2["b"] // 2 * 3)

    def test_machine_param_change_invalidates(self, mini_gpu):
        DISPATCHER.clear()
        slow = GpuDevice(mini_gpu.spec, dataclasses.replace(
            GpuCostParams(), sync_base_cycles=5000))
        base_mem = _memory()
        base = Cuda(mini_gpu).launch(steady_kernel, LC, base_mem)
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())  # warm
        slow_mem = _memory()
        slow_result = Cuda(slow).launch(steady_kernel, LC, slow_mem)
        # Same bytes (costs don't change semantics), different time —
        # a stale replay would have returned the old elapsed cycles.
        assert _snapshot(slow_mem) == _snapshot(base_mem)
        assert slow_result.elapsed_cycles > base.elapsed_cycles
        ref = Cuda(slow, fast=False).launch(steady_kernel, LC,
                                            _memory())
        assert slow_result.elapsed_cycles == ref.elapsed_cycles

    def test_memory_content_part_of_key(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(scale2_kernel, LC, _memory(0))
        before = _counters("dispatch.hit", "dispatch.miss")
        changed = _memory(5)
        cuda.launch(scale2_kernel, LC, changed)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1 and d["dispatch.hit"] == 0
        assert np.array_equal(changed["b"], changed["a"] * 2)


# --------------------------------------------------------------------- #
# Modes, eviction, OpenMP
# --------------------------------------------------------------------- #


class TestModes:
    def test_dispatch_disabled_context(self, mini_gpu):
        DISPATCHER.clear()
        before = _counters(*DISPATCH)
        with dispatch_disabled():
            Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        assert all(v == 0 for v in _deltas(before).values())

    def test_env_off(self, mini_gpu, monkeypatch):
        monkeypatch.setenv("SYNCPERF_DISPATCH", "off")
        before = _counters(*DISPATCH)
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        assert all(v == 0 for v in _deltas(before).values())

    def test_forced_keys_impure_kernels(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        with dispatch_forced():
            forced = _memory()
            cuda.launch(list_kernel, LC, forced)
            before = _counters("dispatch.hit")
            warm = _memory()
            cuda.launch(list_kernel, LC, warm)
            assert _deltas(before)["dispatch.hit"] == 1
        ref = _memory()
        Cuda(mini_gpu, fast=False).launch(list_kernel, LC, ref)
        assert _snapshot(warm) == _snapshot(ref)


class TestEviction:
    def test_lru_eviction_bounds_the_cache(self, mini_gpu, monkeypatch):
        small = Dispatcher(max_entries=2)
        monkeypatch.setattr(dmod, "DISPATCHER", small)
        cuda = Cuda(mini_gpu)
        before = _counters("dispatch.evictions")
        for seed in range(4):
            cuda.launch(scale2_kernel, LC, _memory(seed))
        assert small.stats()["entries"] <= 2
        assert _deltas(before)["dispatch.evictions"] >= 2

    def test_clear_empties_everything(self, mini_gpu):
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        DISPATCHER.clear()
        stats = DISPATCHER.stats()
        assert stats["entries"] == 0 and stats["plans"] == 0 \
            and stats["bytes"] == 0


def omp_body(tc):
    yield tc.atomic_update("hist", tc.tid % 2, lambda v: v + 1)
    yield tc.barrier()
    value = yield tc.atomic_read("hist", 0)
    yield tc.atomic_write("out", tc.tid, value + tc.tid)


class TestOmpReplay:
    def _shared(self):
        return {"hist": np.zeros(2, dtype=np.int64),
                "out": np.zeros(4, dtype=np.int64)}

    def test_miss_then_hit_byte_identical(self, quiet_cpu):
        DISPATCHER.clear()
        omp = OpenMP(quiet_cpu, n_threads=4, detect_races=False)
        before = _counters("dispatch.hit", "dispatch.miss")
        first = self._shared()
        cold = omp.parallel(omp_body, first)
        warm_shared = self._shared()
        warm = omp.parallel(omp_body, warm_shared)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1 and d["dispatch.hit"] == 1
        ref_shared = self._shared()
        ref = OpenMP(quiet_cpu, n_threads=4, detect_races=False,
                     fast=False).parallel(omp_body, ref_shared)
        assert _snapshot(warm_shared) == _snapshot(ref_shared)
        assert warm.elapsed_ns == cold.elapsed_ns == ref.elapsed_ns
        assert warm.thread_times_ns == ref.thread_times_ns
        assert warm.barriers == ref.barriers
        assert warm.requests == ref.requests

    def test_smaller_step_budget_refuses_replay(self, quiet_cpu):
        DISPATCHER.clear()
        OpenMP(quiet_cpu, n_threads=4,
               detect_races=False).parallel(omp_body, self._shared())
        before = _counters("dispatch.hit", "dispatch.miss")
        tight = OpenMP(quiet_cpu, n_threads=4, detect_races=False,
                       max_steps=1_000)
        tight.parallel(omp_body, self._shared())
        d = _deltas(before)
        assert d["dispatch.miss"] == 1 and d["dispatch.hit"] == 0

    def test_thread_count_part_of_key(self, quiet_cpu):
        DISPATCHER.clear()
        OpenMP(quiet_cpu, n_threads=4,
               detect_races=False).parallel(omp_body, self._shared())
        before = _counters("dispatch.hit", "dispatch.miss")
        two = {"hist": np.zeros(2, dtype=np.int64),
               "out": np.zeros(2, dtype=np.int64)}
        OpenMP(quiet_cpu, n_threads=2,
               detect_races=False).parallel(omp_body, two)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1 and d["dispatch.hit"] == 0


def racy_body(tc):
    # Every thread plain-writes out[0]: a race the detector must see.
    yield tc.write("out", 0, tc.tid + 1)
    yield tc.barrier()
    yield tc.atomic_write("out", tc.tid, tc.tid)


class TestOmpRaceDetectingReplay:
    """Race-detecting regions share the replay tier, and the key keeps
    detecting and non-detecting entries apart."""

    _shared = TestOmpReplay._shared

    def test_race_free_detecting_region_replays(self, quiet_cpu):
        DISPATCHER.clear()
        omp = OpenMP(quiet_cpu, n_threads=4)
        assert omp.detect_races and omp.fast
        omp.parallel(omp_body, self._shared())
        before = _counters("dispatch.hit")
        warm_shared = self._shared()
        warm = omp.parallel(omp_body, warm_shared)
        assert _deltas(before)["dispatch.hit"] == 1
        ref_shared = self._shared()
        ref = OpenMP(quiet_cpu, n_threads=4,
                     fast=False).parallel(omp_body, ref_shared)
        assert _snapshot(warm_shared) == _snapshot(ref_shared)
        assert warm.races == ref.races == []
        assert warm.elapsed_ns == ref.elapsed_ns
        assert warm.thread_times_ns == ref.thread_times_ns
        assert warm.barriers == ref.barriers
        assert warm.requests == ref.requests

    def test_undetected_entry_never_serves_a_detecting_region(
            self, quiet_cpu):
        DISPATCHER.clear()
        with dispatch_forced():
            OpenMP(quiet_cpu, n_threads=4, detect_races=False).parallel(
                racy_body, self._shared())
            # Identical input, so only the key's detect_races bit keeps
            # the recorded (race-blind) outcome from being replayed.
            with pytest.raises(DataRaceError, match=r"out\[0\]"):
                OpenMP(quiet_cpu, n_threads=4).parallel(
                    racy_body, self._shared())

    def test_racy_collect_region_never_recorded(self, quiet_cpu):
        DISPATCHER.clear()
        collect = OpenMP(quiet_cpu, n_threads=4, collect_races=True)
        ref = OpenMP(quiet_cpu, n_threads=4, collect_races=True,
                     fast=False).parallel(racy_body, self._shared())
        assert ref.races
        with dispatch_forced():
            OpenMP(quiet_cpu, n_threads=4, detect_races=False).parallel(
                racy_body, self._shared())
            before = _counters("dispatch.hit")
            first = collect.parallel(racy_body, self._shared())
            rerun = collect.parallel(racy_body, self._shared())
        assert _deltas(before)["dispatch.hit"] == 0
        assert first.races == rerun.races == ref.races


# --------------------------------------------------------------------- #
# Module globals are part of every key
# --------------------------------------------------------------------- #


_FLIP = 1


def flip_kernel(t):
    value = yield t.global_read("a", t.global_id)
    yield t.alu(1)
    yield t.global_write("b", t.global_id, value * _FLIP)


def flip_body(tc):
    yield tc.atomic_update("hist", tc.tid % 2, lambda v: v + _FLIP)
    yield tc.barrier()
    value = yield tc.atomic_read("hist", 0)
    yield tc.atomic_write("out", tc.tid, value * _FLIP)


def _flip_shared(seed: int = 0) -> dict[str, np.ndarray]:
    return {"hist": np.full(2, seed, dtype=np.int64),
            "out": np.zeros(4, dtype=np.int64)}


@pytest.mark.parametrize("mode", [nullcontext, dispatch_forced],
                         ids=["on", "force"])
class TestModuleGlobals:
    """A module global flipped between two launches with identical
    contents: every tier must serve the flipped value, exactly as the
    undispatched runtime does.  Before the flip each runtime sees a
    first sighting, a capture, and a tier-0 replay."""

    def test_cuda_flip_matches_reference(self, mini_gpu, monkeypatch,
                                         mode):
        module = sys.modules[__name__]
        monkeypatch.setattr(module, "_FLIP", 1)
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        with mode():
            for seed in (1, 0, 0):
                cuda.launch(flip_kernel, LC, _memory(seed))
            monkeypatch.setattr(module, "_FLIP", 5)
            before = _counters("dispatch.hit")
            results = []
            # New key and shape @ 5: sighting, replay, capture, plans.
            for seed in (0, 0, 2, 3):
                memory = _memory(seed)
                results.append((seed, memory,
                                 cuda.launch(flip_kernel, LC, memory)))
            hits = _deltas(before)["dispatch.hit"]
        for seed, memory, result in results:
            ref_mem = _memory(seed)
            with dispatch_disabled():
                ref = Cuda(mini_gpu).launch(flip_kernel, LC, ref_mem)
            assert np.array_equal(memory["b"], memory["a"] * 5)
            assert _snapshot(memory) == _snapshot(ref_mem)
            assert result.elapsed_cycles == ref.elapsed_cycles
            assert result.block_cycles == ref.block_cycles
            assert result.stats == ref.stats
        assert hits == 1, "the flipped kernel must be keyed, and keyed anew"

    def test_omp_flip_matches_reference(self, quiet_cpu, monkeypatch,
                                        mode):
        module = sys.modules[__name__]
        monkeypatch.setattr(module, "_FLIP", 1)
        DISPATCHER.clear()
        omp = OpenMP(quiet_cpu, n_threads=4, detect_races=False)
        with mode():
            for seed in (1, 0, 0):
                omp.parallel(flip_body, _flip_shared(seed))
            monkeypatch.setattr(module, "_FLIP", 5)
            before = _counters("dispatch.hit")
            results = []
            for seed in (0, 0, 2, 3):
                shared = _flip_shared(seed)
                results.append((seed, shared,
                                omp.parallel(flip_body, shared)))
            hits = _deltas(before)["dispatch.hit"]
        for seed, shared, result in results:
            ref_shared = _flip_shared(seed)
            with dispatch_disabled():
                ref = omp.parallel(flip_body, ref_shared)
            assert _snapshot(shared) == _snapshot(ref_shared)
            assert result.elapsed_ns == ref.elapsed_ns
            assert result.thread_times_ns == ref.thread_times_ns
            assert result.barriers == ref.barriers
            assert result.requests == ref.requests
        assert hits == 1, "the flipped body must be keyed, and keyed anew"


# --------------------------------------------------------------------- #
# bench --compare
# --------------------------------------------------------------------- #


def _payload(rows):
    return {"benchmarks": [{"id": i, "speedup": s} for i, s in rows]}


class TestBenchCompare:
    def test_regression_detected(self):
        old = _payload([("a", 10.0), ("b", 2.0)])
        new = _payload([("a", 10.1), ("b", 1.0)])
        regressions = compare_payloads(new, old, tolerance=0.2)
        assert [r["id"] for r in regressions] == ["b"]
        assert regressions[0]["old_speedup"] == 2.0
        assert regressions[0]["new_speedup"] == 1.0

    def test_tolerance_allows_small_drops(self):
        old = _payload([("a", 10.0)])
        new = _payload([("a", 8.5)])
        assert compare_payloads(new, old, tolerance=0.2) == []
        assert compare_payloads(new, old, tolerance=0.1) != []

    def test_new_and_removed_rows_never_fail(self):
        old = _payload([("gone", 5.0)])
        new = _payload([("fresh", 0.1)])
        assert compare_payloads(new, old, tolerance=0.2) == []


# --------------------------------------------------------------------- #
# Shape-keyed lifted tier (tier 1)
# --------------------------------------------------------------------- #


_PLAN_SCALE = 2


def scaled_kernel(t):
    yield t.global_write("b", t.global_id, _PLAN_SCALE * 7)


class TestShapeKeys:
    def test_fresh_content_is_a_shape_hit(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(2))  # first sighting
        cuda.launch(steady_kernel, LC, _memory(0))  # capture
        before = _counters("dispatch.shape_hit", "dispatch.compile")
        cuda.launch(steady_kernel, LC, _memory(1))  # fresh content
        d = _deltas(before)
        assert d["dispatch.shape_hit"] == 1
        assert d["dispatch.compile"] == 0

    def test_first_sighting_defers_capture(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        before = _counters("dispatch.compile", "dispatch.first_sight",
                           "dispatch.fallback")
        cuda.launch(steady_kernel, LC, _memory(0))
        assert _deltas(before) == {"dispatch.compile": 0,
                                   "dispatch.first_sight": 1,
                                   "dispatch.fallback": 0}
        before = _counters("dispatch.compile", "dispatch.first_sight")
        cuda.launch(steady_kernel, LC, _memory(1))
        assert _deltas(before) == {"dispatch.compile": 1,
                                   "dispatch.first_sight": 0}

    def test_identical_content_replays_without_shape_lookup(self,
                                                            mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(0))
        before = _counters("dispatch.shape_hit", "dispatch.hit")
        cuda.launch(steady_kernel, LC, _memory(0))  # tier-0 replay
        d = _deltas(before)
        assert d["dispatch.hit"] == 1
        assert d["dispatch.shape_hit"] == 0

    def test_global_flip_keys_new_plans(self, mini_gpu, monkeypatch):
        """Same shape, different semantics must NOT replay.

        Flipping a module global the kernel reads changes what the
        kernel computes without changing any dtype, shape, or launch
        parameter.  The global's value is part of the kernel signature,
        so the flipped kernel has a new shape digest and earns its own
        plans on its own second sighting.
        """
        module = sys.modules[__name__]
        cuda = Cuda(mini_gpu)
        for mode in (nullcontext, dispatch_forced):
            DISPATCHER.clear()
            monkeypatch.setattr(module, "_PLAN_SCALE", 2)
            with mode():
                cuda.launch(scaled_kernel, LC, _memory(2))  # sighting @ 2
                cuda.launch(scaled_kernel, LC, _memory(0))  # capture @ 2
                monkeypatch.setattr(module, "_PLAN_SCALE", 5)
                before = _counters("dispatch.shape_hit",
                                   "dispatch.compile")
                cuda.launch(scaled_kernel, LC, _memory(2))  # sighting @ 5
                flipped = _memory(1)  # fresh content: tier 0 must miss
                cuda.launch(scaled_kernel, LC, flipped)
                d = _deltas(before)
                assert d["dispatch.shape_hit"] == 0, \
                    "the plans captured @ 2 must not serve @ 5"
                assert d["dispatch.compile"] == 1, "must capture anew"
            assert np.all(flipped["b"] == 35), "stale plan served 2 * 7"
            ref = _memory(1)
            Cuda(mini_gpu, fast=False).launch(scaled_kernel, LC, ref)
            assert _snapshot(flipped) == _snapshot(ref)

    def test_equal_but_distinct_globals_key_apart(self, mini_gpu,
                                                  monkeypatch):
        """``1``, ``1.0`` and ``True`` compare equal, yet a kernel can
        tell them apart; so must the replay key."""
        module = sys.modules[__name__]
        cuda = Cuda(mini_gpu)
        keys = set()
        for value in (1, 1.0, True):
            monkeypatch.setattr(module, "_PLAN_SCALE", value)
            ticket = DISPATCHER.begin_cuda(cuda, scaled_kernel, LC,
                                           _memory(0), {})
            keys.add(ticket.key)
        assert len(keys) == 3

    def test_unchanged_globals_reuse_plans(self, mini_gpu):
        cuda = Cuda(mini_gpu)
        for mode in (nullcontext, dispatch_forced):
            DISPATCHER.clear()
            with mode():
                cuda.launch(scaled_kernel, LC, _memory(2))  # sighting
                cuda.launch(scaled_kernel, LC, _memory(0))  # capture
                before = _counters("dispatch.shape_hit")
                cuda.launch(scaled_kernel, LC, _memory(1))
                assert _deltas(before)["dispatch.shape_hit"] == 1


# --------------------------------------------------------------------- #
# On-disk plan store (tier 2)
# --------------------------------------------------------------------- #


class TestPlanStore:
    def _digest(self, n: int) -> bytes:
        return bytes([n]) * 16

    def test_round_trip(self, tmp_path):
        from repro.compiler.store import PlanStore
        store = PlanStore(tmp_path)
        assert store.save(self._digest(1), [1, 2, 3])
        assert store.load(self._digest(1)) == [1, 2, 3]

    def test_missing_digest_is_a_miss(self, tmp_path):
        from repro.compiler.store import PlanStore
        before = _counters("dispatch.disk_miss")
        assert PlanStore(tmp_path).load(self._digest(2)) is None
        assert _deltas(before)["dispatch.disk_miss"] == 1

    def test_corruption_reads_as_miss(self, tmp_path):
        from repro.compiler.store import PlanStore
        store = PlanStore(tmp_path)
        store.save(self._digest(3), ["plans"])
        path, = tmp_path.glob("*.plan")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte: checksum must catch
        path.write_bytes(bytes(blob))
        before = _counters("dispatch.disk_corrupt")
        assert store.load(self._digest(3)) is None
        assert _deltas(before)["dispatch.disk_corrupt"] == 1

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        from repro.compiler.store import PlanStore
        store = PlanStore(tmp_path)
        store.save(self._digest(4), ["plans"])
        path, = tmp_path.glob("*.plan")
        path.write_bytes(path.read_bytes()[:10])  # torn write
        assert store.load(self._digest(4)) is None

    def test_eviction_bounds_the_store(self, tmp_path):
        from repro.compiler.store import PlanStore
        store = PlanStore(tmp_path, max_entries=2)
        before = _counters("cache.evictions")
        for n in range(4):
            store.save(self._digest(n), [n])
        assert store.entries() <= 2
        assert _deltas(before)["cache.evictions"] >= 2

    def test_cold_dispatcher_warms_from_disk(self, mini_gpu, tmp_path,
                                             monkeypatch):
        from repro.compiler.store import PlanStore
        fresh = Dispatcher()
        fresh.plan_store = PlanStore(tmp_path)
        monkeypatch.setattr(dmod, "DISPATCHER", fresh)
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(2))  # first sighting
        before = _counters("dispatch.disk_write")
        cuda.launch(steady_kernel, LC, _memory(0))
        assert _deltas(before)["dispatch.disk_write"] == 1

        fresh.clear()  # simulate a cold process with a warm disk
        before = _counters("dispatch.disk_hit", "dispatch.compile")
        warm = _memory(1)
        cuda.launch(steady_kernel, LC, warm)
        d = _deltas(before)
        assert d["dispatch.disk_hit"] == 1
        assert d["dispatch.compile"] == 0, "plans came from disk"
        ref = _memory(1)
        Cuda(mini_gpu, fast=False).launch(steady_kernel, LC, ref)
        assert _snapshot(warm) == _snapshot(ref)

    def test_corrupt_disk_entry_forces_recapture(self, mini_gpu,
                                                 tmp_path, monkeypatch):
        from repro.compiler.store import PlanStore
        fresh = Dispatcher()
        fresh.plan_store = PlanStore(tmp_path)
        monkeypatch.setattr(dmod, "DISPATCHER", fresh)
        cuda = Cuda(mini_gpu)
        cuda.launch(steady_kernel, LC, _memory(2))  # first sighting
        cuda.launch(steady_kernel, LC, _memory(0))  # capture + save
        for path in tmp_path.glob("*.plan"):
            path.write_bytes(b"debris")
        fresh.clear()
        before = _counters("dispatch.compile", "dispatch.disk_hit")
        # The cold first sighting finds only debris on disk; the second
        # sighting recaptures.
        cuda.launch(steady_kernel, LC, _memory(2))
        warm = _memory(1)
        cuda.launch(steady_kernel, LC, warm)
        d = _deltas(before)
        assert d["dispatch.disk_hit"] == 0
        assert d["dispatch.compile"] == 1
        ref = _memory(1)
        Cuda(mini_gpu, fast=False).launch(steady_kernel, LC, ref)
        assert _snapshot(warm) == _snapshot(ref)
