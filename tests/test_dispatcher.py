"""The JIT-style dispatch layer: cache accounting, invalidation,
isolation and tier byte-identity.

The differential-fuzz harness (``test_differential_fuzz.py``) pins
byte-identity over random programs; this suite pins the dispatcher's
*mechanics* — which launches are keyed, when the cache hits, what
invalidates it, and how every degradation path falls back.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

import repro.compiler.dispatcher as dmod
from repro.common.errors import DataRaceError, SimulationError
from repro.compiler.dispatcher import DISPATCHER, Dispatcher
from repro.compiler.lift import kernel_purity
from repro.cpu.machine import CpuMachine
from repro.cuda.interpreter import Cuda, KernelThread
from repro.faults.machine import FaultyMachine
from repro.faults.models import DroppedRun
from repro.faults.scenario import FaultScenario
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


DISPATCH = ("dispatch.hit", "dispatch.miss", "dispatch.fallback")


# A pure kernel the dispatcher can replay.
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


# Data-dependent control flow: replayable all the same.
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
# Machine identity: the key holds the machine's parameter values
# --------------------------------------------------------------------- #


def _change(machine, attr: str, field: str, delta, in_place: bool):
    """Change one field of ``machine.<attr>``: flip it inside the frozen
    object, or swap in an edited copy."""
    obj = getattr(machine, attr)
    value = getattr(obj, field) + delta
    if in_place:
        object.__setattr__(obj, field, value)
    else:
        setattr(machine, attr, dataclasses.replace(obj, **{field: value}))


def _gpu_launch(cuda):
    memory = _memory()
    result = cuda.launch(steady_kernel, LC, memory)
    return (result.elapsed_cycles, result.block_cycles, result.stats,
            _snapshot(memory))


def _omp_shared() -> dict[str, np.ndarray]:
    return {"hist": np.zeros(2, dtype=np.int64),
            "out": np.zeros(4, dtype=np.int64)}


def _omp_region(omp):
    shared = _omp_shared()
    result = omp.parallel(omp_body, shared)
    return (result.elapsed_ns, result.thread_times_ns, result.barriers,
            result.requests, _snapshot(shared))


def _copy_cpu(machine):
    """A fresh machine at ``machine``'s current parameter values."""
    return CpuMachine(*(dataclasses.replace(getattr(machine, attr))
                        for attr in ("topology", "params", "jitter")))


_IN_PLACE = pytest.mark.parametrize("in_place", [False, True],
                                    ids=["swap", "in-place"])


class TestMachineIdentity:
    def test_equal_devices_share_an_entry(self, mini_gpu):
        DISPATCHER.clear()
        first = _gpu_launch(Cuda(GpuDevice(mini_gpu.spec, GpuCostParams())))
        before = _counters(*DISPATCH)
        twin = _gpu_launch(Cuda(GpuDevice(mini_gpu.spec, GpuCostParams())))
        assert _deltas(before) == {"dispatch.hit": 1, "dispatch.miss": 0,
                                   "dispatch.fallback": 0}
        assert twin == first

    @_IN_PLACE
    def test_gpu_param_change_misses(self, mini_gpu, in_place):
        DISPATCHER.clear()
        device = GpuDevice(mini_gpu.spec, GpuCostParams())
        cuda = Cuda(device)
        base = _gpu_launch(cuda)
        _change(device, "params", "sync_base_cycles", 7, in_place)
        before = _counters(*DISPATCH)
        changed = [_gpu_launch(cuda) for _ in range(2)]
        assert _deltas(before) == {"dispatch.hit": 1, "dispatch.miss": 1,
                                   "dispatch.fallback": 0}
        ref = _gpu_launch(Cuda(GpuDevice(
            device.spec, dataclasses.replace(device.params)), fast=False))
        assert changed == [ref, ref]
        assert ref[0] != base[0], "the change must move the timing"

    @_IN_PLACE
    @pytest.mark.parametrize("attr, field, delta", [
        ("topology", "base_clock_ghz", 0.5),
        ("params", "int_alu_ns", 5.0),
        ("jitter", "rel_sigma", 0.01),
    ])
    def test_cpu_param_change_misses(self, quiet_cpu, attr, field, delta,
                                     in_place):
        """One runtime, built before the change, runs every region: it
        must price at the new values, as the key sees them."""
        DISPATCHER.clear()
        omp = OpenMP(quiet_cpu, n_threads=4, detect_races=False)
        base = _omp_region(omp)
        _change(quiet_cpu, attr, field, delta, in_place)
        before = _counters(*DISPATCH)
        changed = [_omp_region(omp) for _ in range(2)]
        assert _deltas(before) == {"dispatch.hit": 1, "dispatch.miss": 1,
                                   "dispatch.fallback": 0}
        ref = _omp_region(OpenMP(_copy_cpu(quiet_cpu), n_threads=4,
                                 detect_races=False, fast=False))
        assert changed == [ref, ref]
        if attr == "params":
            assert ref[0] != base[0], "the change must move the timing"

    def test_fault_wrapper_falls_back(self, quiet_cpu):
        """A fault wrapper carries no parameter objects of its own."""
        omp = OpenMP(quiet_cpu, n_threads=4, detect_races=False)
        omp.machine = FaultyMachine(
            quiet_cpu, FaultScenario("f", (DroppedRun(drop_prob=0.5),)))
        before = _counters(*DISPATCH)
        assert DISPATCHER.begin_omp(omp, omp_body, _omp_shared()) is None
        assert _deltas(before) == {"dispatch.hit": 0, "dispatch.miss": 0,
                                   "dispatch.fallback": 1}


# --------------------------------------------------------------------- #
# CUDA: the replay tier
# --------------------------------------------------------------------- #


class TestCudaDispatch:
    def test_miss_then_hit_accounting(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        before = _counters(*DISPATCH)
        first = _memory()
        cuda.launch(steady_kernel, LC, first)
        d = _deltas(before)
        assert d["dispatch.miss"] == 1
        assert d["dispatch.hit"] == 0

        before = _counters(*DISPATCH)
        second = _memory()
        cuda.launch(steady_kernel, LC, second)
        d = _deltas(before)
        assert d["dispatch.hit"] == 1
        assert d["dispatch.miss"] == 0
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

    def test_tiers_record_spans(self, mini_gpu):
        from repro.obs import Recorder, recording
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        rec = Recorder()
        with recording(rec):
            cuda.launch(steady_kernel, LC, _memory(0))  # record
            cuda.launch(steady_kernel, LC, _memory(0))  # replay hit
            cuda.launch(steady_kernel, LC, _memory(1))  # miss: no span
        replays = [s for s in rec.spans() if s["name"] == "dispatch.replay"]
        assert len(replays) == 1
        assert replays[0]["attrs"]["kind"] == "cuda"
        assert replays[0]["attrs"]["blocks"] == LC.grid_blocks

    def test_divergent_kernel_falls_back_but_replays(self, mini_gpu):
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        before = _counters(*DISPATCH)
        cuda.launch(divergent_kernel, LC, _memory())
        d = _deltas(before)
        # The miss falls back to the interpreter; data-dependent control
        # flow does not make the kernel ineligible.
        assert d["dispatch.miss"] == 1
        assert d["dispatch.fallback"] == 0

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
                dmod.function_signature(kernel)
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
# The reference runtime, eviction, OpenMP
# --------------------------------------------------------------------- #


class TestReferenceRuntime:
    """``fast=False`` is the one way around replay: the oracle keys
    nothing, even for a pure kernel or body already recorded."""

    def test_cuda_fast_false_never_dispatches(self, mini_gpu):
        DISPATCHER.clear()
        Cuda(mini_gpu).launch(steady_kernel, LC, _memory())
        before = _counters(*DISPATCH)
        Cuda(mini_gpu, fast=False).launch(steady_kernel, LC, _memory())
        assert all(v == 0 for v in _deltas(before).values())

    def test_omp_fast_false_never_dispatches(self, quiet_cpu):
        DISPATCHER.clear()
        OpenMP(quiet_cpu, n_threads=4,
               detect_races=False).parallel(omp_body, _omp_shared())
        before = _counters(*DISPATCH)
        OpenMP(quiet_cpu, n_threads=4, detect_races=False,
               fast=False).parallel(omp_body, _omp_shared())
        assert all(v == 0 for v in _deltas(before).values())


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
        assert stats == {"entries": 0, "bytes": 0}


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
        OpenMP(quiet_cpu, n_threads=4, detect_races=False).parallel(
            racy_body, self._shared())
        # Identical input, so only the key's detect_races bit keeps the
        # recorded (race-blind) outcome from being replayed.
        with pytest.raises(DataRaceError, match=r"out\[0\]"):
            OpenMP(quiet_cpu, n_threads=4).parallel(
                racy_body, self._shared())

    def test_racy_collect_region_never_recorded(self, quiet_cpu):
        DISPATCHER.clear()
        collect = OpenMP(quiet_cpu, n_threads=4, collect_races=True)
        ref = OpenMP(quiet_cpu, n_threads=4, collect_races=True,
                     fast=False).parallel(racy_body, self._shared())
        assert ref.races
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


class TestModuleGlobals:
    """A module global flipped between two launches with identical
    contents: the dispatcher must serve the flipped value, exactly as
    the ``fast=False`` runtime does.  Before the flip each runtime
    records two entries and replays one."""

    def test_cuda_flip_matches_reference(self, mini_gpu, monkeypatch):
        module = sys.modules[__name__]
        monkeypatch.setattr(module, "_FLIP", 1)
        DISPATCHER.clear()
        cuda = Cuda(mini_gpu)
        for seed in (1, 0, 0):
            cuda.launch(flip_kernel, LC, _memory(seed))
        monkeypatch.setattr(module, "_FLIP", 5)
        before = _counters("dispatch.hit")
        results = []
        # New key @ 5: a miss on the old contents, then one replay.
        for seed in (0, 0, 2, 3):
            memory = _memory(seed)
            results.append((seed, memory,
                            cuda.launch(flip_kernel, LC, memory)))
        hits = _deltas(before)["dispatch.hit"]
        for seed, memory, result in results:
            ref_mem = _memory(seed)
            ref = Cuda(mini_gpu, fast=False).launch(flip_kernel, LC,
                                                    ref_mem)
            assert np.array_equal(memory["b"], memory["a"] * 5)
            assert _snapshot(memory) == _snapshot(ref_mem)
            assert result.elapsed_cycles == ref.elapsed_cycles
            assert result.block_cycles == ref.block_cycles
            assert result.stats == ref.stats
        assert hits == 1, "the flipped kernel must be keyed, and keyed anew"

    def test_omp_flip_matches_reference(self, quiet_cpu, monkeypatch):
        module = sys.modules[__name__]
        monkeypatch.setattr(module, "_FLIP", 1)
        DISPATCHER.clear()
        omp = OpenMP(quiet_cpu, n_threads=4, detect_races=False)
        for seed in (1, 0, 0):
            omp.parallel(flip_body, _flip_shared(seed))
        monkeypatch.setattr(module, "_FLIP", 5)
        before = _counters("dispatch.hit")
        results = []
        for seed in (0, 0, 2, 3):
            shared = _flip_shared(seed)
            results.append((seed, shared, omp.parallel(flip_body, shared)))
        hits = _deltas(before)["dispatch.hit"]
        reference = OpenMP(quiet_cpu, n_threads=4, detect_races=False,
                           fast=False)
        for seed, shared, result in results:
            ref_shared = _flip_shared(seed)
            ref = reference.parallel(flip_body, ref_shared)
            assert _snapshot(shared) == _snapshot(ref_shared)
            assert result.elapsed_ns == ref.elapsed_ns
            assert result.thread_times_ns == ref.thread_times_ns
            assert result.barriers == ref.barriers
            assert result.requests == ref.requests
        assert hits == 1, "the flipped body must be keyed, and keyed anew"


# --------------------------------------------------------------------- #
# Replay keys: the shape digest covers the kernel's globals
# --------------------------------------------------------------------- #


_PLAN_SCALE = 2


def scaled_kernel(t):
    yield t.global_write("b", t.global_id, _PLAN_SCALE * 7)


class TestShapeKeys:
    def test_global_flip_keys_a_new_entry(self, mini_gpu, monkeypatch):
        """Same shape, different semantics must NOT replay.

        Flipping a module global the kernel reads changes what the
        kernel computes without changing any dtype, shape, launch
        parameter or memory byte.  The global's value is part of the
        kernel signature, so the flipped kernel has a new shape digest
        and its identical contents miss the entry recorded @ 2.
        """
        module = sys.modules[__name__]
        cuda = Cuda(mini_gpu)
        DISPATCHER.clear()
        monkeypatch.setattr(module, "_PLAN_SCALE", 2)
        cuda.launch(scaled_kernel, LC, _memory(1))  # record @ 2
        monkeypatch.setattr(module, "_PLAN_SCALE", 5)
        before = _counters("dispatch.hit", "dispatch.miss")
        flipped = _memory(1)  # identical contents
        cuda.launch(scaled_kernel, LC, flipped)
        assert _deltas(before) == {"dispatch.hit": 0, "dispatch.miss": 1}, \
            "the entry recorded @ 2 must not serve @ 5"
        assert np.all(flipped["b"] == 35), "stale entry served 2 * 7"
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

    def test_unchanged_globals_replay(self, mini_gpu):
        """An unflipped global keys the same entry launch after launch:
        the signature freezes the value, not the identity of a load."""
        cuda = Cuda(mini_gpu)
        DISPATCHER.clear()
        keys = {DISPATCHER.begin_cuda(cuda, scaled_kernel, LC,
                                      _memory(1), {}).key
                for _ in range(2)}
        assert len(keys) == 1
        cuda.launch(scaled_kernel, LC, _memory(1))  # record
        before = _counters("dispatch.hit")
        cuda.launch(scaled_kernel, LC, _memory(1))
        assert _deltas(before)["dispatch.hit"] == 1


# --------------------------------------------------------------------- #
# Read-only array cells are signed by their bytes
# --------------------------------------------------------------------- #


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def _table_kernel(table):
    def kernel(t):
        value = yield t.global_read("a", t.global_id)
        yield t.global_write("b", t.global_id,
                             value + int(table[t.global_id % 4]))
    return kernel


def _writing_kernel(table):
    def kernel(t):
        table[0] = t.global_id
        yield t.global_write("b", t.global_id, 1)
    return kernel


def _reference_launch(device, kernel):
    memory = _memory()
    result = Cuda(device, fast=False).launch(kernel, LC, memory)
    return result.elapsed_cycles, result.stats, _snapshot(memory)


class TestReadOnlyCells:
    def test_writeable_or_subclassed_cell_falls_back(self, mini_gpu):
        masked = np.ma.masked_array([1, 2, 3, 4], mask=[0, 0, 0, 0])
        masked.flags.writeable = False
        for table in (np.array([1, 2, 3, 4], dtype=np.int64), masked):
            DISPATCHER.clear()
            kernel = _table_kernel(table)
            before = _counters(*DISPATCH)
            Cuda(mini_gpu).launch(kernel, LC, _memory())
            assert _deltas(before) == {"dispatch.hit": 0,
                                       "dispatch.miss": 0,
                                       "dispatch.fallback": 1}

    def test_read_only_cell_is_keyed(self, mini_gpu):
        DISPATCHER.clear()
        kernel = _table_kernel(_read_only([1, 2, 3, 4]))
        assert kernel_purity(kernel)[0]
        cuda = Cuda(mini_gpu)
        before = _counters(*DISPATCH)
        cuda.launch(kernel, LC, _memory())
        warm_mem = _memory()
        warm = cuda.launch(kernel, LC, warm_mem)
        assert _deltas(before) == {"dispatch.hit": 1, "dispatch.miss": 1,
                                   "dispatch.fallback": 0}
        assert (warm.elapsed_cycles, warm.stats, _snapshot(warm_mem)) == \
            _reference_launch(mini_gpu, kernel)

    @pytest.mark.parametrize("through", ["flag", "base"])
    def test_changed_cell_misses(self, mini_gpu, through):
        """Re-enabling writes (or writing through a writeable base) and
        changing the array keys a different entry: its bytes are
        digested at every launch."""
        DISPATCHER.clear()
        base = np.array([1, 2, 3, 4], dtype=np.int64)
        table = base.view()
        table.flags.writeable = False
        kernel = _table_kernel(table)
        cuda = Cuda(mini_gpu)
        cuda.launch(kernel, LC, _memory())  # record
        if through == "flag":
            base = table
            base.flags.writeable = True
        base[2] = 40
        table.flags.writeable = False
        before = _counters(*DISPATCH)
        memory = _memory()
        result = cuda.launch(kernel, LC, memory)
        assert _deltas(before) == {"dispatch.hit": 0, "dispatch.miss": 1,
                                   "dispatch.fallback": 0}
        assert (result.elapsed_cycles, result.stats, _snapshot(memory)) \
            == _reference_launch(mini_gpu, kernel)
        assert memory["b"][2] == memory["a"][2] + 40

    def test_write_into_read_only_cell_records_nothing(self, mini_gpu):
        DISPATCHER.clear()
        table = _read_only([1, 2, 3, 4])
        kernel = _writing_kernel(table)
        for _ in range(2):
            before = _counters(*DISPATCH)
            with pytest.raises(ValueError, match="read-only"):
                Cuda(mini_gpu).launch(kernel, LC, _memory())
            assert _deltas(before) == {"dispatch.hit": 0,
                                       "dispatch.miss": 1,
                                       "dispatch.fallback": 0}
        assert DISPATCHER.stats()["entries"] == 0
        assert list(table) == [1, 2, 3, 4]

    def test_cell_bytes_count_toward_memory_cap(self, mini_gpu,
                                                monkeypatch):
        """The memory alone (2056 B) fits a 4096 B cap, and so does the
        4096 B table alone, but not both together."""
        small = Dispatcher(memory_cap=4096)
        monkeypatch.setattr(dmod, "DISPATCHER", small)
        cuda = Cuda(mini_gpu)
        for kernel, keyed in ((steady_kernel, True),
                              (_table_kernel(_read_only(range(512))),
                               False),
                              (_table_kernel(_read_only(range(513))),
                               False)):
            before = _counters(*DISPATCH)
            cuda.launch(kernel, LC, _memory())
            assert _deltas(before) == {"dispatch.hit": 0,
                                       "dispatch.miss": int(keyed),
                                       "dispatch.fallback": int(not keyed)}


# --------------------------------------------------------------------- #
# Traced launches record and replay their timeline
# --------------------------------------------------------------------- #


def _traced_launch(device, fast=True, trace=True):
    memory = _memory()
    result = Cuda(device, fast=fast).launch(steady_kernel, LC, memory,
                                            trace=trace)
    return result, _snapshot(memory)


def _traced_region(machine, fast=True, trace=True):
    shared = _omp_shared()
    result = OpenMP(machine, n_threads=4, detect_races=False,
                    fast=fast).parallel(omp_body, shared, trace=trace)
    return result, _snapshot(shared)


class TestTracedReplay:
    def test_cuda_relaunch_replays_the_timeline(self, mini_gpu):
        DISPATCHER.clear()
        cold, _ = _traced_launch(mini_gpu)
        before = _counters(*DISPATCH, "interp.cuda.passes")
        warm, warm_mem = _traced_launch(mini_gpu)
        assert _deltas(before) == {"dispatch.hit": 1, "dispatch.miss": 0,
                                   "dispatch.fallback": 0,
                                   "interp.cuda.passes": 0}
        ref, ref_mem = _traced_launch(mini_gpu, fast=False)
        assert warm.trace.events == cold.trace.events == ref.trace.events
        assert warm.trace.events is not cold.trace.events
        assert warm.block_cycles == ref.block_cycles
        assert warm.stats == ref.stats
        assert warm_mem == ref_mem

    def test_omp_rerun_replays_the_timeline(self, quiet_cpu):
        DISPATCHER.clear()
        cold, _ = _traced_region(quiet_cpu)
        before = _counters(*DISPATCH, "interp.omp.rounds")
        warm, warm_mem = _traced_region(quiet_cpu)
        assert _deltas(before) == {"dispatch.hit": 1, "dispatch.miss": 0,
                                   "dispatch.fallback": 0,
                                   "interp.omp.rounds": 0}
        ref, ref_mem = _traced_region(quiet_cpu, fast=False)
        assert warm.trace.events == cold.trace.events == ref.trace.events
        assert warm.trace.events is not cold.trace.events
        assert warm.thread_times_ns == ref.thread_times_ns
        assert warm.elapsed_ns == ref.elapsed_ns
        assert warm_mem == ref_mem

    @pytest.mark.parametrize("first", [False, True],
                             ids=["untraced-first", "traced-first"])
    def test_trace_request_keys_apart(self, mini_gpu, quiet_cpu, first):
        """A traced entry never serves an untraced launch, nor the
        reverse: each misses and returns what the reference returns."""
        for run, machine in ((_traced_launch, mini_gpu),
                             (_traced_region, quiet_cpu)):
            DISPATCHER.clear()
            run(machine, trace=first)  # record
            before = _counters(*DISPATCH)
            result, _ = run(machine, trace=not first)
            assert _deltas(before) == {"dispatch.hit": 0,
                                       "dispatch.miss": 1,
                                       "dispatch.fallback": 0}
            if first:
                assert result.trace is None
            else:
                ref, _ = run(machine, fast=False)
                assert result.trace.events == ref.trace.events

    def test_replay_attaches_its_timeline(self, mini_gpu, quiet_cpu):
        from repro.obs import Recorder, recording
        DISPATCHER.clear()
        rec = Recorder()
        with recording(rec):
            for _ in range(2):
                _traced_launch(mini_gpu)
                _traced_region(quiet_cpu)
        replays = [s["attrs"]["kind"] for s in rec.spans()
                   if s["name"] == "dispatch.replay"]
        assert replays == ["cuda", "omp"]
        assert [source for source, _, _ in rec.timelines] == \
            ["cuda", "openmp", "cuda", "openmp"]
        assert rec.timelines[0][1] == rec.timelines[2][1]
        assert rec.timelines[1][1] == rec.timelines[3][1]

    def test_timeline_bytes_bound_the_cache(self, mini_gpu, monkeypatch):
        """Recorded events count toward ``max_bytes``: a bound that
        holds one traced entry's events, but not two, evicts."""
        events = len(_traced_launch(mini_gpu, fast=False)[0].trace.events)
        one = dmod._EVENT_BYTES * events + 1032 + 256  # writes: b and c
        small = Dispatcher(max_bytes=one + one // 2)
        monkeypatch.setattr(dmod, "DISPATCHER", small)
        cuda = Cuda(mini_gpu)
        before = _counters("dispatch.evictions")
        for seed in range(3):
            cuda.launch(steady_kernel, LC, _memory(seed), trace=True)
            stats = small.stats()
            assert stats["entries"] == 1
            assert stats["bytes"] <= small.max_bytes
        assert _deltas(before)["dispatch.evictions"] == 2
