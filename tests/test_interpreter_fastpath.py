"""The batched interpreter fast paths must mirror the scalar reference.

See the "Interpreter fast path" section of ``docs/performance.md``.
Each dialect has one scheduler with two executors.  The CUDA block
scheduler runs a uniform warp pass through the batched handlers of
:mod:`repro.cuda.fastpath` when ``fast`` is on, and through the scalar
pass semantics of :class:`repro.cuda.interpreter.Cuda` otherwise.  The
OpenMP region loop runs a uniform round through the handlers of
:mod:`repro.openmp.fastpath` when ``fast`` is on, and every other round
through the per-request oracle of
:class:`repro.openmp.interpreter.OpenMP`.  Both settings must agree
exactly — same memory bytes, same modeled times, same stats, same trace
events, same race reports, same raised errors.  Any divergence here is
a correctness bug, never an acceptable approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.compiler.dispatcher import dispatch_disabled
from repro.core.engine import reference_engine
from repro.cuda.interpreter import Cuda
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import counter_value
from repro.openmp.interpreter import OpenMP
from repro.workloads.bfs import gpu_bfs, random_graph
from repro.workloads.histogram import cpu_histogram, gpu_histogram
from repro.workloads.prefix_sum import (
    cpu_prefix_sum,
    gpu_block_prefix_sum,
    gpu_segmented_prefix_sum,
)
from repro.workloads.sort import gpu_bitonic_sort


def _assert_launches_equal(fast, ref):
    """Every observable field of two LaunchResults must match."""
    assert fast.elapsed_cycles == ref.elapsed_cycles
    assert fast.block_cycles == ref.block_cycles
    assert fast.stats == ref.stats
    assert set(fast.memory) == set(ref.memory)
    for name in ref.memory:
        assert fast.memory[name].tobytes() == ref.memory[name].tobytes()
    if ref.trace is not None:
        assert fast.trace is not None
        assert fast.trace.events == ref.trace.events
    assert fast.races == ref.races


def _launch_both(device, kernel, cfg, make_globals, shared_decls=None,
                 trace=False, **cuda_kw):
    """Run one kernel on the fast and reference CUDA paths and compare."""
    results = []
    for fast in (True, False):
        cuda = Cuda(device, fast=fast, **cuda_kw)
        results.append(cuda.launch(kernel, cfg, globals_=make_globals(),
                                   shared_decls=shared_decls, trace=trace))
    _assert_launches_equal(*results)
    return results[0]


def _assert_outcomes_equal(fast, ref):
    """Field-by-field equality for workload outcome dataclasses."""
    assert type(fast) is type(ref)
    for f in fields(ref):
        got, want = getattr(fast, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name


class TestCudaEquivalence:
    def test_uniform_stream_kernel_batches(self, mini_gpu):
        """A convergent kernel matches the reference and actually takes
        the batched uniform passes (the counter must move)."""
        def kernel(t):
            i = t.global_id
            v = yield t.global_read("a", i)
            yield t.alu(2)
            yield t.global_write("b", i, v * 3)
            yield t.syncthreads()
            w = yield t.global_read("b", i)
            yield t.global_write("a", i, w + 1)

        def make():
            return {"a": np.arange(128, dtype=np.int64),
                    "b": np.zeros(128, np.int64)}

        before = counter_value("interp.cuda.uniform_passes")
        _launch_both(mini_gpu, kernel, LaunchConfig(2, 64), make,
                     trace=True)
        assert counter_value("interp.cuda.uniform_passes") > before

    def test_reference_path_never_batches(self, mini_gpu):
        def kernel(t):
            yield t.global_write("out", t.global_id, 1)

        before = counter_value("interp.cuda.uniform_passes")
        out = np.zeros(64, np.int64)
        Cuda(mini_gpu, fast=False).launch(
            kernel, LaunchConfig(1, 64), globals_={"out": out})
        assert counter_value("interp.cuda.uniform_passes") == before
        assert out.sum() == 64

    def test_divergent_kernel(self, mini_gpu):
        """Branchy lanes, early exits and partial warps must agree."""
        def kernel(t):
            i = t.global_id
            if i % 3 == 0:
                v = yield t.global_read("a", i)
                yield t.global_write("b", i, v + 10)
            elif i % 3 == 1:
                yield t.alu(i % 7 + 1)
                yield t.atomic_add("b", 0, 1)
            # lanes with i % 3 == 2 retire immediately
            if i < 5:
                yield t.syncwarp()

        def make():
            return {"a": np.arange(50, dtype=np.int64),
                    "b": np.zeros(50, np.int64)}

        _launch_both(mini_gpu, kernel, LaunchConfig(2, 25), make,
                     trace=True)

    def test_mixed_variable_pass_falls_back(self, mini_gpu):
        """Lanes of one warp hitting different arrays in the same pass
        exercise the scalar pass semantics on a batched runtime."""
        def kernel(t):
            i = t.threadIdx
            var = "a" if i % 2 == 0 else "b"
            v = yield t.global_read(var, i)
            yield t.global_write(var, i, v + 1)

        def make():
            return {"a": np.arange(32, dtype=np.int64),
                    "b": np.full(32, 7, np.int64)}

        _launch_both(mini_gpu, kernel, LaunchConfig(1, 32), make)

    def test_atomic_kinds_and_collisions(self, mini_gpu):
        """Colliding adds, CAS races and min/max reductions must all
        produce the serial lane-order results and costs."""
        def kernel(t):
            i = t.global_id
            yield t.atomic_add("acc", i % 4, 1)
            yield t.atomic_max("acc", 4, i)
            yield t.atomic_min("acc", 5, i)
            old = yield t.atomic_cas("acc", 6, 0, i + 1)
            if old == 0:
                yield t.atomic_or("acc", 7, 1)
            yield t.atomic_exch("scratch", i, i * 2)

        def make():
            return {"acc": np.zeros(8, np.int64),
                    "scratch": np.zeros(64, np.int64)}

        _launch_both(mini_gpu, kernel, LaunchConfig(2, 32), make,
                     trace=True)

    def test_shared_memory_and_collectives(self, mini_gpu):
        def kernel(t):
            i = t.threadIdx
            yield t.shared_write("buf", i, i)
            yield t.syncthreads()
            v = yield t.shared_read("buf", (i + 1) % t.blockDim)
            yield t.atomic_add("buf", 0, int(v) % 3)
            yield t.threadfence()
            yield t.global_write("out", t.global_id, v)

        def make():
            return {"out": np.zeros(64, np.int64)}

        _launch_both(mini_gpu, kernel, LaunchConfig(2, 32), make,
                     shared_decls={"buf": (32, np.dtype(np.int64))},
                     trace=True)

    def test_step_budget_error_matches(self, mini_gpu):
        """Both paths exhaust the same StepBudget with the same text."""
        def kernel(t):
            while True:
                yield t.alu(1)

        for fast in (True, False):
            cuda = Cuda(mini_gpu, max_steps=100, fast=fast)
            with pytest.raises(SimulationError, match="step budget"):
                cuda.launch(kernel, LaunchConfig(1, 32))

    def test_race_detection_reports_match(self, mini_gpu):
        """With the detector on, the fast runtime defers to the scalar
        reference so race reports are identical."""
        def kernel(t):
            yield t.global_write("x", 0, t.global_id)

        results = []
        for fast in (True, False):
            cuda = Cuda(mini_gpu, detect_races=True, collect_races=True,
                        fast=fast)
            results.append(cuda.launch(kernel, LaunchConfig(1, 4),
                                       globals_={"x": np.zeros(1,
                                                               np.int64)}))
        fastr, refr = results
        assert fastr.raced and refr.raced
        assert fastr.races == refr.races
        assert fastr.elapsed_cycles == refr.elapsed_cycles

    def test_launch_result_races_lazy(self, mini_gpu):
        """Without a detector the lazy accessors report a clean launch."""
        def kernel(t):
            yield t.global_write("x", t.global_id, 1)

        result = Cuda(mini_gpu).launch(kernel, LaunchConfig(1, 8),
                                       globals_={"x": np.zeros(8,
                                                               np.int64)})
        assert result.detector is None
        assert result.races == []
        assert result.raced is False


@dataclass
class _TracedScan:
    """Outcome of :func:`_traced_segmented_scan`, timeline included."""

    values: np.ndarray
    correct: bool
    elapsed: float
    block_cycles: list
    stats: object
    events: list


def _traced_segmented_scan(device) -> _TracedScan:
    """Per-block shared-memory inclusive scans over 8 blocks, traced:
    every block barrier and warp pass lands in the timeline."""
    n, bt = 8 * 32, 32
    data = (np.arange(n, dtype=np.int64) * 7919) % 1000

    def scan_kernel(t):
        base = t.blockIdx * t.blockDim
        i = t.threadIdx
        v = yield t.global_read("data", base + i)
        yield t.shared_write("buf", i, v)
        offset = 1
        while offset < bt:
            yield t.syncthreads()
            addend = 0
            if offset <= i:
                addend = yield t.shared_read("buf", i - offset)
            yield t.syncthreads()
            if offset <= i:
                mine = yield t.shared_read("buf", i)
                yield t.shared_write("buf", i, mine + addend)
            offset *= 2
        v = yield t.shared_read("buf", i)
        yield t.global_write("out", base + i, v)

    out = np.zeros(n, np.int64)
    result = Cuda(device).launch(
        scan_kernel, LaunchConfig(n // bt, bt),
        globals_={"data": data, "out": out},
        shared_decls={"buf": (bt, np.dtype(np.int64))}, trace=True)
    expected = np.concatenate([np.cumsum(data[s:s + bt])
                               for s in range(0, n, bt)])
    return _TracedScan(values=out, correct=bool((out == expected).all()),
                       elapsed=result.elapsed_cycles,
                       block_cycles=result.block_cycles,
                       stats=result.stats, events=result.trace.events)


class TestCudaWorkloads:
    """Every shipped workload kernel, fast default vs reference engine."""

    WORKLOADS = {
        "histogram_shared": lambda dev: gpu_histogram(
            dev, (np.arange(512) * 7919) % 32, 32, strategy="shared"),
        "histogram_global": lambda dev: gpu_histogram(
            dev, (np.arange(512) * 7919) % 32, 32, strategy="global"),
        "block_prefix_sum": lambda dev: gpu_block_prefix_sum(
            dev, (np.arange(128) * 31) % 100),
        "segmented_prefix_sum": lambda dev: gpu_segmented_prefix_sum(
            dev, (np.arange(256) * 13) % 50, block_threads=64),
        "bitonic_sort": lambda dev: gpu_bitonic_sort(
            dev, ((np.arange(64) * 37) % 101).astype(np.int64)),
        "segmented_scan_traced": _traced_segmented_scan,
    }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_matches_reference(self, mini_gpu, name):
        run = self.WORKLOADS[name]
        fast = run(mini_gpu)
        with reference_engine():
            ref = run(mini_gpu)
        assert ref.correct
        _assert_outcomes_equal(fast, ref)

    @pytest.mark.parametrize("n,seed", [(48, 2), (96, 7)])
    def test_bfs_matches_reference(self, mini_gpu, n, seed):
        row_ptr, cols = random_graph(n, avg_degree=4, seed=seed)
        fast = gpu_bfs(mini_gpu, row_ptr, cols)
        with reference_engine():
            ref = gpu_bfs(mini_gpu, row_ptr, cols)
        assert ref.correct
        _assert_outcomes_equal(fast, ref)


def _parallel_both(machine, body, make_shared, n_threads=4, trace=True,
                   **omp_kw):
    """Run one region on the fast and reference OpenMP paths, compare
    every observable field, and return the fast result."""
    results = []
    for fast in (True, False):
        omp = OpenMP(machine, n_threads=n_threads, detect_races=False,
                     fast=fast, **omp_kw)
        results.append(omp.parallel(body, shared=make_shared(),
                                    trace=trace))
    fastr, refr = results
    assert fastr.elapsed_ns == refr.elapsed_ns
    assert fastr.thread_times_ns == refr.thread_times_ns
    assert fastr.barriers == refr.barriers
    assert fastr.requests == refr.requests
    for name in refr.memory:
        assert fastr.memory[name].tobytes() == refr.memory[name].tobytes()
    if trace:
        assert fastr.trace.events == refr.trace.events
    return fastr


def _undeclared(tc):
    yield tc.read("missing", tc.tid)


def _out_of_bounds(tc):
    yield tc.atomic_update("x", tc.tid * 2, lambda v: v + 1)


def _unheld_release(tc):
    yield tc.atomic_write("x", tc.tid, 1)
    if tc.tid == 2:
        yield tc.lock_release("l")


def _finish_holding(tc):
    yield tc.lock_acquire(f"l{tc.tid}")


def _barrier_after_finish(tc):
    if tc.tid != 0:
        yield tc.barrier()


def _different_constructs(tc):
    if tc.tid % 2:
        yield tc.single(lambda mem: None)
    else:
        yield tc.barrier()


def _lock_deadlock(tc):
    yield tc.lock_acquire("a" if tc.tid == 0 else "b")
    yield tc.barrier()
    yield tc.lock_acquire("b" if tc.tid == 0 else "a")


def _non_request(tc):
    yield tc.flush() if tc.tid else 42


#: Every reachable region error: body, and a fragment of its message.
_ERROR_CASES = {
    "undeclared": (_undeclared, "undeclared shared variable 'missing'"),
    "out_of_bounds": (_out_of_bounds, r"x\[4\] out of bounds"),
    "unheld_release": (_unheld_release, "released lock 'l'"),
    "finish_holding": (_finish_holding, r"finished while holding"),
    "barrier_after_finish": (_barrier_after_finish,
                             "some threads already finished"),
    "different_constructs": (_different_constructs,
                             "different synchronization constructs"),
    "lock_deadlock": (_lock_deadlock, "lock deadlock"),
    "non_request": (_non_request, "yielded a non-request: 42"),
}


class TestOpenMPEquivalence:
    def test_uniform_atomic_body_batches(self, quiet_cpu):
        """The canonical contended-update loop takes uniform rounds."""
        def body(tc):
            for k in range(20):
                yield tc.atomic_update("acc", (tc.tid + k) % 4,
                                       lambda v: v + 1)

        before = counter_value("interp.omp.uniform_rounds")
        result = _parallel_both(
            quiet_cpu, body, lambda: {"acc": np.zeros(4, np.int64)})
        assert counter_value("interp.omp.uniform_rounds") > before
        assert result.memory["acc"].sum() == 80

    def test_reference_path_never_batches(self, quiet_cpu):
        def body(tc):
            yield tc.atomic_write("x", tc.tid, 1)

        before = counter_value("interp.omp.uniform_rounds")
        OpenMP(quiet_cpu, n_threads=4, detect_races=False,
               fast=False).parallel(
            body, shared={"x": np.zeros(4, np.int64)})
        assert counter_value("interp.omp.uniform_rounds") == before

    def test_race_detection_runs_batched(self, quiet_cpu):
        """A detecting interpreter takes the batched scheduler, which
        feeds the detector; the scalar loop stays the ``fast=False``
        oracle."""
        def body(tc):
            yield tc.atomic_write("x", tc.tid, 1)

        names = ("interp.omp.regions_fast", "interp.omp.uniform_rounds",
                 "interp.omp.regions_reference")
        before = {name: counter_value(name) for name in names}
        with dispatch_disabled():
            result = OpenMP(quiet_cpu, n_threads=4, fast=True).parallel(
                body, shared={"x": np.zeros(4, np.int64)})
        delta = {name: counter_value(name) - before[name]
                 for name in names}
        assert delta["interp.omp.regions_fast"] == 1
        assert delta["interp.omp.uniform_rounds"] > 0
        assert delta["interp.omp.regions_reference"] == 0
        assert result.races == []

    def test_plain_reads_writes_with_barriers(self, quiet_cpu):
        def body(tc):
            for k in range(8):
                v = yield tc.read("a", tc.tid * 8 + k)
                yield tc.write("b", tc.tid * 8 + k, v * 2)
            yield tc.barrier()
            v = yield tc.read("b", (tc.tid + 1) % tc.n_threads * 8)
            yield tc.atomic_write("c", tc.tid, v)

        def make():
            return {"a": np.arange(32, dtype=np.int64),
                    "b": np.zeros(32, np.int64),
                    "c": np.zeros(4, np.int64)}

        _parallel_both(quiet_cpu, body, make)

    def test_locks_and_critical(self, quiet_cpu):
        def body(tc):
            yield tc.lock_acquire("l")
            v = yield tc.read("x", 0)
            yield tc.write("x", 0, v + 1)
            yield tc.lock_release("l")
            yield tc.critical(
                lambda mem: mem["x"].__setitem__(1, mem["x"][1] + 1),
                touches=(("x", 1, True),))

        result = _parallel_both(quiet_cpu, body,
                                lambda: {"x": np.zeros(2, np.int64)})
        assert result.memory["x"].tolist() == [4, 4]

    def test_single_and_flush(self, quiet_cpu):
        def body(tc):
            yield tc.single(lambda mem: mem["x"].__setitem__(0, 42),
                            touches=(("x", 0, True),))
            yield tc.flush()
            v = yield tc.read("x", 0)
            yield tc.atomic_write("out", tc.tid, v)

        result = _parallel_both(
            quiet_cpu, body,
            lambda: {"x": np.zeros(1, np.int64),
                     "out": np.zeros(4, np.int64)})
        assert result.memory["out"].tolist() == [42] * 4

    def test_atomic_capture_and_reads(self, quiet_cpu):
        def body(tc):
            old = yield tc.atomic_capture("ticket", 0, lambda v: v + 1)
            yield tc.atomic_write("order", int(old), tc.tid)
            v = yield tc.atomic_read("order", 0)
            yield tc.write("seen", tc.tid, v)

        _parallel_both(
            quiet_cpu, body,
            lambda: {"ticket": np.zeros(1, np.int64),
                     "order": np.zeros(4, np.int64),
                     "seen": np.zeros(4, np.int64)})

    def test_sequential_consistency_mode(self, quiet_cpu):
        """No store buffers: writes hit memory immediately on both
        paths."""
        def body(tc):
            yield tc.write("a", tc.tid, tc.tid + 1)
            yield tc.barrier()
            v = yield tc.read("a", (tc.tid + 1) % tc.n_threads)
            yield tc.write("b", tc.tid, v)

        _parallel_both(quiet_cpu, body,
                       lambda: {"a": np.zeros(4, np.int64),
                                "b": np.zeros(4, np.int64)},
                       relaxed_consistency=False)

    def test_jittery_preset_machine(self, system3_cpu):
        """Equivalence must hold on the paper's preset machines too, not
        just the zero-jitter test rig."""
        def body(tc):
            for k in range(10):
                yield tc.atomic_update("acc", 0, lambda v: v + 1)

        _parallel_both(system3_cpu, body,
                       lambda: {"acc": np.zeros(1, np.int64)})

    def test_step_budget_error_matches(self, quiet_cpu):
        def body(tc):
            while True:
                yield tc.atomic_update("x", 0, lambda v: v + 1)

        for fast in (True, False):
            omp = OpenMP(quiet_cpu, n_threads=2, detect_races=False,
                         max_steps=50, fast=fast)
            with pytest.raises(SimulationError, match="step budget"):
                omp.parallel(body, shared={"x": np.zeros(1, np.int64)})

    @pytest.mark.parametrize("case", sorted(_ERROR_CASES))
    def test_error_messages_match(self, quiet_cpu, case):
        """Each region error carries the same message on both settings
        (the uniform handlers raise the validation errors themselves)."""
        body, fragment = _ERROR_CASES[case]
        messages = []
        for fast in (True, False):
            omp = OpenMP(quiet_cpu, n_threads=4, detect_races=False,
                         fast=fast)
            with dispatch_disabled(), \
                    pytest.raises(SimulationError, match=fragment) as info:
                omp.parallel(body, shared={"x": np.zeros(4, np.int64)})
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("fast", [True, False])
    def test_round_counters_reconcile(self, quiet_cpu, fast):
        """Rounds count on both settings; every round of a fast=False
        region is a fallback round."""
        def body(tc):
            for k in range(6):
                yield tc.atomic_update("x", k % 4, lambda v: v + 1)
            yield tc.barrier()
            yield tc.lock_acquire("l")
            yield tc.lock_release("l")

        names = ("interp.omp.rounds", "interp.omp.uniform_rounds",
                 "interp.omp.fallback_rounds", "interp.omp.regions_fast",
                 "interp.omp.regions_reference")
        before = {name: counter_value(name) for name in names}
        with dispatch_disabled():
            OpenMP(quiet_cpu, n_threads=4, fast=fast).parallel(
                body, shared={"x": np.zeros(4, np.int64)})
        delta = {name[len("interp.omp."):]: counter_value(name) -
                 before[name] for name in names}
        assert delta["rounds"] > 0
        assert delta["uniform_rounds"] + delta["fallback_rounds"] == \
            delta["rounds"]
        assert (delta["uniform_rounds"] > 0) == fast
        assert delta["regions_fast" if fast else "regions_reference"] == 1
        assert delta["regions_reference" if fast else "regions_fast"] == 0


class TestCpuWorkloads:
    """CPU workloads, fast default vs reference engine."""

    @pytest.mark.parametrize("strategy", ["atomic", "privatized"])
    def test_histogram_matches_reference(self, quiet_cpu, strategy):
        data = (np.arange(256) * 271) % 16
        fast = cpu_histogram(quiet_cpu, data, 16, n_threads=4,
                             strategy=strategy, detect_races=False)
        with reference_engine():
            ref = cpu_histogram(quiet_cpu, data, 16, n_threads=4,
                                strategy=strategy, detect_races=False)
        assert ref.correct
        _assert_outcomes_equal(fast, ref)

    def test_prefix_sum_matches_reference(self, quiet_cpu):
        data = (np.arange(200) * 31) % 100
        fast = cpu_prefix_sum(quiet_cpu, data, n_threads=4,
                              detect_races=False)
        with reference_engine():
            ref = cpu_prefix_sum(quiet_cpu, data, n_threads=4,
                                 detect_races=False)
        assert ref.correct
        _assert_outcomes_equal(fast, ref)
