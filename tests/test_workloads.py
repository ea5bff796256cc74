"""Tests for the workload gallery."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, DataRaceError
from repro.obs.metrics import counter_value
from repro.workloads.bfs import gpu_bfs, random_graph
from repro.workloads.custom_barrier import compare_barriers
from repro.workloads.histogram import cpu_histogram, gpu_histogram
from repro.workloads.pipeline import cpu_pipeline
from repro.workloads.prefix_sum import cpu_prefix_sum, \
    gpu_block_prefix_sum
from repro.workloads.sort import gpu_bitonic_sort
from repro.workloads.stencil import cpu_jacobi


@pytest.fixture
def data(rng):
    return rng.integers(0, 8, size=512).astype(np.int64)


class TestCpuHistogram:
    @pytest.mark.parametrize("strategy", ["atomic", "privatized"])
    def test_correct(self, quiet_cpu, data, strategy):
        outcome = cpu_histogram(quiet_cpu, data, n_bins=8,
                                strategy=strategy)
        assert outcome.correct
        assert outcome.bins.sum() == data.size

    def test_privatized_faster_than_atomic(self, quiet_cpu, data):
        atomic = cpu_histogram(quiet_cpu, data, 8, strategy="atomic")
        private = cpu_histogram(quiet_cpu, data, 8, strategy="privatized")
        assert private.elapsed < atomic.elapsed

    def test_empty_data(self, quiet_cpu):
        outcome = cpu_histogram(quiet_cpu, np.zeros(0, np.int64), 4)
        assert outcome.correct
        assert outcome.bins.sum() == 0

    def test_out_of_range_rejected(self, quiet_cpu):
        with pytest.raises(ConfigurationError):
            cpu_histogram(quiet_cpu, np.array([9], np.int64), n_bins=4)

    def test_unknown_strategy_rejected(self, quiet_cpu, data):
        with pytest.raises(ConfigurationError):
            cpu_histogram(quiet_cpu, data, 8, strategy="magic")


class TestGpuHistogram:
    @pytest.mark.parametrize("strategy", ["global", "shared"])
    def test_correct(self, mini_gpu, data, strategy):
        outcome = gpu_histogram(mini_gpu, data, n_bins=8,
                                strategy=strategy)
        assert outcome.correct

    def test_shared_bins_beat_global_bins(self, mini_gpu, rng):
        # Few bins, many elements: global atomics serialize hard.
        data = rng.integers(0, 4, size=2048).astype(np.int64)
        global_ = gpu_histogram(mini_gpu, data, 4, strategy="global")
        shared = gpu_histogram(mini_gpu, data, 4, strategy="shared")
        assert shared.elapsed < global_.elapsed

    def test_non_multiple_of_block(self, mini_gpu, rng):
        data = rng.integers(0, 8, size=777).astype(np.int64)
        assert gpu_histogram(mini_gpu, data, 8).correct


class TestPrefixSum:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 100, 256])
    def test_gpu_block_scan(self, mini_gpu, rng, n):
        data = rng.integers(-50, 50, size=n)
        outcome = gpu_block_prefix_sum(mini_gpu, data)
        assert outcome.correct

    def test_gpu_scan_size_limit(self, mini_gpu):
        with pytest.raises(ConfigurationError):
            gpu_block_prefix_sum(mini_gpu, np.zeros(1025, np.int64))

    @pytest.mark.parametrize("n", [1, 7, 64, 257])
    def test_cpu_two_level_scan(self, quiet_cpu, rng, n):
        data = rng.integers(-50, 50, size=n)
        outcome = cpu_prefix_sum(quiet_cpu, data)
        assert outcome.correct

    def test_cpu_scan_more_threads_than_elements(self, quiet_cpu):
        outcome = cpu_prefix_sum(quiet_cpu, np.array([5]), n_threads=4)
        assert outcome.correct


class TestStencil:
    def test_jacobi_matches_reference(self, quiet_cpu, rng):
        data = rng.normal(size=64)
        outcome = cpu_jacobi(quiet_cpu, data, iterations=5)
        assert outcome.correct

    def test_single_iteration(self, quiet_cpu, rng):
        outcome = cpu_jacobi(quiet_cpu, rng.normal(size=32), iterations=1)
        assert outcome.correct

    def test_unsafe_version_races(self, quiet_cpu, rng):
        # Dropping the barrier between compute and swap is a data race.
        with pytest.raises(DataRaceError):
            cpu_jacobi(quiet_cpu, rng.normal(size=32), iterations=2,
                       unsafe=True)


class TestPipeline:
    def test_all_items_consumed_exactly_once(self, quiet_cpu):
        outcome = cpu_pipeline(quiet_cpu, items_per_producer=10,
                               n_threads=4, queue_slots=3)
        assert outcome.correct
        assert outcome.consumed_sum == outcome.expected_sum

    def test_tiny_queue_still_correct(self, quiet_cpu):
        outcome = cpu_pipeline(quiet_cpu, items_per_producer=6,
                               n_threads=2, queue_slots=1)
        assert outcome.correct

    def test_odd_team_rejected(self, quiet_cpu):
        with pytest.raises(ConfigurationError):
            cpu_pipeline(quiet_cpu, n_threads=3)

    def test_empty_queue_rejected(self, quiet_cpu):
        with pytest.raises(ConfigurationError):
            cpu_pipeline(quiet_cpu, queue_slots=0)


class TestBfs:
    def test_ring_graph_distances(self, mini_gpu):
        row_ptr, cols = random_graph(16, avg_degree=1, seed=0)
        outcome = gpu_bfs(mini_gpu, row_ptr, cols, source=0)
        assert outcome.correct
        # A directed ring: vertex k is k hops away.
        assert outcome.distances.tolist() == list(range(16))

    def test_random_graph_matches_reference(self, mini_gpu):
        row_ptr, cols = random_graph(48, avg_degree=3, seed=7)
        outcome = gpu_bfs(mini_gpu, row_ptr, cols, source=5)
        assert outcome.correct
        assert outcome.levels >= 1

    def test_every_vertex_reached_once(self, mini_gpu):
        row_ptr, cols = random_graph(32, avg_degree=4, seed=2)
        outcome = gpu_bfs(mini_gpu, row_ptr, cols)
        assert (outcome.distances >= 0).all()  # ring keeps it connected

    def test_bad_source_rejected(self, mini_gpu):
        row_ptr, cols = random_graph(8)
        with pytest.raises(ConfigurationError):
            gpu_bfs(mini_gpu, row_ptr, cols, source=99)

    def test_malformed_csr_rejected(self, mini_gpu):
        with pytest.raises(ConfigurationError):
            gpu_bfs(mini_gpu, np.array([0, 5], np.int64),
                    np.array([0], np.int64))


_ENGAGEMENT = ("dispatch.hit", "dispatch.miss", "dispatch.fallback",
               "interp.cuda.passes", "interp.omp.rounds")


def _repeat(run):
    """Run ``run`` twice; returns both outcomes and the counter deltas
    of the second run."""
    first = run()
    before = {name: counter_value(name) for name in _ENGAGEMENT}
    second = run()
    return first, second, {name: counter_value(name) - value
                           for name, value in before.items()}


class TestRepeatReplays:
    """An identical repeat of a gallery workload is served from the
    dispatcher's content replay: no interpreter pass or round runs, and
    the outcome, timeline-derived fields included, is unchanged."""

    def test_traced_bitonic_sort_replays(self, mini_gpu):
        data = np.random.default_rng(11).integers(-500, 500, 256)
        first, second, d = _repeat(
            lambda: gpu_bitonic_sort(mini_gpu, data.copy(), trace=True))
        assert d["dispatch.hit"] == 1 and d["dispatch.miss"] == 0
        assert d["interp.cuda.passes"] == 0
        assert second.barrier_share is not None
        assert second.barrier_share == first.barrier_share
        assert second.elapsed == first.elapsed
        assert (second.values == first.values).all() and second.correct

    @pytest.mark.parametrize("strategy", ["atomic", "privatized"])
    def test_cpu_histogram_replays(self, system3_cpu, strategy):
        data = np.random.default_rng(12).integers(0, 8, size=512)
        first, second, d = _repeat(lambda: cpu_histogram(
            system3_cpu, data.copy(), 8, strategy=strategy))
        assert d["dispatch.hit"] == 1 and d["dispatch.miss"] == 0
        assert d["dispatch.fallback"] == 0
        assert d["interp.omp.rounds"] == 0
        assert second.elapsed == first.elapsed
        assert (second.bins == first.bins).all() and second.correct

    @pytest.mark.parametrize("strategy,elapsed",
                             [("atomic", 39226.0), ("privatized", 4348.0)])
    def test_cpu_histogram_elapsed_pinned(self, system3_cpu, strategy,
                                          elapsed):
        """The per-thread slices are the same request stream as before
        they became read-only closure cells."""
        data = np.random.default_rng(5).integers(0, 8, size=2048)
        outcome = cpu_histogram(system3_cpu, data, 8, strategy=strategy)
        assert outcome.elapsed == elapsed
        assert outcome.correct

    def test_custom_barrier_body_falls_back(self, system3_cpu):
        """The custom body appends to a Python list, a real side effect
        replay would skip; only the native body is keyed."""
        first, second, d = _repeat(
            lambda: compare_barriers(system3_cpu, n_threads=4, rounds=2))
        assert d["dispatch.fallback"] == 1
        assert d["dispatch.hit"] == 1
        assert d["interp.omp.rounds"] > 0
        assert second == first and second.correct
