"""Tests for the five Listing 1 reductions."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.compiler.dispatcher import DISPATCHER
from repro.compiler.lift import kernel_purity
from repro.core.engine import reference_engine
from repro.obs.metrics import counter_value
from repro.reductions import (
    REDUCTION_NAMES,
    compare_reductions,
    make_reduction,
    run_reduction,
)
from repro.reductions.kernels import INT_MIN


@pytest.fixture
def data(rng):
    return rng.integers(-10 ** 6, 10 ** 6, size=4096).astype(np.int32)


class TestCorrectness:
    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_computes_max(self, name, mini_gpu, data):
        outcome = run_reduction(name, mini_gpu, data, block_threads=64)
        assert outcome.correct
        assert outcome.value == int(data.max())

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_handles_non_multiple_of_block(self, name, mini_gpu, rng):
        data = rng.integers(-100, 100, size=1000).astype(np.int32)
        outcome = run_reduction(name, mini_gpu, data, block_threads=64)
        assert outcome.correct

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_all_negative_input(self, name, mini_gpu):
        data = np.array([-5, -2, -9, -2 ** 30], dtype=np.int32)
        outcome = run_reduction(name, mini_gpu, data, block_threads=32)
        assert outcome.value == -2

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_single_element(self, name, mini_gpu):
        data = np.array([42], dtype=np.int32)
        outcome = run_reduction(name, mini_gpu, data, block_threads=32)
        assert outcome.value == 42

    def test_int_min_identity(self):
        assert INT_MIN == -(2 ** 31)


class TestValidation:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown reduction"):
            make_reduction("reduction9", 100)

    def test_empty_data_rejected(self, mini_gpu):
        with pytest.raises(ConfigurationError, match="empty"):
            run_reduction("reduction1", mini_gpu,
                          np.array([], dtype=np.int32))

    def test_wrong_dtype_rejected(self, mini_gpu):
        with pytest.raises(ConfigurationError, match="int"):
            run_reduction("reduction1", mini_gpu,
                          np.zeros(8, dtype=np.float32))


class TestLaunchShapes:
    def test_one_thread_per_element_for_r1_to_r4(self, mini_gpu, data):
        for name in REDUCTION_NAMES[:4]:
            outcome = run_reduction(name, mini_gpu, data, block_threads=64)
            assert outcome.launch.grid_blocks == -(-data.size // 64)

    def test_persistent_grid_for_r5(self, mini_gpu, data):
        outcome = run_reduction("reduction5", mini_gpu, data,
                                block_threads=64)
        assert outcome.launch.grid_blocks <= 2 * mini_gpu.spec.sm_count


class TestOperationCounts:
    """The structural facts §II-C argues from."""

    def test_r1_one_global_atomic_per_element(self, mini_gpu, data):
        outcome = run_reduction("reduction1", mini_gpu, data, 64)
        assert outcome.stats.global_atomics == data.size

    def test_r2_one_global_atomic_per_warp(self, mini_gpu, data):
        outcome = run_reduction("reduction2", mini_gpu, data, 64)
        assert outcome.stats.global_atomics == data.size // 32

    def test_r3_one_global_atomic_per_block(self, mini_gpu, data):
        outcome = run_reduction("reduction3", mini_gpu, data, 64)
        assert outcome.stats.global_atomics == outcome.launch.grid_blocks
        assert outcome.stats.block_atomics == data.size

    def test_r4_fewer_block_atomics_than_r3(self, mini_gpu, data):
        r3 = run_reduction("reduction3", mini_gpu, data, 64)
        r4 = run_reduction("reduction4", mini_gpu, data, 64)
        assert r4.stats.block_atomics < r3.stats.block_atomics

    def test_r5_fewest_global_atomics(self, mini_gpu, data):
        outcomes = compare_reductions(mini_gpu, data, 64)
        globals_ = {k: v.stats.global_atomics for k, v in outcomes.items()}
        assert globals_["reduction5"] == min(globals_.values())


class TestPaperOrdering:
    # Both tests read the canonical listing1 run (the listing-scale
    # device over 16K elements) from the session-scoped experiment
    # cache instead of re-simulating all five reductions per test —
    # the claims suite runs the identical configuration anyway.

    def test_listing1_performance_ordering(self, cached_experiment):
        outcomes = cached_experiment("listing1")
        cycles = {k: v.elapsed_cycles for k, v in outcomes.items()}
        # §II-C: "Reduction 3 is the fastest, followed by Reduction 4,
        # then Reduction 1, and Reduction 2 is the slowest."
        assert cycles["reduction3"] < cycles["reduction4"] < \
            cycles["reduction1"] < cycles["reduction2"]
        # "Reduction 5 ... outperforms all four shown versions."
        assert cycles["reduction5"] == min(cycles.values())

    def test_r5_roughly_2_5x_faster_than_r2(self, cached_experiment):
        # The paper's "about 2.5x" holds at the input/device scale the
        # listing1 experiment uses (8 mini SMs, 16K elements).
        outcomes = cached_experiment("listing1")
        ratio = outcomes["reduction2"].elapsed_cycles / \
            outcomes["reduction5"].elapsed_cycles
        assert 1.8 <= ratio <= 3.5


class TestListing1Dispatch:
    """Listing 1's kernels are dispatch-eligible: a repeat pass on
    identical input is served from tier-0 replay, byte-identically."""

    def test_all_five_kernels_are_pure(self):
        for name in REDUCTION_NAMES:
            ok, reason = kernel_purity(make_reduction(name, 4096))
            assert ok, f"{name}: {reason}"

    def test_repeat_pass_replays_byte_identically(self, mini_gpu, data):
        DISPATCHER.clear()
        misses = counter_value("dispatch.miss")
        fresh = compare_reductions(mini_gpu, data.copy(), block_threads=64)
        assert counter_value("dispatch.miss") - misses == 5, \
            "every first-pass launch must be keyed (and miss)"
        hits = counter_value("dispatch.hit")
        repeat = compare_reductions(mini_gpu, data.copy(),
                                    block_threads=64)
        assert counter_value("dispatch.hit") - hits == 5
        with reference_engine():
            ref = compare_reductions(mini_gpu, data.copy(),
                                     block_threads=64)
        for name in REDUCTION_NAMES:
            for got in (fresh[name], repeat[name]):
                assert got.value == ref[name].value, name
                assert got.elapsed_cycles == ref[name].elapsed_cycles, name
                assert got.stats == ref[name].stats, name
