"""Shared fixtures: machines, quick protocols, mini devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import MeasurementProtocol
from repro.cpu.costs import CpuCostParams
from repro.cpu.jitter import JitterModel
from repro.cpu.machine import CpuMachine
from repro.cpu.presets import SYSTEM1_CPU, SYSTEM2_CPU, SYSTEM3_CPU
from repro.cpu.topology import CpuTopology
from repro.gpu.costs import GpuCostParams
from repro.gpu.device import GpuDevice
from repro.gpu.presets import SYSTEM1_GPU, SYSTEM2_GPU, SYSTEM3_GPU
from repro.gpu.spec import GpuSpec


@pytest.fixture
def system3_cpu() -> CpuMachine:
    """The paper's default CPU (Threadripper 2950X)."""
    return SYSTEM3_CPU


@pytest.fixture
def system2_cpu() -> CpuMachine:
    return SYSTEM2_CPU


@pytest.fixture
def system1_cpu() -> CpuMachine:
    return SYSTEM1_CPU


@pytest.fixture
def system3_gpu() -> GpuDevice:
    """The paper's default GPU (RTX 4090)."""
    return SYSTEM3_GPU


@pytest.fixture
def system2_gpu() -> GpuDevice:
    return SYSTEM2_GPU


@pytest.fixture
def system1_gpu() -> GpuDevice:
    return SYSTEM1_GPU


@pytest.fixture
def quiet_cpu() -> CpuMachine:
    """A CPU with zero jitter, for deterministic cost assertions."""
    topology = CpuTopology(name="quiet", sockets=1, cores_per_socket=8,
                           threads_per_core=2, numa_nodes=1,
                           base_clock_ghz=3.0)
    jitter = JitterModel(rel_sigma=0.0, abs_sigma_ns=0.0, ht_rel_sigma=0.0,
                         spike_prob=0.0)
    return CpuMachine(topology, CpuCostParams(), jitter)


@pytest.fixture
def mini_gpu() -> GpuDevice:
    """A small RTX-4090-like device for fast functional simulation."""
    return GpuDevice(GpuSpec(
        name="mini-4090", compute_capability=8.9, clock_ghz=2.0,
        sm_count=4, max_threads_per_sm=1536, cuda_cores_per_sm=128,
        memory_gb=4, full_speed_threads_per_sm=256,
    ), GpuCostParams())


@pytest.fixture
def quick_protocol() -> MeasurementProtocol:
    """Cheaper protocol for tests that only care about plumbing."""
    return MeasurementProtocol(n_runs=3, max_attempts=3, n_iter=10,
                               unroll=4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def cached_experiment():
    """Session-scoped experiment payload cache keyed (id, seed, scenario).

    Several suites re-run the same full experiment — the claims
    acceptance suite, the reduction-ordering tests, golden-corpus
    checks.  Payloads are pure functions of (experiment id, protocol
    seed, fault scenario), so one run per key serves every consumer.
    Callers must treat payloads as read-only.
    """
    from repro.experiments.registry import EXPERIMENTS
    from repro.faults.scenario import use_faults

    cache: dict = {}

    def run(exp_id: str, seed: int = 0, scenario=None):
        key = (exp_id, seed, scenario)
        if key not in cache:
            protocol = None if seed == 0 else MeasurementProtocol(
                seed=seed)
            with use_faults(scenario):
                cache[key] = EXPERIMENTS[exp_id].run(protocol)
        return cache[key]

    return run
