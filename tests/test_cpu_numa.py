"""Tests for NUMA-aware coherence costing."""

import pytest

from repro.common.datatypes import INT
from repro.compiler.ops import PrimitiveKind, op_atomic, op_barrier
from repro.cpu.affinity import Affinity
from repro.cpu.costs import CpuCostModel, CpuCostParams
from repro.cpu.jitter import JitterModel
from repro.cpu.machine import CpuMachine
from repro.cpu.topology import CpuTopology
from repro.mem.layout import PrivateArrayElement, SharedScalar

MODEL = CpuCostModel(CpuCostParams())
OP = op_atomic(PrimitiveKind.OMP_ATOMIC_UPDATE, INT, SharedScalar(INT))


def cores(n):
    return {tid: ("s", tid) for tid in range(n)}


def two_socket_machine():
    return CpuMachine(
        CpuTopology(name="numa", sockets=2, cores_per_socket=8,
                    threads_per_core=2, numa_nodes=2, base_clock_ghz=3.0),
        CpuCostParams(),
        JitterModel(rel_sigma=0.0, abs_sigma_ns=0.0, ht_rel_sigma=0.0,
                    spike_prob=0.0))


class TestNumaMultiplier:
    def test_no_numa_info_means_no_penalty(self):
        same = MODEL.op_cost_ns(OP, 8, cores(8))
        explicit = MODEL.op_cost_ns(OP, 8, cores(8),
                                    {tid: 0 for tid in range(8)})
        assert same == explicit

    def test_single_node_placement_unpenalized(self):
        one_node = MODEL.op_cost_ns(OP, 8, cores(8),
                                    {tid: 0 for tid in range(8)})
        assert one_node == MODEL.op_cost_ns(OP, 8, cores(8))

    def test_cross_node_placement_costs_more(self):
        split = {tid: tid % 2 for tid in range(8)}
        same = MODEL.op_cost_ns(OP, 8, cores(8),
                                {tid: 0 for tid in range(8)})
        crossed = MODEL.op_cost_ns(OP, 8, cores(8), split)
        assert crossed > same

    def test_penalty_bounded_by_numa_factor(self):
        split = {tid: tid % 2 for tid in range(8)}
        same = MODEL.op_cost_ns(OP, 8, cores(8),
                                {tid: 0 for tid in range(8)})
        crossed = MODEL.op_cost_ns(OP, 8, cores(8), split)
        assert crossed <= same * CpuCostParams().numa_factor

    def test_arithmetic_term_not_scaled(self):
        """NUMA multiplies traffic, not the ALU: the uncontended part of
        the cost is node-independent."""
        params = CpuCostParams(line_transfer_ns=0.0)
        model = CpuCostModel(params)
        split = {tid: tid % 2 for tid in range(8)}
        assert model.op_cost_ns(OP, 8, cores(8), split) == \
            model.op_cost_ns(OP, 8, cores(8))

    def test_pricing_leaves_the_model_unchanged(self):
        """The cost-model memo shares one model across contexts, so
        pricing may keep no per-call state on it."""
        model = CpuCostModel(CpuCostParams())
        before = dict(vars(model))
        split = {tid: tid % 2 for tid in range(8)}
        for op in (OP, op_barrier(),
                   op_atomic(PrimitiveKind.OMP_ATOMIC_UPDATE, INT,
                             PrivateArrayElement(INT, 1))):
            model.op_cost_ns(op, 8, cores(8), split)
        assert vars(model) == before


class TestMachineLevel:
    def test_context_carries_numa_nodes(self):
        machine = two_socket_machine()
        ctx = machine.context(4, Affinity.SPREAD)
        # Spread alternates sockets: both nodes present.
        assert set(ctx.numa_keys.values()) == {0, 1}

    def test_spread_barrier_costs_more_than_close(self):
        """Spread placement crosses sockets immediately; close keeps the
        first threads on one node, so its coherence traffic is cheaper."""
        machine = two_socket_machine()
        spread = machine.op_cost(op_barrier(),
                                 machine.context(4, Affinity.SPREAD))
        close = machine.op_cost(op_barrier(),
                                machine.context(4, Affinity.CLOSE))
        assert spread > close

    def test_full_machine_equalizes_affinities(self):
        """With every core active both policies span both nodes alike."""
        machine = two_socket_machine()
        spread = machine.op_cost(OP, machine.context(16, Affinity.SPREAD))
        close = machine.op_cost(OP, machine.context(16, Affinity.CLOSE))
        assert spread == pytest.approx(close)
