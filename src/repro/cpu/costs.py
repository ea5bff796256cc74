"""Per-primitive steady-state cost model for the CPU.

Each method prices one dynamic op (in nanoseconds, for the slowest
participating thread — the paper records the maximum runtime across
threads).  The trends of Section V-A arise from four mechanisms:

* **ALU path** — integer atomics complete faster than floating-point ones;
  word size (32 vs 64 bit) is free on 64-bit CPUs.
* **Line ownership migration** — atomics/stores to a shared variable pay a
  coherence transfer per contending core, saturating at a machine knee
  (the "largely stable beyond ~8 threads" plateau of Figs. 1, 2, 5).
* **False sharing** — ops on private array elements pay invalidation
  traffic per *other core* mapped to the same 64-byte line; the stride
  cliffs of Figs. 3 and 6 are produced by
  :class:`repro.mem.coherence.CoherenceModel` geometry.
* **Lock overhead** — critical sections wrap the update in an
  acquire/release pair whose contention grows faster than a bare atomic's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.common.datatypes import DataType
from repro.common.errors import ConfigurationError
from repro.compiler.ops import Op, PrimitiveKind
from repro.mem.cacheline import elements_per_line
from repro.mem.coherence import CoherenceModel
from repro.mem.layout import PrivateArrayElement, SharedScalar


@dataclass(frozen=True)
class CpuCostParams:
    """Calibration constants for one CPU's cost model (all in ns).

    The defaults are calibrated to System 3 (Threadripper 2950X) such that
    absolute throughputs land in the ranges the paper's figures show
    (atomics ~1e7..5e7 ops/s/thread, flush ~1e7..1e8, barrier ~1e5..1e6).

    Attributes:
        int_alu_ns: Uncontended integer atomic read-modify-write cost.
        fp_alu_ns: Uncontended floating-point atomic RMW cost.
        store_ns: Uncontended atomic store cost (dtype independent; 64-bit
            CPUs store 8 bytes in one transaction).
        plain_update_ns: Non-atomic RMW on an L1-resident private element
            (baseline scaffolding for the flush test).
        line_transfer_ns: Cache-to-cache transfer cost per contending core.
        contention_knee: Contending-core count beyond which per-thread cost
            stops growing (the plateau of Figs. 1/2/5).
        false_share_ns: Invalidation cost per other core on the same line.
        barrier_base_ns: Two-thread barrier latency.
        barrier_per_core_ns: Added barrier cost per extra core up to the knee.
        lock_overhead_ns: Critical-section acquire+release overhead.
        critical_transfer_ns: Lock-line transfer per contending core.
        critical_knee: Contention knee for the lock (higher than the atomic
            knee: the critical section keeps degrading longer, Fig. 5).
        flush_base_ns: Fence cost when no coherence traffic needs draining.
        flush_drain_ns: Drain cost per false-sharing partner.
        flush_oscillation: Relative amplitude of the odd/even-thread-count
            oscillation seen at partial padding (Fig. 6b/6c).
        capture_extra_ns: Extra cost of atomic capture over atomic update
            (measured "nearly identical" in the paper).
        numa_factor: Multiplier on coherence traffic when the contending
            cores span NUMA nodes (fully cross-node traffic costs this
            much more; every Table I system has 2 nodes).
    """

    int_alu_ns: float = 6.0
    fp_alu_ns: float = 12.0
    store_ns: float = 4.0
    plain_update_ns: float = 2.0
    line_transfer_ns: float = 14.0
    contention_knee: int = 7
    false_share_ns: float = 13.0
    barrier_base_ns: float = 800.0
    barrier_per_core_ns: float = 150.0
    lock_overhead_ns: float = 60.0
    critical_transfer_ns: float = 30.0
    critical_knee: int = 15
    flush_base_ns: float = 2.0
    flush_drain_ns: float = 8.0
    flush_oscillation: float = 0.25
    capture_extra_ns: float = 0.3
    numa_factor: float = 1.35

    def alu_ns(self, dtype: DataType) -> float:
        """Atomic arithmetic cost for a data type (word size is free)."""
        return self.int_alu_ns if dtype.is_integer else self.fp_alu_ns

    def with_overrides(self, **kwargs: float) -> "CpuCostParams":
        """Copy with some constants replaced (for ablations/calibration)."""
        return replace(self, **kwargs)


class CpuCostModel:
    """Prices CPU ops given a thread placement.

    Args:
        params: Calibration constants.
        coherence: Line-geometry model (64 B lines by default).
    """

    def __init__(self, params: CpuCostParams,
                 coherence: CoherenceModel | None = None) -> None:
        self.params = params
        self.coherence = coherence or CoherenceModel()

    def _numa_multiplier(self, n_threads: int,
                         core_placement: Mapping[int, object],
                         numa_placement: Mapping[int, int] | None) -> float:
        """Coherence-traffic multiplier for this placement: 1.0 when all
        contending cores share a NUMA node, up to ``numa_factor`` when the
        traffic is fully cross-node."""
        if not numa_placement:
            return 1.0
        nodes_by_core: dict[object, int] = {}
        for tid in range(n_threads):
            core = core_placement[tid]
            nodes_by_core.setdefault(core, numa_placement.get(tid, 0))
        if len(nodes_by_core) < 2:
            return 1.0
        counts: dict[int, int] = {}
        for node in nodes_by_core.values():
            counts[node] = counts.get(node, 0) + 1
        cross_fraction = 1.0 - max(counts.values()) / len(nodes_by_core)
        return 1.0 + (self.params.numa_factor - 1.0) * cross_fraction

    def op_cost_ns(self, op: Op, n_threads: int,
                   core_placement: Mapping[int, object],
                   numa_placement: Mapping[int, int] | None = None
                   ) -> float:
        """Deterministic steady-state cost (ns) of one dynamic op.

        Args:
            op: The op to price.
            n_threads: Participating thread count.
            core_placement: thread id -> physical-core key.
            numa_placement: thread id -> NUMA node; when given, coherence
                traffic between nodes is scaled by ``numa_factor``.

        Raises:
            ConfigurationError: for GPU-only op kinds.
        """
        numa = self._numa_multiplier(n_threads, core_placement,
                                     numa_placement)
        kind = op.kind
        if kind is PrimitiveKind.OMP_BARRIER:
            return self._barrier(n_threads, core_placement, numa)
        if kind is PrimitiveKind.OMP_ATOMIC_UPDATE:
            return self._atomic_rmw(op, n_threads, core_placement, numa)
        if kind is PrimitiveKind.OMP_ATOMIC_CAPTURE:
            return (self._atomic_rmw(op, n_threads, core_placement, numa)
                    + self.params.capture_extra_ns)
        if kind is PrimitiveKind.OMP_ATOMIC_WRITE:
            return self._atomic_write(op, n_threads, core_placement, numa)
        if kind is PrimitiveKind.OMP_ATOMIC_READ:
            # Same cost as a plain read: the paper found no performance
            # penalty for reading atomically (Section V-A2), so the
            # contrast spec (atomic read vs plain read) measures ~zero.
            return 0.5
        if kind is PrimitiveKind.OMP_CRITICAL_UPDATE:
            return self._critical(op, n_threads, core_placement, numa)
        if kind is PrimitiveKind.OMP_LOCK_ACQUIRE:
            # Acquiring a contended lock waits behind other cores' lock
            # round-trips, like the critical section (which OpenMP builds
            # from exactly this mechanism, §II-A3).
            contenders = self._shared_contention(
                n_threads, core_placement, self.params.critical_knee)
            return (self.params.lock_overhead_ns / 2) * (contenders + 1) \
                + self.params.critical_transfer_ns * contenders
        if kind is PrimitiveKind.OMP_LOCK_RELEASE:
            return self.params.lock_overhead_ns / 2
        if kind is PrimitiveKind.OMP_FLUSH:
            return self._flush(op, n_threads, core_placement, numa)
        if kind is PrimitiveKind.PLAIN_UPDATE:
            return self._plain_update(op, n_threads, core_placement, numa)
        if kind is PrimitiveKind.PLAIN_READ:
            return 0.5
        raise ConfigurationError(f"{kind} is not a CPU primitive")

    # ------------------------------------------------------------------ #

    def _contending_cores(self, n_threads: int,
                          core_placement: Mapping[int, object]) -> int:
        return self.coherence.contending_cores(n_threads, core_placement)

    def _shared_contention(self, n_threads: int,
                           core_placement: Mapping[int, object],
                           knee: int) -> int:
        """Effective number of other cores an op on a shared scalar waits
        for: line ownership migrates core to core, saturating at the knee
        (the plateau of Figs. 1/2/5)."""
        cores = self._contending_cores(n_threads, core_placement)
        return min(max(cores - 1, 0), knee)

    def _false_sharing_ns(self, op: Op, n_threads: int,
                          core_placement: Mapping[int, object],
                          numa: float) -> float:
        assert isinstance(op.target, PrivateArrayElement)
        partners = self.coherence.max_false_sharing_partners(
            op.target, n_threads, core_placement)
        return self.params.false_share_ns * partners * numa

    def _barrier(self, n_threads: int,
                 core_placement: Mapping[int, object],
                 numa: float) -> float:
        p = self.params
        cores = self._contending_cores(n_threads, core_placement)
        return (p.barrier_base_ns
                + p.barrier_per_core_ns * min(max(cores - 1, 0),
                                              p.contention_knee) * numa)

    def _atomic_rmw(self, op: Op, n_threads: int,
                    core_placement: Mapping[int, object],
                    numa: float) -> float:
        p = self.params
        if op.dtype is None or op.target is None:
            raise ConfigurationError("atomic update needs dtype and target")
        alu = p.alu_ns(op.dtype)
        if isinstance(op.target, SharedScalar):
            # While waiting for the line, a thread sits behind the other
            # cores' complete operations (arithmetic included), so the
            # integer/floating-point gap persists under contention.
            contenders = self._shared_contention(n_threads, core_placement,
                                                 p.contention_knee)
            return alu * (contenders + 1) \
                + p.line_transfer_ns * contenders * numa
        return alu + self._false_sharing_ns(op, n_threads, core_placement,
                                           numa)

    def _atomic_write(self, op: Op, n_threads: int,
                      core_placement: Mapping[int, object],
                      numa: float) -> float:
        # No arithmetic: dtype and word size are irrelevant (Fig. 4).
        p = self.params
        if op.target is None:
            raise ConfigurationError("atomic write needs a target")
        if isinstance(op.target, SharedScalar):
            contenders = self._shared_contention(n_threads, core_placement,
                                                 p.contention_knee)
            return p.store_ns * (contenders + 1) \
                + p.line_transfer_ns * contenders * numa
        return p.store_ns + self._false_sharing_ns(op, n_threads,
                                                   core_placement, numa)

    def _critical(self, op: Op, n_threads: int,
                  core_placement: Mapping[int, object],
                  numa: float) -> float:
        p = self.params
        if op.dtype is None:
            raise ConfigurationError("critical update needs a dtype")
        # Waiters serialize behind full lock acquire/op/release rounds, so
        # the decline is steeper and the plateau lower than a bare atomic's
        # (Fig. 5), and it keeps degrading longer (higher knee).
        contenders = self._shared_contention(n_threads, core_placement,
                                             p.critical_knee)
        return ((p.lock_overhead_ns + p.alu_ns(op.dtype)) * (contenders + 1)
                + p.critical_transfer_ns * contenders * numa)

    def _flush(self, op: Op, n_threads: int,
               core_placement: Mapping[int, object],
               numa: float) -> float:
        """Fence cost: drain outstanding coherence traffic.

        Without false sharing the store buffers hold only L1-resident
        private lines and the flush is nearly free (Fig. 6d).  With false
        sharing the fence must wait for in-flight invalidations, one per
        partner core; partially padded strides additionally oscillate with
        thread-count parity as line ownership alternates (Fig. 6b/6c).
        """
        p = self.params
        if not isinstance(op.target, PrivateArrayElement):
            # A bare flush with no surrounding array accesses to order.
            return p.flush_base_ns
        partners = self.coherence.max_false_sharing_partners(
            op.target, n_threads, core_placement)
        if partners == 0:
            return p.flush_base_ns
        drain = p.flush_drain_ns * partners * numa
        cost = p.flush_base_ns + drain
        epl = elements_per_line(self.coherence.geometry, op.target)
        partially_padded = op.target.stride > 1 and epl > 1
        if partially_padded:
            parity = 1.0 if n_threads % 2 else -1.0
            cost += parity * p.flush_oscillation * drain
        return max(cost, p.flush_base_ns)

    def _plain_update(self, op: Op, n_threads: int,
                      core_placement: Mapping[int, object],
                      numa: float) -> float:
        """Non-atomic RMW on a private element: pays false sharing but no
        atomicity overhead (the flush test's scaffolding)."""
        p = self.params
        cost = p.plain_update_ns
        if isinstance(op.target, PrivateArrayElement):
            cost += 0.5 * self._false_sharing_ns(op, n_threads,
                                                 core_placement, numa)
        return cost
