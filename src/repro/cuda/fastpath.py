"""Uniform-pass handlers for the CUDA block scheduler.

:meth:`repro.cuda.interpreter.Cuda._run_block` gathers one request per
running lane of a warp per pass.  In every shipped kernel the lanes of
a warp almost always yield the *same* request class in a pass (that is
what SIMT means).  On a batched runtime (``fast`` and no race detector)
such a **uniform pass** goes to the handler registered for its class in
:data:`UNIFORM_HANDLERS`, which executes it as one operation over the
whole warp:

* memory traffic goes through one numpy gather/scatter over cached flat
  views instead of one scalar load/store per lane,
* the pass cost is folded once, through the device's memoized prices
  (:meth:`GpuDevice.op_cost`, :meth:`GpuDevice.atomic_issue_cost`), and
* atomics on all-distinct addresses run as one vectorized update;
  colliding ones apply :meth:`repro.cuda.requests.AtomicRmw.apply` lane
  by lane, as the scalar semantics do.

A handler returns ``(cost, label)``, or ``None`` to decline the pass:
divergence in variable or scope, or an error case whose exact exception
the scalar pass semantics (:meth:`Cuda._process_gathered`) must raise.
Declined and mixed-class passes run those scalar semantics, so every
error message, stat, cost and trace label matches a ``fast=False``
launch.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.ops import Scope
from repro.gpu.device import GpuRunContext
from repro.cuda import requests as rq
from repro.cuda.interpreter import (
    _BARRIER_KIND_OF,
    _COLLECTIVE_KIND_OF,
    _SYNCWARP_OP,
    _LaneState,
    LaunchStats,
)


class UniformPasses:
    """The state one block's uniform-pass handlers share."""

    __slots__ = ("cuda", "ctx", "memory", "shared", "stats",
                 "issuing_warps", "resident_blocks", "params", "flats")

    def __init__(self, cuda, ctx: GpuRunContext,
                 memory: dict[str, np.ndarray],
                 shared: dict[str, np.ndarray], stats: LaunchStats,
                 issuing_warps: dict[tuple[type, str], set[int]],
                 resident_blocks: int) -> None:
        self.cuda = cuda
        self.ctx = ctx
        self.memory = memory
        self.shared = shared
        self.stats = stats
        self.issuing_warps = issuing_warps
        self.resident_blocks = resident_blocks
        self.params = cuda.device.params
        # Flat views of each (global, shared) variable: ``reshape(-1)``
        # allocates a fresh view per call, and the memory dicts are
        # never re-keyed mid-launch.
        self.flats: tuple[dict[str, np.ndarray], ...] = ({}, {})

    def _target(self, reqs, in_shared: bool):
        """``(flat view, indices)`` when every request of the pass
        touches one declared variable in bounds, else None."""
        var = reqs[0].var
        flats = self.flats[in_shared]
        flat = flats.get(var)
        if flat is None:
            arr = (self.shared if in_shared else self.memory).get(var)
            if arr is None:
                return None
            flat = flats[var] = arr.reshape(-1)
        for r in reqs:
            if r.var != var:
                return None
        idx = [r.idx for r in reqs]
        if min(idx) < 0 or max(idx) >= flat.size:
            return None
        return flat, idx

    def _global_cost(self, flat: np.ndarray, idx: list[int]) -> float:
        """One global transaction, plus one per extra 32-byte sector."""
        itemsize = flat.itemsize
        sectors = len({i * itemsize // 32 for i in idx})
        cost = self.params.global_load_cycles
        if sectors > 1:
            cost += self.params.uncoalesced_penalty_cycles * (sectors - 1)
        return cost

    # Handlers: ``(warp_id, lanes, glanes, reqs)`` are the warp's id,
    # all its lanes, and the pass's gathered lanes with their requests
    # (parallel lists, every request of one class).

    def alu(self, warp_id, lanes, glanes, reqs):
        """The widest ``Alu`` of the pass."""
        return self.params.alu_cycles * max([r.n for r in reqs]), "Alu"

    def global_read(self, warp_id, lanes, glanes, reqs):
        """One gather from a global array, priced by the sectors touched."""
        target = self._target(reqs, False)
        if target is None:
            return None
        flat, idx = target
        self.stats.global_accesses += len(idx)
        for lane, value in zip(glanes, flat.take(idx).tolist()):
            lane.pending = value
        return self._global_cost(flat, idx), "GlobalRead"

    def global_write(self, warp_id, lanes, glanes, reqs):
        """One scatter to a global array, priced by the sectors touched."""
        target = self._target(reqs, False)
        if target is None:
            return None
        flat, idx = target
        self.stats.global_accesses += len(idx)
        _store(flat, idx, reqs)
        return self._global_cost(flat, idx), "GlobalWrite"

    def shared_read(self, warp_id, lanes, glanes, reqs):
        """One gather from a shared array."""
        target = self._target(reqs, True)
        if target is None:
            return None
        flat, idx = target
        self.stats.shared_accesses += len(idx)
        for lane, value in zip(glanes, flat.take(idx).tolist()):
            lane.pending = value
        return self.params.alu_cycles, "SharedRead"

    def shared_write(self, warp_id, lanes, glanes, reqs):
        """One scatter to a shared array."""
        target = self._target(reqs, True)
        if target is None:
            return None
        flat, idx = target
        self.stats.shared_accesses += len(idx)
        _store(flat, idx, reqs)
        return self.params.alu_cycles, "SharedWrite"

    def syncwarp(self, warp_id, lanes, glanes, reqs):
        """``__syncwarp()`` across the warp."""
        self.stats.syncwarps += len(reqs)
        return self.cuda.device.op_cost(_SYNCWARP_OP, self.ctx), "Syncwarp"

    def threadfence(self, warp_id, lanes, glanes, reqs):
        """Fences of the pass, priced by the most expensive scope."""
        self.stats.fences += len(reqs)
        op_cost = self.cuda.device.op_cost
        return max([op_cost(rq.FENCE_OP_OF[r.scope], self.ctx)
                    for r in reqs]), "Threadfence"

    def activemask(self, warp_id, lanes, glanes, reqs):
        """The mask of the warp's unfinished lanes, to every lane."""
        mask = 0
        for other in lanes:
            if other.state is not _LaneState.DONE:
                mask |= 1 << other.lane_id
        for lane in glanes:
            lane.pending = mask
        return self.params.alu_cycles, "Activemask"

    def barrier(self, warp_id, lanes, glanes, reqs):
        """Park the lanes at a block barrier (released by the scheduler)."""
        for lane, r in zip(glanes, reqs):
            lane.state = _LaneState.BARRIER
            lane.barrier_request = r
        return 0.0, ""

    def collective(self, warp_id, lanes, glanes, reqs):
        """Park the lanes at a warp collective (run by the scheduler)."""
        for lane, r in zip(glanes, reqs):
            lane.state = _LaneState.COLLECTIVE
            lane.collective = r
        return 0.0, ""

    def atomic(self, warp_id, lanes, glanes, reqs):
        """Atomics on one variable at one scope, in lane order."""
        first = reqs[0]
        cls = first.__class__
        var = first.var
        scope = first.scope
        for r in reqs:
            if r.scope is not scope:
                return None
        in_shared = var in self.shared
        target = self._target(reqs, in_shared)
        if target is None:
            return None
        flat, idx = target
        n_lanes = len(idx)
        n_addresses = len(set(idx))

        if n_addresses == n_lanes:
            # All-distinct targets: one gather, one vectorized update,
            # one scatter.  Value lists keep native python types so
            # promotion/cast behaviour matches the scalar stores.
            idx_arr = np.array(idx, dtype=np.intp)
            old_arr = flat[idx_arr]
            olds = old_arr.tolist()
            values = np.asarray([r.value for r in reqs])
            if cls is rq.AtomicCas:
                compares = np.asarray([r.compare for r in reqs])
                new = np.where(old_arr == compares, values, old_arr)
            elif cls is rq.AtomicExch:
                new = values
            elif cls is rq.AtomicAdd:
                new = old_arr + values
            elif cls is rq.AtomicSub:
                new = old_arr - values
            elif cls is rq.AtomicMax:
                new = np.maximum(old_arr, values)
            elif cls is rq.AtomicMin:
                new = np.minimum(old_arr, values)
            elif cls is rq.AtomicAnd:
                new = old_arr & values
            elif cls is rq.AtomicOr:
                new = old_arr | values
            elif cls is rq.AtomicXor:
                new = old_arr ^ values
            elif cls is rq.AtomicInc:
                new = np.where(old_arr >= values, 0, old_arr + 1)
            else:  # AtomicDec
                new = np.where((old_arr == 0) | (old_arr > values),
                               values, old_arr - 1)
            flat[idx_arr] = new
            for lane, old in zip(glanes, olds):
                lane.pending = old
        elif cls in (rq.AtomicAdd, rq.AtomicSub) \
                and flat.dtype.kind in "iu":
            # Colliding integer add/sub (histogram bins): keep running
            # values in a dict so each unique address costs one numpy
            # load and one store instead of one per lane.  Memory is
            # exact for integers — wrap-around is modular, so deferring
            # the cast to the final store matches per-lane casts.
            running: dict[int, int] = {}
            get = running.get
            for lane, r in zip(glanes, reqs):
                i = r.idx
                old = get(i)
                if old is None:
                    old = flat[i].item()
                lane.pending = old
                running[i] = r.apply(old)
            for i, value in running.items():
                flat[i] = value
        else:
            # Colliding targets: lane order is the serialization order.
            for lane, r in zip(glanes, reqs):
                old = flat[r.idx].item()
                lane.pending = old
                flat[r.idx] = r.apply(old)

        return self.cuda._atomic_cost(
            warp_id, cls, var, flat.dtype,
            Scope.BLOCK if in_shared else scope, n_addresses, n_lanes,
            self.ctx, self.issuing_warps, self.resident_blocks,
            self.stats), cls.__name__


def _store(flat: np.ndarray, idx: list[int], reqs) -> None:
    """Scatter the pass's store values; with duplicate targets, lane
    order decides the survivor."""
    if len(set(idx)) == len(idx):
        np.put(flat, idx, [r.value for r in reqs])
    else:
        for r in reqs:
            flat[r.idx] = r.value


#: Request class -> uniform-pass handler.
UNIFORM_HANDLERS = {
    rq.Alu: UniformPasses.alu,
    rq.GlobalRead: UniformPasses.global_read,
    rq.GlobalWrite: UniformPasses.global_write,
    rq.SharedRead: UniformPasses.shared_read,
    rq.SharedWrite: UniformPasses.shared_write,
    rq.Syncwarp: UniformPasses.syncwarp,
    rq.Threadfence: UniformPasses.threadfence,
    rq.Activemask: UniformPasses.activemask,
    **dict.fromkeys(_BARRIER_KIND_OF, UniformPasses.barrier),
    **dict.fromkeys(_COLLECTIVE_KIND_OF, UniformPasses.collective),
    **dict.fromkeys(rq.ATOMIC_KIND_OF, UniformPasses.atomic),
}
