"""Request objects yielded by CUDA kernel threads.

Each request corresponds to one CUDA primitive or memory access.  Warp
collectives (shuffles, votes, ``__reduce_max_sync``) are executed for all
participating lanes of the warp at once; everything else executes per
lane, in lane order, under SIMT lockstep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.common.datatypes import dtype_of
from repro.compiler.ops import Op, PrimitiveKind, Scope
from repro.mem.layout import SharedScalar


@dataclass(frozen=True)
class Request:
    """Base class for everything a kernel thread may yield."""


@dataclass(frozen=True)
class Syncthreads(Request):
    """``__syncthreads()`` — block-wide barrier."""


@dataclass(frozen=True)
class SyncthreadsCount(Syncthreads):
    """``__syncthreads_count()`` — barrier producing the block-wide count
    of true predicates to every thread."""

    pred: bool = False


@dataclass(frozen=True)
class SyncthreadsAnd(Syncthreads):
    """``__syncthreads_and()`` — barrier producing the AND of all
    predicates."""

    pred: bool = False


@dataclass(frozen=True)
class SyncthreadsOr(Syncthreads):
    """``__syncthreads_or()`` — barrier producing the OR of all
    predicates."""

    pred: bool = False


@dataclass(frozen=True)
class GridSync(Request):
    """``grid.sync()`` — cooperative barrier across every block of one
    device's grid (multi-device runtime only)."""


@dataclass(frozen=True)
class MultiGridSync(Request):
    """``multi_grid.sync()`` — cooperative barrier across every block on
    every participating device; publishes pending system-memory writes."""


@dataclass(frozen=True)
class Syncwarp(Request):
    """``__syncwarp()`` — warp-wide barrier."""


@dataclass(frozen=True)
class Threadfence(Request):
    """``__threadfence*()`` family; scope picks the variant."""

    scope: Scope = Scope.DEVICE


@dataclass(frozen=True)
class Alu(Request):
    """``n`` simple arithmetic instructions (used to model loop work)."""

    n: int = 1


@dataclass(frozen=True)
class MemoryRequest(Request):
    """A request that touches ``var[idx]`` (global or block-shared)."""

    var: str
    idx: int


@dataclass(frozen=True)
class GlobalRead(MemoryRequest):
    """Global-memory load; produces the value."""


@dataclass(frozen=True)
class GlobalWrite(MemoryRequest):
    """Global-memory store."""

    value: object = 0


@dataclass(frozen=True)
class SystemRead(MemoryRequest):
    """System-memory (host/peer-visible) load; produces the value.

    Reads the canonical system array plus the *issuing device's own*
    unpublished writes; peers' plain writes become visible only after
    they publish (system-scope fence, multi-grid barrier, or kernel
    completion).
    """


@dataclass(frozen=True)
class SystemWrite(MemoryRequest):
    """System-memory store, buffered device-side until published."""

    value: object = 0


@dataclass(frozen=True)
class SharedRead(MemoryRequest):
    """Block-shared-memory load; produces the value."""


@dataclass(frozen=True)
class SharedWrite(MemoryRequest):
    """Block-shared-memory store."""

    value: object = 0


@dataclass(frozen=True)
class AtomicRmw(MemoryRequest):
    """Base of the atomic read-modify-write family.

    ``var`` may name a global array or a block-shared one; atomics on
    shared memory are block-scoped by construction.  ``scope`` marks the
    ``_block``-suffixed variants on global memory.
    """

    scope: Scope = Scope.DEVICE

    def apply(self, old):
        """The value this atomic leaves at its address when that address
        held ``old``.

        The one read-modify-write rule of every CUDA runtime: atomics
        that collide on an address apply it one lane at a time, in
        issue order, each lane producing the ``old`` it saw.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class AtomicAdd(AtomicRmw):
    """``atomicAdd()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``old + value``."""
        return old + self.value


@dataclass(frozen=True)
class AtomicSub(AtomicRmw):
    """``atomicSub()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``old - value``."""
        return old - self.value


@dataclass(frozen=True)
class AtomicAnd(AtomicRmw):
    """``atomicAnd()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``old & value``."""
        return old & self.value


@dataclass(frozen=True)
class AtomicOr(AtomicRmw):
    """``atomicOr()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``old | value``."""
        return old | self.value


@dataclass(frozen=True)
class AtomicXor(AtomicRmw):
    """``atomicXor()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``old ^ value``."""
        return old ^ self.value


@dataclass(frozen=True)
class AtomicMax(AtomicRmw):
    """``atomicMax()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``max(old, value)``."""
        return max(old, self.value)


@dataclass(frozen=True)
class AtomicMin(AtomicRmw):
    """``atomicMin()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``min(old, value)``."""
        return min(old, self.value)


@dataclass(frozen=True)
class AtomicInc(AtomicRmw):
    """``atomicInc()``: ``x = (x >= value) ? 0 : x + 1``; produces the
    old value."""

    value: object = 0

    def apply(self, old):
        """Wraps to 0 past ``value``."""
        return 0 if old >= self.value else old + 1


@dataclass(frozen=True)
class AtomicDec(AtomicRmw):
    """``atomicDec()``: ``x = (x == 0 || x > value) ? value : x - 1``;
    produces the old value."""

    value: object = 0

    def apply(self, old):
        """Wraps to ``value`` at 0 (or above ``value``)."""
        return self.value if (old == 0 or old > self.value) else old - 1


@dataclass(frozen=True)
class AtomicCas(AtomicRmw):
    """``atomicCAS()``; swaps in ``value`` if the current value equals
    ``compare``; produces the old value."""

    compare: object = 0
    value: object = 0

    def apply(self, old):
        """``value`` if ``old`` equals ``compare``, else unchanged."""
        return self.value if old == self.compare else old


@dataclass(frozen=True)
class AtomicExch(AtomicRmw):
    """``atomicExch()``; produces the old value."""

    value: object = 0

    def apply(self, old):
        """``value``, whatever ``old`` was."""
        return self.value


@dataclass(frozen=True)
class WarpCollective(Request):
    """Base of the warp-collective family: all live lanes of the warp must
    yield a collective of the same type in the same step."""


@dataclass(frozen=True)
class ShflSync(WarpCollective):
    """``__shfl_sync()`` — produce ``src_lane``'s value to every lane."""

    value: object = 0
    src_lane: int = 0


@dataclass(frozen=True)
class ShflUpSync(WarpCollective):
    """``__shfl_up_sync()`` — lane ``l`` receives lane ``l - delta``."""

    value: object = 0
    delta: int = 1


@dataclass(frozen=True)
class ShflDownSync(WarpCollective):
    """``__shfl_down_sync()`` — lane ``l`` receives lane ``l + delta``."""

    value: object = 0
    delta: int = 1


@dataclass(frozen=True)
class ShflXorSync(WarpCollective):
    """``__shfl_xor_sync()`` — lane ``l`` receives lane ``l ^ lane_mask``."""

    value: object = 0
    lane_mask: int = 1


@dataclass(frozen=True)
class VoteAll(WarpCollective):
    """``__all_sync()`` — produces True when every lane's pred is true."""

    pred: bool = False


@dataclass(frozen=True)
class VoteAny(WarpCollective):
    """``__any_sync()`` — produces True when any lane's pred is true."""

    pred: bool = False


@dataclass(frozen=True)
class Ballot(WarpCollective):
    """``__ballot_sync()`` — produces the 32-bit mask of true preds."""

    pred: bool = False


@dataclass(frozen=True)
class MatchAnySync(WarpCollective):
    """``__match_any_sync()`` (CC >= 7.0) — produces the mask of lanes
    whose value equals this lane's value."""

    value: object = 0


@dataclass(frozen=True)
class MatchAllSync(WarpCollective):
    """``__match_all_sync()`` (CC >= 7.0) — produces the full mask when
    every lane's value matches, else 0."""

    value: object = 0


@dataclass(frozen=True)
class Activemask(Request):
    """``__activemask()`` — the mask of currently active warp lanes.

    A query, not a synchronization: it executes immediately for the
    issuing lane.
    """


@dataclass(frozen=True)
class ReduceMaxSync(WarpCollective):
    """``__reduce_max_sync()`` — produces the warp maximum (CC >= 8.0)."""

    value: object = 0


#: The primitive each atomic request class prices as.
ATOMIC_KIND_OF: dict[type, PrimitiveKind] = {
    AtomicAdd: PrimitiveKind.ATOMIC_ADD,
    AtomicSub: PrimitiveKind.ATOMIC_SUB,
    AtomicMax: PrimitiveKind.ATOMIC_MAX,
    AtomicMin: PrimitiveKind.ATOMIC_MIN,
    AtomicAnd: PrimitiveKind.ATOMIC_AND,
    AtomicOr: PrimitiveKind.ATOMIC_OR,
    AtomicXor: PrimitiveKind.ATOMIC_XOR,
    AtomicInc: PrimitiveKind.ATOMIC_INC,
    AtomicDec: PrimitiveKind.ATOMIC_DEC,
    AtomicCas: PrimitiveKind.ATOMIC_CAS,
    AtomicExch: PrimitiveKind.ATOMIC_EXCH,
}

#: The op each ``__threadfence*()`` scope prices as.
FENCE_OP_OF: dict[Scope, Op] = {
    Scope.DEVICE: Op(kind=PrimitiveKind.THREADFENCE),
    Scope.BLOCK: Op(kind=PrimitiveKind.THREADFENCE_BLOCK),
    Scope.SYSTEM: Op(kind=PrimitiveKind.THREADFENCE_SYSTEM),
}


@functools.lru_cache(maxsize=None)
def atomic_op(cls: type, np_dtype: np.dtype, scope: Scope) -> Op:
    """The op that prices an atomic of request class ``cls`` on an
    array of ``np_dtype`` at ``scope``: a contended scalar of the
    matching :class:`~repro.common.datatypes.DataType`.

    Memoized (the domain is classes x dtypes x scopes), so every warp
    pass of one shape reuses one op and its cached hash.
    """
    dtype = dtype_of(np_dtype)
    return Op(kind=ATOMIC_KIND_OF[cls], dtype=dtype,
              target=SharedScalar(dtype), scope=scope)
