"""Statement IR for the static sync sanitizer.

The dynamic interpreters execute kernels as Python generators; a static
pass cannot run them, so :mod:`repro.sanitize.extract` lifts each kernel's
source AST into this small statement IR instead.  The IR keeps exactly
what the rules in :mod:`repro.sanitize.rules` need: which synchronization
primitives appear where, how control flow around them depends on the
thread's identity, and how memory is touched (which variable, how the
index depends on the thread id, atomically or plainly).

Everything else — arithmetic, host-side bookkeeping, helper calls — is
dropped or folded into the taint lattice of :class:`Dep`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.compiler.ops import PrimitiveKind, Scope


class Dep(enum.Enum):
    """How a value (or a branch condition) depends on the executing thread.

    The lattice is ``UNIFORM < DATA < THREAD``: a uniform value is
    identical on every thread of the team/block (literals, closure
    variables, ``blockDim``...); a data-dependent value came out of
    memory (a ``yield``ed load) and *may* differ per thread; a
    thread-dependent value is derived from the thread's identity
    (``threadIdx``, ``tid``, ``lane``...) and is *known* to differ.
    Only THREAD dependence triggers the divergence rules — flagging DATA
    would drown real defects in false positives on converged loads.
    """

    UNIFORM = 0
    DATA = 1
    THREAD = 2

    def join(self, other: "Dep") -> "Dep":
        """Least upper bound of two dependences."""
        return self if self.value >= other.value else other


class Space(enum.Enum):
    """Which memory space an access touches."""

    GLOBAL = "global"
    SHARED = "shared"
    #: Host/peer-visible system memory (multi-device kernels).
    SYSTEM = "system"


#: Sentinel variable name for accesses whose array name is not a string
#: literal (e.g. the double-buffer swap in the Jacobi stencil).  The
#: race rule skips such accesses: aliasing cannot be decided statically.
DYNAMIC_VAR = "<dynamic>"


@dataclass(frozen=True)
class SyncStmt:
    """A barrier-class primitive (``__syncthreads*``, ``omp barrier``,
    ``omp single``, ``__syncwarp``, or a warp collective).

    Attributes:
        kind: The op-IR primitive this lowers to.
        collective: True for warp-level constructs (collectives and
            ``__syncwarp``) whose convergence set is the warp, not the
            block; divergence around them is reported at WARNING
            severity instead of ERROR.
        line: 1-based source line.
    """

    kind: PrimitiveKind
    collective: bool = False
    line: int = 0


@dataclass(frozen=True)
class FenceStmt:
    """A memory fence (``__threadfence*`` or ``omp flush``)."""

    kind: PrimitiveKind
    line: int = 0

    @property
    def scope(self) -> Scope:
        """The visibility scope the fence orders."""
        if self.kind is PrimitiveKind.THREADFENCE_BLOCK:
            return Scope.BLOCK
        if self.kind is PrimitiveKind.THREADFENCE_SYSTEM:
            return Scope.SYSTEM
        return Scope.DEVICE


@dataclass(frozen=True)
class AccessStmt:
    """One memory access: ``var[index]`` read or written.

    Attributes:
        var: Array name (:data:`DYNAMIC_VAR` when not a literal).
        space: Memory space of the access.
        is_write: Store (or read-modify-write) vs. pure load.
        atomic: Performed with an atomic primitive.
        scope: Atomic scope (None for plain accesses).
        index_dep: How the index depends on the thread.
        index_const: The literal index when the index is a constant.
        pinned: Lexically inside a single-thread pin
            (``if tid == 0:`` / ``is_master``) — only one thread of the
            team executes it, so it cannot self-race.
        line: 1-based source line.
    """

    var: str
    space: Space
    is_write: bool
    atomic: bool = False
    scope: Scope | None = None
    index_dep: Dep = Dep.UNIFORM
    index_const: int | None = None
    pinned: bool = False
    line: int = 0


@dataclass(frozen=True)
class LockStmt:
    """``omp_set_lock``/``omp_unset_lock`` (or a CAS-spinlock idiom).

    Attributes:
        acquire: True for acquisition, False for release.
        name: Lock name (the literal argument, or :data:`DYNAMIC_VAR`).
        line: 1-based source line.
    """

    acquire: bool
    name: str
    line: int = 0


@dataclass(frozen=True)
class ReturnStmt:
    """An early ``return`` from the kernel body."""

    line: int = 0


@dataclass(frozen=True)
class OpaqueStmt:
    """A construct the lifter cannot see through (``yield from``,
    critical sections).  Treated as a no-op by every rule."""

    line: int = 0


@dataclass(frozen=True)
class BranchStmt:
    """An ``if``/``else`` with lifted arms.

    Attributes:
        dep: Dependence of the branch condition.
        pin: The condition is a single-thread pin (``tid == c`` or
            ``is_master``) — the then-arm runs on exactly one thread.
        body: Lifted then-arm.
        orelse: Lifted else-arm.
        line: 1-based source line.
    """

    dep: Dep
    pin: bool = False
    body: tuple["Stmt", ...] = ()
    orelse: tuple["Stmt", ...] = ()
    line: int = 0


@dataclass(frozen=True)
class LoopStmt:
    """A ``for``/``while`` loop with a lifted body.

    Attributes:
        dep: Dependence of the trip condition (iteration space).
        spin: The loop test itself yields a memory read — the
            spin-wait idiom (``while (yield read(flag)) != v``).  Holds
            that read's :class:`AccessStmt` when detected.
        body: Lifted loop body.
        line: 1-based source line.
    """

    dep: Dep
    spin: AccessStmt | None = None
    body: tuple["Stmt", ...] = ()
    line: int = 0


#: Any lifted statement.
Stmt = Union[SyncStmt, FenceStmt, AccessStmt, LockStmt, ReturnStmt,
             OpaqueStmt, BranchStmt, LoopStmt]


@dataclass(frozen=True)
class KernelIR:
    """One lifted kernel (or thread body).

    Attributes:
        name: Function name.
        dialect: ``"cuda"`` or ``"openmp"``.
        source: Where the kernel came from (path or ``<function>``).
        line: 1-based line of the ``def``.
        body: Lifted statements.
    """

    name: str
    dialect: str
    source: str = "<function>"
    line: int = 0
    body: tuple[Stmt, ...] = ()

    def walk(self):
        """Yield every statement, depth-first, with its enclosing
        control dependence (the join of all surrounding branch/loop
        dependences)."""
        yield from _walk(self.body, Dep.UNIFORM)


def _walk(stmts: tuple[Stmt, ...], ctx: Dep):
    for stmt in stmts:
        yield stmt, ctx
        if isinstance(stmt, BranchStmt):
            inner = ctx.join(stmt.dep)
            yield from _walk(stmt.body, inner)
            yield from _walk(stmt.orelse, inner)
        elif isinstance(stmt, LoopStmt):
            yield from _walk(stmt.body, ctx.join(stmt.dep))
