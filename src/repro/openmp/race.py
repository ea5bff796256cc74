"""Data-race detection for the OpenMP interpreter.

A lightweight epoch-based detector: an *epoch* is the interval between
consecutive barriers.  Within one epoch, two accesses to the same location
from different threads conflict when at least one is a write and the pair
is not properly synchronized — both atomic, or both under the critical
lock.  This catches exactly the bugs the paper's primitives exist to
prevent (e.g. dropping the atomic from the shared-counter example makes the
detector fire).

A flush alone does **not** make conflicting accesses safe — it only orders
one thread's own accesses — so flushes do not reset the detector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import DataRaceError


class AccessKind(enum.Enum):
    """How a location was touched."""

    PLAIN_READ = "plain_read"
    PLAIN_WRITE = "plain_write"
    ATOMIC_READ = "atomic_read"
    ATOMIC_WRITE = "atomic_write"
    LOCKED_READ = "locked_read"
    LOCKED_WRITE = "locked_write"

    @property
    def is_write(self) -> bool:
        return self in (AccessKind.PLAIN_WRITE, AccessKind.ATOMIC_WRITE,
                        AccessKind.LOCKED_WRITE)

    @property
    def is_atomic(self) -> bool:
        return self in (AccessKind.ATOMIC_READ, AccessKind.ATOMIC_WRITE)

    @property
    def is_locked(self) -> bool:
        return self in (AccessKind.LOCKED_READ, AccessKind.LOCKED_WRITE)


@dataclass(frozen=True)
class RaceReport:
    """One detected data race.

    Attributes:
        var: Shared-variable name.
        idx: Element index.
        first: (thread id, access kind) of the earlier access.
        second: (thread id, access kind) of the conflicting access.
        epoch: Barrier epoch in which both accesses occurred.
    """

    var: str
    idx: int
    first: tuple[int, AccessKind]
    second: tuple[int, AccessKind]
    epoch: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"data race on {self.var}[{self.idx}] in epoch {self.epoch}: "
                f"thread {self.first[0]} {self.first[1].value} vs "
                f"thread {self.second[0]} {self.second[1].value}")


def _conflicts(a: AccessKind, b: AccessKind) -> bool:
    """Whether an (a, b) access pair from different threads is a race."""
    if not (a.is_write or b.is_write):
        return False
    if a.is_atomic and b.is_atomic:
        return False
    if a.is_locked and b.is_locked:
        return False
    return True


#: For each access kind's value, the earlier kinds it races with (from
#: another thread), built once from :func:`_conflicts`.  Keyed by value
#: because a lookup keyed by the member runs the Python-level
#: ``Enum.__hash__``; a tuple, so membership is an identity scan with no
#: per-entry enum hashing or property calls.
_CONFLICTS_WITH: dict[str, tuple[AccessKind, ...]] = {
    kind.value: tuple(prev for prev in AccessKind if _conflicts(prev, kind))
    for kind in AccessKind
}


@dataclass
class RaceDetector:
    """Epoch-based race detector.

    Attributes:
        raise_on_race: Raise :class:`DataRaceError` at the first race when
            True; otherwise collect reports in :attr:`races`.
    """

    raise_on_race: bool = True
    races: list[RaceReport] = field(default_factory=list)
    _epoch: int = 0
    _accesses: dict[tuple[str, int], list[tuple[int, AccessKind]]] = \
        field(default_factory=dict)

    def record(self, tid: int, var: str, idx: int, kind: AccessKind) -> None:
        """Record one access and check it against this epoch's history."""
        key = (var, idx)
        history = self._accesses.get(key)
        if history is None:
            self._accesses[key] = [(tid, kind)]
            return
        conflicting = _CONFLICTS_WITH[kind._value_]
        for prev_tid, prev_kind in history:
            if prev_tid != tid and prev_kind in conflicting:
                report = RaceReport(var=var, idx=idx,
                                    first=(prev_tid, prev_kind),
                                    second=(tid, kind), epoch=self._epoch)
                if self.raise_on_race:
                    raise DataRaceError(str(report))
                self.races.append(report)
                break
        # Deduplicate: one entry per (thread, kind) pair per location.
        entry = (tid, kind)
        if entry not in history:
            history.append(entry)

    def barrier(self) -> None:
        """A barrier happened: all prior accesses are ordered before all
        later ones, so the epoch's history is discarded."""
        self._epoch += 1
        self._accesses.clear()

    @property
    def epoch(self) -> int:
        return self._epoch
