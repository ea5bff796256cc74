"""Unit tests for repro.openmp.race."""

import pytest

from repro.common.errors import DataRaceError
from repro.openmp.race import (
    _CONFLICTS_WITH, AccessKind, RaceDetector, _conflicts,
)


class TestConflictMatrix:
    def detector(self):
        return RaceDetector(raise_on_race=False)

    def test_two_reads_fine(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_READ)
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert not d.races

    def test_plain_write_vs_plain_read_races(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert len(d.races) == 1

    def test_two_atomic_writes_fine(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.ATOMIC_WRITE)
        d.record(1, "x", 0, AccessKind.ATOMIC_WRITE)
        assert not d.races

    def test_atomic_vs_plain_write_races(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.ATOMIC_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_WRITE)
        assert len(d.races) == 1

    def test_two_locked_accesses_fine(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.LOCKED_WRITE)
        d.record(1, "x", 0, AccessKind.LOCKED_WRITE)
        assert not d.races

    def test_locked_vs_plain_write_races(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.LOCKED_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert len(d.races) == 1

    def test_same_thread_never_races_with_itself(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(0, "x", 0, AccessKind.PLAIN_READ)
        assert not d.races

    def test_different_locations_independent(self):
        d = self.detector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 1, AccessKind.PLAIN_WRITE)
        d.record(1, "y", 0, AccessKind.PLAIN_WRITE)
        assert not d.races


@pytest.mark.parametrize("first", list(AccessKind), ids=lambda k: k.value)
@pytest.mark.parametrize("second", list(AccessKind), ids=lambda k: k.value)
def test_conflict_table_matches_definition(first, second):
    """The detector's per-kind table is derived from ``_conflicts``,
    the single definition, and ``record`` agrees with it."""
    expected = _conflicts(first, second)
    assert (first in _CONFLICTS_WITH[second.value]) == expected
    d = RaceDetector(raise_on_race=False)
    d.record(0, "x", 0, first)
    d.record(1, "x", 0, second)
    assert bool(d.races) == expected


class TestEpochs:
    def test_barrier_separates_accesses(self):
        d = RaceDetector(raise_on_race=False)
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.barrier()
        d.record(1, "x", 0, AccessKind.PLAIN_READ)
        assert not d.races

    def test_epoch_counter_increments(self):
        d = RaceDetector()
        assert d.epoch == 0
        d.barrier()
        d.barrier()
        assert d.epoch == 2

    def test_race_report_carries_epoch(self):
        d = RaceDetector(raise_on_race=False)
        d.barrier()
        d.record(0, "x", 3, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 3, AccessKind.PLAIN_WRITE)
        report = d.races[0]
        assert report.epoch == 1
        assert report.var == "x"
        assert report.idx == 3


class TestRaising:
    def test_raises_by_default(self):
        d = RaceDetector()
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        with pytest.raises(DataRaceError, match="data race on x"):
            d.record(1, "x", 0, AccessKind.PLAIN_WRITE)

    def test_collect_mode_does_not_raise(self):
        d = RaceDetector(raise_on_race=False)
        d.record(0, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(1, "x", 0, AccessKind.PLAIN_WRITE)
        d.record(2, "x", 0, AccessKind.PLAIN_WRITE)
        assert len(d.races) >= 1
