"""Content-addressed result cache: identity, staleness, torn writes."""

from __future__ import annotations

import json

import pytest

from repro.service.cache import ENTRY_VERSION, ResultCache, cache_key


class FakeClock:
    """A hand-advanced wall clock."""

    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


RESULT = {"spec_name": "omp_atomicadd_scalar_int", "per_op_time": 148.4}
REQUEST = {"primitive": "omp_atomic", "threads": 16}


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(REQUEST, "fp", "1.0.0") == \
            cache_key(dict(REQUEST), "fp", "1.0.0")

    def test_sensitive_to_every_component(self):
        base = cache_key(REQUEST, "fp", "1.0.0")
        assert cache_key({**REQUEST, "threads": 8}, "fp", "1.0.0") != base
        assert cache_key(REQUEST, "other-fp", "1.0.0") != base
        assert cache_key(REQUEST, "fp", "1.0.1") != base

    def test_key_order_does_not_matter(self):
        shuffled = {"threads": 16, "primitive": "omp_atomic"}
        assert cache_key(REQUEST, "fp", "1") == \
            cache_key(shuffled, "fp", "1")


class TestPutGet:
    def test_round_trip_with_age(self, tmp_path):
        clock = FakeClock()
        cache = ResultCache(tmp_path / "cache", clock=clock)
        key = cache_key(REQUEST, "fp", "1")
        assert cache.get(key) is None
        cache.put(key, RESULT, REQUEST)
        clock.now += 42.0
        entry = cache.get(key)
        assert entry is not None
        assert entry.result == RESULT
        assert entry.age_seconds == pytest.approx(42.0)
        # Entries are compact one-line JSON; an indented entry (the
        # layout written before) reads back through get and entries().
        path = cache.directory / f"{key}.json"
        text = path.read_text()
        assert text.count("\n") == 1 and ", " not in text
        stored = json.loads(text)
        path.write_text(json.dumps(stored, indent=1) + "\n")
        assert cache.get(key).result == RESULT
        assert cache.entries() == {key: stored}

    def test_overwrite_updates_store_time(self, tmp_path):
        clock = FakeClock()
        cache = ResultCache(tmp_path, clock=clock)
        cache.put("k" * 64, RESULT, REQUEST)
        clock.now += 100.0
        cache.put("k" * 64, {"per_op_time": 1.0}, REQUEST)
        entry = cache.get("k" * 64)
        assert entry.age_seconds == pytest.approx(0.0)
        assert entry.result == {"per_op_time": 1.0}

    def test_missing_directory_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.get("deadbeef") is None
        assert cache.entries() == {}


class TestCorruption:
    def _cache_with_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(REQUEST, "fp", "1")
        path = cache.put(key, RESULT, REQUEST)
        return cache, key, path

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])  # torn write
        assert cache.get(key) is None

    def test_garbage_entry_reads_as_miss(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        path.write_text("not json at all")
        assert cache.get(key) is None

    def test_wrong_version_reads_as_miss(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        entry = json.loads(path.read_text())
        entry["entry_version"] = ENTRY_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_entries_raises_on_torn_file(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        assert set(cache.entries()) == {key}
        (tmp_path / f"{'0' * 64}.json").write_text('{"half": ')
        with pytest.raises(ValueError):
            cache.entries()

    def test_entries_raises_on_misfiled_key(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        path.rename(tmp_path / f"{'f' * 64}.json")
        with pytest.raises(ValueError, match="wrong key"):
            cache.entries()


class TestEviction:
    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in range(5):
            cache.put(f"k{n}", {"n": n}, {})
        assert len(list(tmp_path.glob("*.json"))) == 5

    def test_max_entries_evicts_oldest_mtime(self, tmp_path):
        import os
        from repro.obs.metrics import counter_value
        cache = ResultCache(tmp_path, max_entries=2)
        before = counter_value("cache.evictions")
        for n in range(4):
            cache.put(f"k{n}", {"n": n}, {})
            # Pin strictly increasing mtimes so recency is unambiguous
            # even on coarse-timestamp filesystems.
            os.utime(tmp_path / f"k{n}.json", (n, n))
        cache.put("k4", {"n": 4}, {})
        survivors = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert survivors == ["k3", "k4"]
        assert counter_value("cache.evictions") - before == 3
        assert cache.get("k4") is not None
        assert cache.get("k0") is None

    def test_eviction_keeps_entries_well_formed(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        for n in range(6):
            cache.put(f"k{n}", {"n": n}, {})
        for key, entry in cache.entries().items():
            assert entry["entry_version"] == ENTRY_VERSION
            assert entry["key"] == key
