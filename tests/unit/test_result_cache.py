"""Unit tests for the fingerprint-keyed result cache (core/result_cache.py):
vector-checked lookups, byte-bounded LRU, per-table invalidation, and the
seeded result_cache fault site."""

import pytest

from repro.core.faults import (
    RESULT_CACHE_EVICT,
    RESULT_CACHE_STALE,
    FaultSchedule,
    FaultSpec,
)
from repro.core.result_cache import ResultCache, ResultEntry
from repro.protocol.encoding import CODE_INTEGER, ColumnMeta


def make_entry(deps=("T",), vector=(("T", 1, 1),), payload=b"x" * 64,
               chunks=None):
    return ResultEntry(
        metas=(ColumnMeta("A", CODE_INTEGER),),
        chunks=chunks if chunks is not None else (payload,), rowcount=1,
        notes=(), deps=deps, vector=vector)


def vector_fn(versions):
    """Build a current_vector callable from a {table: (schema, data)} map."""
    def current(names):
        return tuple((name, *versions[name]) for name in sorted(names))
    return current


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = ResultCache(max_bytes=1 << 16)
        versions = {"T": (1, 1)}
        key = ("teradata", "hyperion", "SELECT ?", ("1",), None)
        assert cache.lookup(key, vector_fn(versions)) is None
        entry = make_entry(vector=(("T", 1, 1),))
        assert cache.insert(key, entry)
        hit = cache.lookup(key, vector_fn(versions))
        assert hit is entry
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.inserts == 1
        assert stats.hit_rate == 0.5

    def test_stale_vector_drops_entry(self):
        cache = ResultCache(max_bytes=1 << 16)
        versions = {"T": (1, 1)}
        key = ("k",)
        cache.insert(key, make_entry(vector=(("T", 1, 1),)))
        versions["T"] = (1, 2)  # DML bumped the data epoch
        assert cache.lookup(key, vector_fn(versions)) is None
        # dropped for good: epochs are monotonic, it can't come back
        assert len(cache) == 0
        stats = cache.stats()
        assert stats.stale_drops == 1 and stats.misses == 1

    def test_replace_same_key_reclaims_bytes(self):
        cache = ResultCache(max_bytes=1 << 16)
        key = ("k",)
        cache.insert(key, make_entry(payload=b"a" * 100))
        first_bytes = cache.used_bytes
        cache.insert(key, make_entry(payload=b"b" * 100))
        assert cache.used_bytes == first_bytes
        assert len(cache) == 1


class TestBounds:
    def test_lru_eviction_under_byte_cap(self):
        # entries are ~ 64 + 16 + 16+1 + 256 = 353 bytes; cap fits two
        cache = ResultCache(max_bytes=800, max_entry_bytes=800)
        versions = vector_fn({"T": (1, 1)})
        for index in range(3):
            cache.insert((index,), make_entry())
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        # the oldest key went first
        assert cache.lookup((0,), versions) is None
        assert cache.lookup((2,), versions) is not None

    def test_lookup_refreshes_lru_position(self):
        cache = ResultCache(max_bytes=800, max_entry_bytes=800)
        versions = vector_fn({"T": (1, 1)})
        cache.insert((0,), make_entry())
        cache.insert((1,), make_entry())
        cache.lookup((0,), versions)          # (0,) is now most recent
        cache.insert((2,), make_entry())      # evicts (1,), not (0,)
        assert cache.lookup((0,), versions) is not None
        assert cache.lookup((1,), versions) is None

    def test_oversized_entry_rejected(self):
        cache = ResultCache(max_bytes=1 << 16, max_entry_bytes=128)
        assert not cache.insert(("k",), make_entry(payload=b"x" * 4096))
        assert len(cache) == 0
        assert cache.stats().rejects == 1

    def test_default_per_entry_cap_is_an_eighth(self):
        cache = ResultCache(max_bytes=8000)
        assert cache.max_entry_bytes == 1000

    def test_zero_budget_is_an_error(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestInvalidation:
    def test_only_dependent_entries_dropped(self):
        cache = ResultCache(max_bytes=1 << 16)
        cache.insert(("a",), make_entry(deps=("T",)))
        cache.insert(("b",), make_entry(deps=("U",), vector=(("U", 1, 1),)))
        cache.insert(("c",), make_entry(deps=("T", "U")))
        assert cache.invalidate_tables(("T",)) == 2
        assert len(cache) == 1
        versions = vector_fn({"U": (1, 1)})
        assert cache.lookup(("b",), versions) is not None
        assert cache.stats().invalidations == 2

    def test_names_are_case_insensitive(self):
        cache = ResultCache(max_bytes=1 << 16)
        cache.insert(("a",), make_entry(deps=("T",)))
        assert cache.invalidate_tables(("t",)) == 1

    def test_wildcard_clears_everything(self):
        cache = ResultCache(max_bytes=1 << 16)
        cache.insert(("a",), make_entry(deps=("T",)))
        cache.insert(("b",), make_entry(deps=("U",)))
        assert cache.invalidate_tables(("*",)) == 2
        assert len(cache) == 0

    def test_wildcard_entries_dropped_by_any_table(self):
        cache = ResultCache(max_bytes=1 << 16)
        cache.insert(("a",), make_entry(deps=("*",)))
        assert cache.invalidate_tables(("ANYTHING",)) == 1

    def test_unrelated_table_drops_nothing(self):
        cache = ResultCache(max_bytes=1 << 16)
        cache.insert(("a",), make_entry(deps=("T",)))
        assert cache.invalidate_tables(("OTHER",)) == 0
        assert len(cache) == 1


class TestFaultSite:
    def test_forced_eviction_after_insert(self):
        faults = FaultSchedule(seed=1, specs=[
            FaultSpec(RESULT_CACHE_EVICT, "result_cache", every=1)])
        cache = ResultCache(max_bytes=1 << 16, faults=faults)
        versions = vector_fn({"T": (1, 1)})
        assert cache.insert(("k",), make_entry())   # insert ok, then evicted
        assert len(cache) == 0
        assert cache.stats().injected_evictions == 1
        assert cache.lookup(("k",), versions) is None

    def test_forced_stale_drop_on_lookup(self):
        faults = FaultSchedule(seed=1, specs=[
            FaultSpec(RESULT_CACHE_STALE, "result_cache", every=3)])
        cache = ResultCache(max_bytes=1 << 16, faults=faults)
        versions = vector_fn({"T": (1, 1)})
        cache.insert(("k",), make_entry())                  # draw #1
        assert cache.lookup(("k",), versions) is not None   # draw #2
        # draw #3 fires: the entry is treated as stale despite a current
        # vector, proving correctness never *depends* on the cache
        assert cache.lookup(("k",), versions) is None
        stats = cache.stats()
        assert stats.stale_drops == 1
        assert len(cache) == 0

    def test_churn_schedule_is_deterministic(self):
        from repro.core.faults import named_schedule

        for _ in range(2):
            schedule = named_schedule("result-cache-churn", seed=7)
            cache = ResultCache(max_bytes=1 << 16, faults=schedule)
            versions = vector_fn({"T": (1, 1)})
            for index in range(20):
                key = (index % 4,)
                if cache.lookup(key, versions) is None:
                    cache.insert(key, make_entry())
            stats = cache.stats()
            assert stats.injected_evictions > 0
            assert stats.stale_drops > 0


class TestStats:
    def test_as_dict_roundtrip(self):
        cache = ResultCache(max_bytes=1 << 16)
        versions = vector_fn({"T": (1, 1)})
        cache.insert(("k",), make_entry())
        cache.lookup(("k",), versions)
        cache.lookup(("missing",), versions)
        snapshot = cache.stats().as_dict()
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1
        assert snapshot["inserts"] == 1
        assert snapshot["hit_rate"] == 0.5

    def test_note_reject_counts(self):
        cache = ResultCache(max_bytes=1 << 16)
        cache.note_reject()
        assert cache.stats().rejects == 1

    def test_clear_empties_cache(self):
        cache = ResultCache(max_bytes=1 << 16)
        cache.insert(("k",), make_entry())
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0
