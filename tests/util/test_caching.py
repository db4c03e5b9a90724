"""Unit tests for the content-addressed kernel caches.

ContentCache is pure memoization: a hit requires byte-identical input
(digest over content + dtype + shape), so cached kernels can never
change results — these tests pin down the hit/miss mechanics, the
eviction bounds, and the equality of cached vs uncached kernel output.
"""

import numpy as np
import pytest

from repro.util.grouping import (
    GROUP_CACHE,
    ContentCache,
    _concat_parts,
    cached_group_slices,
    group_slices,
)
from repro.util.hashing import ASSIGN_CACHE, WeightedNodeHasher


@pytest.fixture(autouse=True)
def _fresh_caches():
    GROUP_CACHE.clear()
    ASSIGN_CACHE.clear()
    yield
    GROUP_CACHE.clear()
    ASSIGN_CACHE.clear()


class TestContentCache:
    def test_small_arrays_skip_the_cache(self):
        cache = ContentCache(min_size=8)
        assert cache.fingerprint(np.arange(7)) is None
        assert cache.fingerprint(np.arange(8)) is not None

    def test_fingerprint_distinguishes_dtype_and_shape(self):
        cache = ContentCache(min_size=1)
        a = np.arange(16, dtype=np.int64)
        assert cache.fingerprint(a) != cache.fingerprint(a.astype(np.int32))
        assert cache.fingerprint(a) != cache.fingerprint(a.reshape(4, 4))

    def test_get_put_and_counters(self):
        cache = ContentCache(min_size=1)
        key = cache.fingerprint(np.arange(4))
        assert cache.get(key) is None
        cache.put(key, "value", nbytes=10)
        assert cache.get(key) == "value"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_capacity_eviction_is_lru(self):
        cache = ContentCache(capacity=2, min_size=1)
        cache.put(b"a", 1, nbytes=1)
        cache.put(b"b", 2, nbytes=1)
        cache.get(b"a")  # refresh: b is now least recent
        cache.put(b"c", 3, nbytes=1)
        assert cache.get(b"a") == 1
        assert cache.get(b"b") is None
        assert cache.get(b"c") == 3

    def test_byte_budget_eviction(self):
        cache = ContentCache(capacity=100, max_bytes=100, min_size=1)
        cache.put(b"a", 1, nbytes=60)
        cache.put(b"b", 2, nbytes=60)  # over budget: evicts a
        assert cache.get(b"a") is None
        assert cache.get(b"b") == 2

    def test_fingerprint_is_the_content_digest(self):
        # a read-only array is digested like any other: equal bytes,
        # equal fingerprint, from this cache or a fresh one
        cache = ContentCache(min_size=1)
        array = np.arange(16, dtype=np.int64)
        array.setflags(write=False)
        first = cache.fingerprint(array)
        assert cache.fingerprint(array) == first
        assert ContentCache(min_size=1).fingerprint(array.copy()) == first

    def test_mutation_changes_the_fingerprint(self):
        cache = ContentCache(min_size=1)
        array = np.arange(16, dtype=np.int64)
        before = cache.fingerprint(array)
        array[0] = 99
        assert cache.fingerprint(array) != before


class TestCachedGroupSlices:
    def test_matches_uncached_kernel(self):
        rng = np.random.default_rng(3)
        indices = rng.integers(0, 13, size=5000)
        cached = cached_group_slices(indices)
        plain = group_slices(indices)
        for a, b in zip(cached, plain):
            assert np.array_equal(a, b)

    def test_repeat_grouping_hits_and_returns_same_tuple(self):
        rng = np.random.default_rng(4)
        indices = rng.integers(0, 7, size=5000)
        hits_before = GROUP_CACHE.hits
        first = cached_group_slices(indices)
        second = cached_group_slices(indices.copy())  # equal bytes: hit
        assert second is first
        assert GROUP_CACHE.hits == hits_before + 1
        assert all(not part.flags.writeable for part in first)

    def test_small_arrays_fall_through(self):
        indices = np.asarray([2, 0, 1])
        hits, misses = GROUP_CACHE.hits, GROUP_CACHE.misses
        cached_group_slices(indices)
        cached_group_slices(indices)
        assert (GROUP_CACHE.hits, GROUP_CACHE.misses) == (hits, misses)

    def test_readonly_view_of_a_mutated_base_regroups(self):
        # the view cannot be written, but its base can: the second call
        # must see the new bytes, not a grouping keyed by the object
        base = np.zeros(4000, dtype=np.int64)
        view = base.view()
        view.setflags(write=False)
        first = cached_group_slices(view)
        assert first[1].tolist() == [0]
        base[::2] = 3
        second = cached_group_slices(view)
        assert second[1].tolist() == [0, 3]
        for cached, plain in zip(second, group_slices(base.copy())):
            assert np.array_equal(cached, plain)


class TestConcatParts:
    """A round's multicast id stream: ``_concat_parts`` materializes it
    and the content memo groups it."""

    def _parts(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 5, size=3000)
        b = rng.integers(0, 7, size=2000)
        return [(a, 0), (np.zeros(1500, np.intp), 5), (b, 6)]

    def _materialized(self, parts):
        return np.concatenate([ids + base for ids, base in parts])

    def test_matches_grouping_the_materialized_stream(self):
        parts = self._parts()
        assert np.array_equal(_concat_parts(parts), self._materialized(parts))
        result = cached_group_slices(_concat_parts(parts))
        plain = group_slices(self._materialized(parts))
        for fused, expected in zip(result, plain):
            assert np.array_equal(fused, expected)

    def test_repeated_parts_hit_on_the_stream_content(self):
        parts = self._parts()
        first = cached_group_slices(_concat_parts(parts))
        hits_before = GROUP_CACHE.hits
        second = cached_group_slices(
            _concat_parts([(ids.copy(), base) for ids, base in parts])
        )
        assert second is first
        assert GROUP_CACHE.hits == hits_before + 1

    def test_small_parts_match_the_materialized_stream(self):
        parts = [
            (np.asarray([2, 0, 1]), 0),
            (np.zeros(2, np.intp), 3),
            (np.asarray([1, 0]), 4),
        ]
        result = cached_group_slices(_concat_parts(parts))
        plain = group_slices(self._materialized(parts))
        for fused, expected in zip(result, plain):
            assert np.array_equal(fused, expected)

    def test_base_shift_distinguishes_equal_ids(self):
        ids = np.zeros(2000, dtype=np.int64)
        one = np.zeros(1, np.intp)
        low = cached_group_slices(_concat_parts([(ids, 0), (one, 1)]))
        high = cached_group_slices(_concat_parts([(ids, 3), (one, 0)]))
        assert low[1].tolist() == [0, 1]
        assert high[1].tolist() == [0, 3]


class TestCachedAssignment:
    def _hasher(self, seed=5):
        nodes = [f"v{i}" for i in range(6)]
        return WeightedNodeHasher(nodes, [1.0 + i for i in range(6)], seed)

    def test_assign_indices_memoized(self):
        hasher = self._hasher()
        values = np.arange(5000, dtype=np.int64)
        first = hasher.assign_indices(values)
        second = hasher.assign_indices(values.copy())
        assert second is first
        assert not first.flags.writeable

    def test_distinct_hashers_do_not_share_entries(self):
        # the cache key mixes in the hasher token (weights + seed), so
        # equal inputs under different hashers miss each other
        values = np.arange(5000, dtype=np.int64)
        a = self._hasher(seed=5).assign_indices(values)
        b = self._hasher(seed=6).assign_indices(values)
        assert not np.array_equal(a, b)

    def test_targets_are_stored_in_the_narrow_lookup_dtype(self):
        values = np.arange(5000, dtype=np.int64)
        assert self._hasher().assign_indices(values).dtype == np.int16
        assert self._hasher().assign_indices(values[:10]).dtype == np.int16
        wide = WeightedNodeHasher(range(2**15), [1.0] * 2**15, 5)
        assert wide.assign_indices(values).dtype == np.int64

    def test_budget_bounds_resident_bytes_over_many_relations(self):
        """Protocols hash whole relations, so the memo sees one
        relation-sized input per query; a hundred distinct ones must
        leave no more resident than the budget, and the most recent
        stay memoized."""
        hasher = self._hasher()
        rng = np.random.default_rng(0)
        relations = [
            rng.integers(0, 2**40, 300_000, dtype=np.int64) for _ in range(100)
        ]
        for relation in relations:
            hasher.assign_indices(relation)
        resident = sum(
            targets.nbytes for targets in ASSIGN_CACHE._entries.values()
        )
        assert ASSIGN_CACHE.max_bytes == 8 << 20
        assert 0 < resident == ASSIGN_CACHE._total_bytes <= ASSIGN_CACHE.max_bytes
        assert 100 * relations[0].nbytes // 4 > ASSIGN_CACHE.max_bytes
        hits = ASSIGN_CACHE.hits
        hasher.assign_indices(relations[-1])
        assert ASSIGN_CACHE.hits == hits + 1
