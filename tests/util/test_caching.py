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
    cached_group_slices,
    concat_group_slices,
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

    def test_immutable_arrays_take_the_identity_fast_path(self):
        cache = ContentCache(min_size=1)
        array = np.arange(16, dtype=np.int64)
        array.setflags(write=False)
        first = cache.fingerprint(array)
        assert id(array) in cache._id_memo
        assert cache.fingerprint(array) == first
        # the fast path must agree with a from-scratch digest
        assert ContentCache(min_size=1).fingerprint(array.copy()) == first

    def test_writeable_arrays_are_never_identity_memoized(self):
        cache = ContentCache(min_size=1)
        array = np.arange(16, dtype=np.int64)
        before = cache.fingerprint(array)
        assert id(array) not in cache._id_memo
        array[0] = 99  # a mutation must change the fingerprint
        assert cache.fingerprint(array) != before

    def test_readonly_view_of_writeable_base_is_not_memoized(self):
        # the base can still mutate the bytes, so identity is not
        # enough to prove content stability
        cache = ContentCache(min_size=1)
        base = np.arange(16, dtype=np.int64)
        view = base.view()
        view.setflags(write=False)
        before = cache.fingerprint(view)
        assert id(view) not in cache._id_memo
        base[0] = 99
        assert cache.fingerprint(view) != before


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


class TestConcatGroupSlices:
    def _parts(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 5, size=3000)
        b = rng.integers(0, 7, size=2000)
        return [(a, len(a), 0), (None, 1500, 5), (b, len(b), 6)]

    def _materialized(self, parts):
        segments = [
            np.full(length, base, np.int64) if ids is None else ids + base
            for ids, length, base in parts
        ]
        return np.concatenate(segments)

    def test_matches_grouping_the_materialized_stream(self):
        parts = self._parts()
        result = concat_group_slices(parts)
        plain = group_slices(self._materialized(parts))
        for fused, expected in zip(result, plain):
            assert np.array_equal(fused, expected)

    def test_repeated_parts_hit_without_materializing(self):
        parts = self._parts()
        first = concat_group_slices(parts)
        hits_before = GROUP_CACHE.hits
        second = concat_group_slices([(p[0], p[1], p[2]) for p in parts])
        assert second is first
        assert GROUP_CACHE.hits == hits_before + 1

    def test_single_part_at_base_zero_delegates(self):
        rng = np.random.default_rng(12)
        ids = rng.integers(0, 9, size=4000)
        assert concat_group_slices([(ids, len(ids), 0)]) is (
            cached_group_slices(ids)
        )

    def test_small_parts_fall_back_correctly(self):
        parts = [
            (np.asarray([2, 0, 1]), 3, 0),
            (None, 2, 3),
            (np.asarray([1, 0]), 2, 4),
        ]
        result = concat_group_slices(parts)
        plain = group_slices(self._materialized(parts))
        for fused, expected in zip(result, plain):
            assert np.array_equal(fused, expected)

    def test_base_shift_distinguishes_equal_ids(self):
        ids = np.zeros(2000, dtype=np.int64)
        low = concat_group_slices([(ids, len(ids), 0), (None, 1, 1)])
        high = concat_group_slices([(ids, len(ids), 3), (None, 1, 0)])
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

    def test_assign_slices_is_fused_hash_plus_group(self):
        hasher = self._hasher()
        values = np.arange(5000, dtype=np.int64)
        targets, order, uniques, starts, ends = hasher.assign_slices(values)
        expected_targets = self._hasher().assign_indices(values)
        assert np.array_equal(targets, expected_targets)
        for fused, plain in zip(
            (order, uniques, starts, ends), group_slices(expected_targets)
        ):
            assert np.array_equal(fused, plain)

    def test_assign_slices_memoized(self):
        hasher = self._hasher()
        values = np.arange(5000, dtype=np.int64)
        first = hasher.assign_slices(values)
        second = hasher.assign_slices(values.copy())
        assert second is first

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
