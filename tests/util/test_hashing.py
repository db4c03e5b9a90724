"""Unit tests for the deterministic weighted hashing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.hashing import WeightedNodeHasher, splitmix64

from tests.reference_kernels import reference_weighted_indices


class TestSplitmix64:
    def test_deterministic(self):
        values = np.arange(100)
        assert np.array_equal(splitmix64(values, 7), splitmix64(values, 7))

    def test_seed_changes_output(self):
        values = np.arange(100)
        assert not np.array_equal(splitmix64(values, 1), splitmix64(values, 2))

    def test_output_dtype(self):
        assert splitmix64(np.arange(4), 0).dtype == np.uint64

    def test_does_not_mutate_input(self):
        values = np.arange(10)
        splitmix64(values, 3)
        assert np.array_equal(values, np.arange(10))

    def test_handles_negative_ints(self):
        values = np.array([-5, -1, 0, 1], dtype=np.int64)
        result = splitmix64(values, 0)
        assert len(np.unique(result)) == 4


class TestWeightedNodeHasher:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            WeightedNodeHasher(["a"], [1.0, 2.0], 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedNodeHasher([], [], 0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedNodeHasher(["a", "b"], [1.0, -1.0], 0)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            WeightedNodeHasher(["a", "b"], [0.0, 0.0], 0)

    @pytest.mark.parametrize(
        "values",
        [np.arange(1000), np.random.default_rng(2).integers(0, 2**40, 300_000)],
        ids=["small", "relation-sized"],
    )
    def test_consistent_across_instances(self, values):
        # seed and weights define the function: two instances, and two
        # calls on one, agree
        first = WeightedNodeHasher(["a", "b", "c"], [1, 2, 3], 42)
        second = WeightedNodeHasher(["a", "b", "c"], [1, 2, 3], 42)
        expected = first.assign_indices(values)
        assert np.array_equal(second.assign_indices(values), expected)
        assert np.array_equal(first.assign_indices(values.copy()), expected)

    def test_distinct_seeds_assign_differently(self):
        values = np.arange(5000, dtype=np.int64)
        a = WeightedNodeHasher(range(6), [1.0 + i for i in range(6)], 5)
        b = WeightedNodeHasher(range(6), [1.0 + i for i in range(6)], 6)
        assert not np.array_equal(a.assign_indices(values), b.assign_indices(values))

    def test_targets_are_in_the_narrow_lookup_dtype(self):
        values = np.arange(5000, dtype=np.int64)
        hasher = WeightedNodeHasher(range(6), [1.0] * 6, 5)
        assert hasher.assign_indices(values).dtype == np.int16
        assert hasher.assign_indices(values[:10]).dtype == np.int16
        wide = WeightedNodeHasher(range(2**15), [1.0] * 2**15, 5)
        assert wide.assign_indices(values).dtype == np.int64

    def test_zero_weight_node_gets_nothing(self):
        hasher = WeightedNodeHasher(["a", "b", "c"], [1.0, 0.0, 1.0], 5)
        assert 1 not in hasher.assign_indices(np.arange(5000))

    def test_weights_respected_statistically(self):
        hasher = WeightedNodeHasher(["a", "b"], [1.0, 3.0], 17)
        assigned = hasher.assign_indices(np.arange(40_000))
        fraction_b = float(np.mean(assigned == 1))
        assert 0.72 <= fraction_b <= 0.78  # expect 0.75

    @given(
        weights=st.lists(st.integers(0, 50), min_size=1, max_size=8).filter(
            lambda w: sum(w) > 0
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=50)
    def test_assignment_always_in_range(self, weights, seed):
        nodes = [f"n{i}" for i in range(len(weights))]
        hasher = WeightedNodeHasher(nodes, weights, seed)
        indices = hasher.assign_indices(np.arange(200))
        assert indices.min() >= 0
        assert indices.max() < len(nodes)
        # zero-weight nodes never selected
        for index in np.unique(indices):
            assert weights[index] > 0


def _probe_hashes(weights, rng) -> np.ndarray:
    """Hashes that straddle everything the table could get wrong: both
    ends of the range, the hashes on either side of every weight
    boundary and of every edge of a fine bucket grid, and random ones."""
    weights = np.asarray(weights, dtype=np.float64)
    boundaries = np.cumsum(weights / weights.sum())
    grid = np.arange(1, 2**12, dtype=np.float64) / 2**12
    centres = [
        int(point * 2**64)
        for point in np.concatenate([boundaries, grid]).tolist()
        if 0.0 < point < 1.0
    ]
    offsets = (-2049, -1025, -1024, -1023, -2, -1, 0, 1, 2, 1023, 1024, 1025)
    near = [
        min(max(centre + offset, 0), 2**64 - 1)
        for centre in centres
        for offset in offsets
    ]
    ends = [0, 1, 2**63, 2**64 - 2**11, 2**64 - 1025, 2**64 - 1024, 2**64 - 1]
    return np.concatenate(
        [
            np.asarray(near + ends, dtype=np.uint64),
            rng.integers(0, 2**64, 5000, dtype=np.uint64),
        ]
    )


def _assert_table_is_the_search(weights, seed=0):
    rng = np.random.default_rng(seed)
    hasher = WeightedNodeHasher(list(range(len(weights))), weights, seed)
    hashes = _probe_hashes(weights, rng)
    indices = hasher.indices_of_hashes(hashes)
    expected = reference_weighted_indices(weights, hashes)
    assert indices.dtype == expected.dtype
    assert np.array_equal(indices, expected)
    values = rng.integers(-(2**40), 2**40, 3000)
    assigned = hasher.assign_indices(values)
    expected = reference_weighted_indices(weights, splitmix64(values, seed))
    assert assigned.dtype == expected.dtype
    assert np.array_equal(assigned, expected)
    return indices


class TestBucketTable:
    """The table is the binary search, element for element."""

    @pytest.mark.parametrize("count", [1, 2, 64, 144, 1000])
    def test_random_weights(self, count):
        rng = np.random.default_rng(count)
        _assert_table_is_the_search(rng.integers(1, 1000, count), seed=count)
        _assert_table_is_the_search(rng.random(count) ** 8, seed=count + 1)

    def test_wide_index_dtype(self):
        weights = np.ones(2**15)
        indices = _assert_table_is_the_search(weights)
        assert indices.dtype == np.int64

    @pytest.mark.parametrize(
        "weights",
        [
            [0, 0, 1, 0, 0, 3, 0],
            [0, 5],
            [5, 0],
            [1, 0, 0, 0, 0, 0, 0, 1e-30],
        ],
    )
    def test_zero_weights(self, weights):
        indices = _assert_table_is_the_search(weights)
        assert all(weights[index] > 0 for index in np.unique(indices))

    @pytest.mark.parametrize(
        "weights",
        [[1, 1], [1, 1, 2], [1] * 64, [3, 1, 4, 8] * 16, [2.0**-k for k in range(1, 30)]],
    )
    def test_dyadic_boundaries_sit_on_bucket_edges(self, weights):
        _assert_table_is_the_search(weights)

    def test_a_boundary_rounding_above_one(self):
        weights = [0.1] * 6 + [0.0]
        boundaries = np.cumsum(np.asarray(weights) / float(np.sum(weights)))
        assert boundaries[-2] > 1.0
        indices = _assert_table_is_the_search(weights)
        assert indices.max() == 5

    @given(
        weights=st.lists(st.integers(0, 50), min_size=1, max_size=40).filter(
            lambda w: sum(w) > 0
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_weights(self, weights, seed):
        _assert_table_is_the_search(weights, seed=seed)


class TestTopOfTheHashRange:
    """``float64(2**64 - 1) / 2**64 == 1.0``: the last 2**10 hashes used
    to index one past the last node."""

    @pytest.mark.parametrize("weights", [[1], [1, 1], [3, 1, 4], [1, 1, 0]])
    def test_largest_hash_lands_on_the_last_weighted_node(self, weights):
        hasher = WeightedNodeHasher(list(range(len(weights))), weights, 0)
        top = np.asarray([2**64 - 1, 2**64 - 1024, 2**64 - 1025], dtype=np.uint64)
        assert float(top[0]) / 2.0**64 == 1.0
        last = max(i for i, weight in enumerate(weights) if weight > 0)
        assert hasher.indices_of_hashes(top).tolist() == [last] * 3
