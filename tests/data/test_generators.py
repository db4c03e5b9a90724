"""Unit tests for relation and placement generators."""

import numpy as np
import pytest

from repro.data.generators import (
    adversarial_sorted_distribution,
    distribute,
    make_set_pair,
    make_sort_input,
    merge_distributions,
    place_by_weights,
    place_proportional,
    place_single_heavy,
    place_uniform,
    place_zipf,
    placement_sizes,
    random_distribution,
)
from repro.errors import DistributionError
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology


class TestMakeSetPair:
    def test_sizes(self):
        r_values, s_values = make_set_pair(100, 300, seed=1)
        assert len(r_values) == 100
        assert len(s_values) == 300

    def test_exact_intersection(self):
        r_values, s_values = make_set_pair(
            100, 300, intersection_size=37, seed=1
        )
        assert len(np.intersect1d(r_values, s_values)) == 37

    def test_relations_are_sets(self):
        r_values, s_values = make_set_pair(500, 500, seed=2)
        assert len(np.unique(r_values)) == 500
        assert len(np.unique(s_values)) == 500

    def test_deterministic(self):
        first = make_set_pair(50, 50, seed=9)
        second = make_set_pair(50, 50, seed=9)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_default_intersection(self):
        r_values, s_values = make_set_pair(100, 400, seed=0)
        assert len(np.intersect1d(r_values, s_values)) == 25

    def test_oversized_intersection_rejected(self):
        with pytest.raises(DistributionError):
            make_set_pair(10, 20, intersection_size=11)

    def test_domain_too_small_rejected(self):
        with pytest.raises(DistributionError):
            make_set_pair(100, 100, intersection_size=0, domain=50)


class TestMakeSortInput:
    def test_distinct_values(self):
        values = make_sort_input(1000, seed=3)
        assert len(np.unique(values)) == 1000

    def test_deterministic(self):
        assert np.array_equal(
            make_sort_input(100, seed=1), make_sort_input(100, seed=1)
        )


class TestPlacementPolicies:
    nodes = ["a", "b", "c", "d"]

    def test_uniform_splits_evenly(self):
        sizes = place_uniform(10, self.nodes)
        assert sorted(sizes.values()) == [2, 2, 3, 3]

    def test_uniform_total_preserved(self):
        assert sum(place_uniform(13, self.nodes).values()) == 13

    def test_uniform_rejects_empty(self):
        with pytest.raises(DistributionError):
            place_uniform(5, [])

    def test_zipf_is_skewed(self):
        sizes = place_zipf(1000, self.nodes)
        assert sizes["a"] > sizes["b"] > sizes["c"] > sizes["d"]
        assert sum(sizes.values()) == 1000

    def test_zipf_exponent_zero_is_uniform(self):
        sizes = place_zipf(100, self.nodes, exponent=0.0)
        assert sorted(sizes.values()) == [25, 25, 25, 25]

    def test_single_heavy_fraction(self):
        sizes = place_single_heavy(100, self.nodes, heavy_fraction=0.7)
        assert sizes["a"] == 70
        assert sum(sizes.values()) == 100

    def test_single_heavy_other_index(self):
        sizes = place_single_heavy(
            100, self.nodes, heavy_fraction=0.9, heavy_index=2
        )
        assert sizes["c"] == 90

    def test_single_heavy_invalid_fraction(self):
        with pytest.raises(DistributionError):
            place_single_heavy(10, self.nodes, heavy_fraction=1.5)

    def test_proportional(self):
        sizes = place_proportional(
            90, self.nodes, {"a": 1, "b": 2, "c": 3, "d": 3}
        )
        assert sizes == {"a": 10, "b": 20, "c": 30, "d": 30}

    def test_proportional_on_a_single_node_tree(self):
        # a lone node has no uplink: it weighs as an infinite link and
        # holds everything
        tree = TreeTopology({}, ["only"])
        assert placement_sizes(tree, 7, "proportional") == {"only": 7}
        assert placement_sizes(tree, 0, "proportional") == {"only": 0}

    def test_by_weights_total_exact(self):
        weights = np.array([0.3, 0.3, 0.4])
        sizes = place_by_weights(10, ["x", "y", "z"], weights)
        assert sum(sizes.values()) == 10

    def test_by_weights_rejects_all_zero(self):
        with pytest.raises(DistributionError):
            place_by_weights(10, ["x"], np.array([0.0]))


class TestDistribute:
    def test_sizes_must_match(self):
        with pytest.raises(DistributionError):
            distribute(np.arange(5), {"a": 2, "b": 2}, tag="R")

    def test_order_preserved_without_shuffle(self):
        dist = distribute(np.arange(6), {"a": 2, "b": 4}, tag="R")
        assert dist.fragment("a", "R").tolist() == [0, 1]
        assert dist.fragment("b", "R").tolist() == [2, 3, 4, 5]

    def test_shuffle_changes_order_not_content(self):
        values = np.arange(100)
        dist = distribute(values, {"a": 50, "b": 50}, tag="R", shuffle_seed=1)
        merged = np.sort(
            np.concatenate([dist.fragment("a", "R"), dist.fragment("b", "R")])
        )
        assert np.array_equal(merged, values)
        assert not np.array_equal(dist.fragment("a", "R"), values[:50])

    def test_merge_distributions(self):
        left = distribute(np.arange(4), {"a": 4}, tag="R")
        right = distribute(np.arange(4), {"b": 4}, tag="S")
        merged = merge_distributions(left, right)
        assert merged.total("R") == 4
        assert merged.total("S") == 4

    def test_merge_rejects_duplicate_tags(self):
        left = distribute(np.arange(2), {"a": 2}, tag="R")
        with pytest.raises(DistributionError):
            merge_distributions(left, left)


class TestRandomDistribution:
    def test_policies_produce_expected_totals(self):
        tree = star(4)
        for policy in ("uniform", "zipf", "single-heavy", "proportional"):
            dist = random_distribution(
                tree, r_size=40, s_size=60, policy=policy, seed=1
            )
            assert dist.total("R") == 40
            assert dist.total("S") == 60

    def test_unknown_policy_rejected(self):
        with pytest.raises(DistributionError):
            random_distribution(star(3), r_size=5, s_size=5, policy="bogus")

    def test_deterministic(self):
        tree = star(4)
        first = random_distribution(tree, r_size=30, s_size=30, seed=5)
        second = random_distribution(tree, r_size=30, s_size=30, seed=5)
        for node in tree.compute_nodes:
            assert np.array_equal(
                first.fragment(node, "R"), second.fragment(node, "R")
            )


class TestAdversarialSortedDistribution:
    def test_interleaves_odd_then_even(self):
        tree = star(2)
        dist = adversarial_sorted_distribution(tree, total=8)
        order = tree.left_to_right_compute_order()
        first = dist.fragment(order[0], "R").tolist()
        second = dist.fragment(order[1], "R").tolist()
        assert first == [1, 3, 5, 7]
        assert second == [2, 4, 6, 8]

    def test_odd_total(self):
        tree = star(2)
        dist = adversarial_sorted_distribution(tree, total=5)
        merged = sorted(
            dist.relation("R").tolist()
        )
        assert merged == [1, 2, 3, 4, 5]

    def test_explicit_sizes(self):
        tree = two_level([2, 2])
        order = tree.left_to_right_compute_order()
        sizes = {order[0]: 3, order[1]: 1, order[2]: 0, order[3]: 4}
        dist = adversarial_sorted_distribution(tree, sizes)
        assert dist.sizes("R") == {node: sizes[node] for node in order}

    def test_rejects_unknown_nodes(self):
        tree = star(2)
        with pytest.raises(DistributionError):
            adversarial_sorted_distribution(tree, {"ghost": 5})

    def test_requires_sizes_or_total(self):
        with pytest.raises(DistributionError):
            adversarial_sorted_distribution(star(2))
