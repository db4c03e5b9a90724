"""Unit tests for the topology builders."""

import math

import pytest

from repro.errors import TopologyError
from repro.topology.builders import (
    caterpillar,
    fat_tree,
    from_parent_map,
    mpc_star,
    random_tree,
    star,
    two_level,
)
from tests.model.paths import path_nodes


class TestStar:
    def test_shape(self):
        tree = star(6)
        assert tree.num_compute_nodes == 6
        assert tree.routers == ("w",)
        assert tree.is_star()

    def test_scalar_bandwidth(self):
        tree = star(3, bandwidth=5.0)
        assert all(
            tree.bandwidth(v, "w") == 5.0 for v in tree.compute_nodes
        )

    def test_per_node_bandwidths(self):
        tree = star(3, bandwidth=[1.0, 2.0, 3.0])
        assert tree.bandwidth("v2", "w") == 2.0

    def test_bandwidth_map(self):
        tree = star(2, bandwidth={0: 1.0, 1: 7.0})
        assert tree.bandwidth("v2", "w") == 7.0

    def test_wrong_bandwidth_count_rejected(self):
        with pytest.raises(TopologyError):
            star(3, bandwidth=[1.0, 2.0])

    def test_zero_nodes_rejected(self):
        with pytest.raises(TopologyError):
            star(0)

    def test_symmetric(self):
        assert star(4).is_symmetric


class TestMpcStar:
    def test_asymmetric_bandwidths(self):
        tree = mpc_star(4)
        assert tree.bandwidth("v1", "o") == math.inf
        assert tree.bandwidth("o", "v1") == 1.0
        assert not tree.is_symmetric

    def test_receive_bandwidth_configurable(self):
        tree = mpc_star(2, receive_bandwidth=4.0)
        assert tree.bandwidth("o", "v2") == 4.0


class TestTwoLevel:
    def test_shape(self):
        tree = two_level([2, 3])
        assert tree.num_compute_nodes == 5
        assert tree.routers == ("core", "w1", "w2")
        assert tree.degree("core") == 2

    def test_rack_membership(self):
        tree = two_level([2, 3])
        assert path_nodes(tree, "v1", "v2") == ["v1", "w1", "v2"]
        assert "core" in path_nodes(tree, "v1", "v3")

    def test_per_rack_bandwidths(self):
        tree = two_level(
            [1, 1], leaf_bandwidth=[4.0, 2.0], uplink_bandwidth=[1.0, 3.0]
        )
        assert tree.bandwidth("v1", "w1") == 4.0
        assert tree.bandwidth("v2", "w2") == 2.0
        assert tree.bandwidth("w2", "core") == 3.0

    def test_empty_rack_rejected(self):
        with pytest.raises(TopologyError):
            two_level([2, 0])


class TestFatTree:
    def test_leaf_count(self):
        tree = fat_tree(2, 3)
        assert tree.num_compute_nodes == 9

    def test_bandwidth_doubles_per_level(self):
        tree = fat_tree(2, 2, leaf_bandwidth=1.0, level_scale=2.0)
        assert tree.bandwidth("v1", tree.neighbors("v1")[0]) == 1.0
        assert tree.bandwidth("w2", "w1") == 2.0

    def test_depth_one_is_star(self):
        assert fat_tree(1, 4).is_star()

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            fat_tree(0, 2)
        with pytest.raises(TopologyError):
            fat_tree(2, 1)


class TestCaterpillar:
    def test_shape(self):
        tree = caterpillar(3, 2)
        assert tree.num_compute_nodes == 6
        assert tree.degree("w2") == 4  # two spine links + two leaves

    def test_spine_bandwidth(self):
        tree = caterpillar(2, 1, spine_bandwidth=7.0)
        assert tree.bandwidth("w1", "w2") == 7.0

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            caterpillar(0, 1)


class TestFromParentMap:
    def test_builds_chain(self):
        tree = from_parent_map(
            {"b": ("a", 1.0), "c": ("b", 2.0)}, ["a", "c"]
        )
        assert path_nodes(tree, "a", "c") == ["a", "b", "c"]
        assert tree.bandwidth("c", "b") == 2.0


class TestRandomTree:
    def test_deterministic_in_seed(self):
        first = random_tree(10, seed=4)
        second = random_tree(10, seed=4)
        assert first.directed_edges == second.directed_edges

    def test_different_seeds_differ(self):
        assert (
            random_tree(10, seed=1).directed_edges
            != random_tree(10, seed=2).directed_edges
        )

    def test_leaves_are_compute(self):
        tree = random_tree(15, seed=0)
        assert tree.compute_nodes == tree.leaves()

    def test_bandwidths_from_choices(self):
        tree = random_tree(8, seed=3, bandwidth_choices=(2.0,))
        for (_, forward, backward) in tree.iter_links():
            assert forward == backward == 2.0

    def test_two_node_tree(self):
        tree = random_tree(2, seed=0)
        assert tree.num_nodes == 2

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            random_tree(1)

    @pytest.mark.parametrize("size", [3, 5, 9, 20])
    def test_always_valid_tree(self, size):
        for seed in range(5):
            tree = random_tree(size, seed=seed)
            assert tree.num_nodes == size
