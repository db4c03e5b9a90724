"""Unit tests for the Section 2.1 w.l.o.g. normalizations."""

import math

import pytest

from repro.errors import TopologyError
from repro.topology.builders import star, two_level
from repro.topology.normalize import (
    ensure_compute_leaves,
    normalize,
    suppress_degree_two,
)
from repro.topology.tree import TreeTopology


def tree_with_internal_compute():
    """a - hub - b where 'hub' both routes and computes."""
    edges = {("a", "hub"): 1.0, ("hub", "b"): 2.0}
    return TreeTopology.from_undirected(edges, ["a", "hub", "b"])


class TestEnsureComputeLeaves:
    def test_leaf_computes_untouched(self, simple_star):
        result = ensure_compute_leaves(simple_star)
        assert result.tree.compute_nodes == simple_star.compute_nodes
        assert result.relocated() == {}

    def test_internal_compute_moved_to_fresh_leaf(self):
        tree = tree_with_internal_compute()
        result = ensure_compute_leaves(tree)
        assert "hub" not in result.tree.compute_nodes
        new_leaf = result.node_map["hub"]
        assert new_leaf in result.tree.compute_nodes
        assert result.tree.degree(new_leaf) == 1

    def test_infinite_virtual_bandwidth_default(self):
        result = ensure_compute_leaves(tree_with_internal_compute())
        leaf = result.node_map["hub"]
        assert result.tree.bandwidth(leaf, "hub") == math.inf

    def test_sum_virtual_bandwidth(self):
        result = ensure_compute_leaves(
            tree_with_internal_compute(), virtual_bandwidth="sum"
        )
        leaf = result.node_map["hub"]
        assert result.tree.bandwidth(leaf, "hub") == 3.0  # 1 + 2

    def test_explicit_virtual_bandwidth(self):
        result = ensure_compute_leaves(
            tree_with_internal_compute(), virtual_bandwidth=5.0
        )
        leaf = result.node_map["hub"]
        assert result.tree.bandwidth(leaf, "hub") == 5.0

    def test_invalid_virtual_bandwidth(self):
        with pytest.raises(TopologyError):
            ensure_compute_leaves(
                tree_with_internal_compute(), virtual_bandwidth=-1.0
            )

    def test_fresh_leaf_name_avoids_collision(self):
        edges = {("a", "hub"): 1.0, ("hub", "hub::leaf"): 2.0}
        tree = TreeTopology.from_undirected(edges, ["a", "hub", "hub::leaf"])
        result = ensure_compute_leaves(tree)
        assert result.node_map["hub"] != "hub::leaf"


class TestSuppressDegreeTwo:
    def test_splices_router_chain(self):
        edges = {("a", "x"): 3.0, ("x", "y"): 1.0, ("y", "b"): 2.0}
        tree = TreeTopology.from_undirected(edges, ["a", "b"])
        result = suppress_degree_two(tree)
        assert result.nodes == ("a", "b")
        assert result.bandwidth("a", "b") == 1.0  # min along the chain

    def test_asymmetric_minimum_per_direction(self):
        tree = TreeTopology(
            {
                ("a", "x"): 4.0, ("x", "a"): 1.0,
                ("x", "b"): 2.0, ("b", "x"): 8.0,
            },
            ["a", "b"],
        )
        result = suppress_degree_two(tree)
        assert result.bandwidth("a", "b") == 2.0  # min(4, 2)
        assert result.bandwidth("b", "a") == 1.0  # min(8, 1)

    def test_keeps_degree_two_compute_node(self):
        tree = tree_with_internal_compute()
        result = suppress_degree_two(tree)
        assert "hub" in result.nodes

    def test_no_op_on_star(self, simple_star):
        result = suppress_degree_two(simple_star)
        assert result.nodes == simple_star.nodes


class TestNormalize:
    def test_combined(self):
        # chain: compute a - router x - compute hub - router y - compute b
        edges = {
            ("a", "x"): 1.0,
            ("x", "hub"): 2.0,
            ("hub", "y"): 4.0,
            ("y", "b"): 8.0,
        }
        tree = TreeTopology.from_undirected(edges, ["a", "hub", "b"])
        result = normalize(tree, virtual_bandwidth="sum")
        normalized = result.tree
        # All compute nodes are leaves, and no degree-2 nodes remain.
        for v in normalized.compute_nodes:
            assert normalized.degree(v) == 1
        for v in normalized.nodes:
            assert normalized.degree(v) != 2

    def test_idempotent_on_normalized_star(self, simple_star):
        result = normalize(simple_star)
        assert result.tree.nodes == simple_star.nodes
        assert result.relocated() == {}

    def test_two_level_core_of_degree_two_is_spliced(self, simple_two_level):
        # two_level([2, 3]) gives the core router degree 2, so the second
        # w.l.o.g. transform removes it and fuses the two uplinks.
        result = normalize(simple_two_level)
        assert "core" not in result.tree.nodes
        assert result.tree.bandwidth("w1", "w2") == 1.0

    def test_node_map_covers_all_computes(self):
        tree = tree_with_internal_compute()
        result = normalize(tree)
        assert set(result.node_map) == set(tree.compute_nodes)
