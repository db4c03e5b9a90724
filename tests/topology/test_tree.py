"""Unit tests for TreeTopology: validation, paths, edge sides, orders."""

import math

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology, node_sort_key
from tests.model.paths import node_sides, path_edges, path_nodes, sides


def chain(*bandwidths):
    """A path v0 - v1 - ... with the given link bandwidths."""
    edges = {
        (f"v{i}", f"v{i + 1}"): bw for i, bw in enumerate(bandwidths)
    }
    ends = ["v0", f"v{len(bandwidths)}"]
    return TreeTopology.from_undirected(edges, ends)


class TestConstruction:
    def test_minimal_two_node_tree(self):
        tree = TreeTopology.from_undirected({("a", "b"): 1.0}, ["a", "b"])
        assert tree.nodes == ("a", "b")
        assert tree.compute_nodes == ("a", "b")

    def test_single_node_tree(self):
        tree = TreeTopology({}, ["only"])
        assert tree.nodes == ("only",)
        assert tree.leaves() == ("only",)

    def test_rejects_cycle(self):
        edges = {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0}
        with pytest.raises(TopologyError, match="tree"):
            TreeTopology.from_undirected(edges, ["a"])

    def test_rejects_disconnected(self):
        edges = {("a", "b"): 1.0, ("c", "d"): 1.0}
        with pytest.raises(TopologyError):
            TreeTopology.from_undirected(edges, ["a"])

    def test_rejects_missing_reverse_direction(self):
        with pytest.raises(TopologyError, match="full-duplex"):
            TreeTopology({("a", "b"): 1.0}, ["a", "b"])

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            TreeTopology.from_undirected({("a", "a"): 1.0}, ["a"])

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(TopologyError, match="positive"):
            TreeTopology.from_undirected({("a", "b"): 0.0}, ["a"])

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(TopologyError, match="positive"):
            TreeTopology.from_undirected({("a", "b"): -2.0}, ["a"])

    def test_rejects_nan_bandwidth(self):
        with pytest.raises(TopologyError, match="positive"):
            TreeTopology.from_undirected({("a", "b"): float("nan")}, ["a"])

    def test_accepts_infinite_bandwidth(self):
        tree = TreeTopology.from_undirected({("a", "b"): math.inf}, ["a"])
        assert tree.bandwidth("a", "b") == math.inf

    def test_rejects_empty_compute_set(self):
        with pytest.raises(TopologyError, match="compute"):
            TreeTopology.from_undirected({("a", "b"): 1.0}, [])

    def test_rejects_unknown_compute_node(self):
        with pytest.raises(TopologyError):
            TreeTopology.from_undirected({("a", "b"): 1.0}, ["ghost"])

    def test_compute_only_membership_is_respected(self):
        tree = TreeTopology.from_undirected(
            {("a", "b"): 1.0, ("b", "c"): 1.0}, ["a", "c"]
        )
        assert tree.routers == ("b",)


class TestDerivation:
    def test_with_bandwidths_overrides_one_direction(self, simple_star):
        derived = simple_star.with_bandwidths({("v1", "w"): 9.0})
        assert derived.bandwidth("v1", "w") == 9.0
        assert derived.bandwidth("w", "v1") == 1.0
        assert simple_star.bandwidth("v1", "w") == 1.0  # original intact

    def test_with_bandwidths_rejects_unknown_edge(self, simple_star):
        with pytest.raises(TopologyError):
            simple_star.with_bandwidths({("v1", "v2"): 1.0})

    def test_with_compute_nodes(self, simple_star):
        derived = simple_star.with_compute_nodes(["v1", "v2"])
        assert derived.compute_nodes == ("v1", "v2")


class TestSymmetry:
    def test_from_undirected_is_symmetric(self, simple_two_level):
        assert simple_two_level.is_symmetric

    def test_asymmetric_detected(self):
        tree = TreeTopology(
            {("a", "b"): 1.0, ("b", "a"): 2.0}, ["a", "b"]
        )
        assert not tree.is_symmetric
        with pytest.raises(TopologyError, match="symmetric"):
            tree.require_symmetric()

    def test_undirected_bandwidth_rejects_asymmetric_link(self):
        tree = TreeTopology({("a", "b"): 1.0, ("b", "a"): 2.0}, ["a", "b"])
        with pytest.raises(TopologyError, match="asymmetric"):
            tree.undirected_bandwidth(("a", "b"))


class TestStarDetection:
    def test_star_is_star(self):
        assert star(5).is_star()

    def test_two_level_is_not_star(self, simple_two_level):
        assert not simple_two_level.is_star()

    def test_star_center(self):
        assert star(5).star_center() == "w"

    def test_center_of_non_star_raises(self, simple_two_level):
        with pytest.raises(TopologyError, match="star"):
            simple_two_level.star_center()

    def test_two_node_tree_is_star(self):
        tree = TreeTopology.from_undirected({("a", "b"): 1.0}, ["a", "b"])
        assert tree.is_star()


class TestPaths:
    def test_path_to_self_is_trivial(self, simple_two_level):
        assert path_nodes(simple_two_level, "v1", "v1") == ["v1"]
        assert path_edges(simple_two_level, "v1", "v1") == []

    def test_path_within_rack(self, simple_two_level):
        assert path_nodes(simple_two_level, "v1", "v2") == ["v1", "w1", "v2"]

    def test_path_across_racks(self, simple_two_level):
        assert path_nodes(simple_two_level, "v1", "v4") == [
            "v1", "w1", "core", "w2", "v4",
        ]

    def test_path_edges_direction(self, simple_two_level):
        edges = path_edges(simple_two_level, "v1", "v3")
        assert edges == [("v1", "w1"), ("w1", "core"), ("core", "w2"), ("w2", "v3")]

    def test_path_is_reversible(self, simple_two_level):
        forward = path_nodes(simple_two_level, "v2", "v5")
        backward = path_nodes(simple_two_level, "v5", "v2")
        assert forward == list(reversed(backward))

    def test_unknown_node_raises(self, simple_two_level):
        with pytest.raises(TopologyError):
            path_nodes(simple_two_level, "v1", "ghost")

    def test_path_on_chain(self):
        tree = chain(1.0, 2.0, 4.0)
        assert path_nodes(tree, "v0", "v3") == ["v0", "v1", "v2", "v3"]


def compute_mask(tree, members) -> np.ndarray:
    """0/1 per compute node, in ``link_side_sums`` order."""
    return np.array(
        [v in members for v in tree.compute_nodes], dtype=np.int64
    )


def link_sums(tree, edge, values) -> tuple:
    """``link_side_sums(values)`` at one link, as Python numbers."""
    at = tree.undirected_edges().index(edge)
    return tuple(side[at].item() for side in tree.link_side_sums(values))


class TestEdgeSides:
    def test_sides_partition_the_nodes(self, simple_two_level):
        for edge in simple_two_level.undirected_edges():
            a_side, b_side = node_sides(simple_two_level, edge)
            assert a_side | b_side == set(simple_two_level.nodes)
            assert not (a_side & b_side)
            assert edge[0] in a_side
            assert edge[1] in b_side

    def test_compute_sides_of_uplink(self, simple_two_level):
        tree = simple_two_level
        uplink = tree.canonical_edge("core", "w1")
        rack_one = compute_mask(tree, {"v1", "v2"})
        w1_first = uplink[0] == "w1"
        assert link_sums(tree, uplink, rack_one) == ((2, 0) if w1_first else (0, 2))
        assert link_sums(tree, uplink, 1 - rack_one) == ((0, 3) if w1_first else (3, 0))

    def test_side_weights(self, simple_two_level):
        weights = {"v1": 5, "v2": 5, "v3": 1, "v4": 1, "v5": 1}
        side_sums = simple_two_level.side_weights(weights)
        sums = side_sums[simple_two_level.canonical_edge("w1", "core")]
        assert sorted(sums) == [3, 10]

    def test_leaf_edge_isolates_leaf(self, simple_two_level):
        tree = simple_two_level
        leaf_link = tree.canonical_edge("v1", "w1")
        v1_first = leaf_link[0] == "v1"
        counts = link_sums(tree, leaf_link, compute_mask(tree, tree.compute_nodes))
        assert counts == ((1, 4) if v1_first else (4, 1))
        alone = link_sums(tree, leaf_link, compute_mask(tree, {"v1"}))
        assert alone == ((1, 0) if v1_first else (0, 1))


class TestTraversalOrder:
    def test_covers_all_compute_nodes(self, simple_two_level):
        order = simple_two_level.left_to_right_compute_order()
        assert set(order) == set(simple_two_level.compute_nodes)
        assert len(order) == len(set(order))

    def test_subtrees_are_contiguous(self, simple_two_level):
        order = simple_two_level.left_to_right_compute_order()
        position = {v: i for i, v in enumerate(order)}
        for edge in simple_two_level.undirected_edges():
            minus, plus = sides(simple_two_level, edge)
            for side in (minus, plus):
                positions = sorted(position[v] for v in side)
                if positions and positions == list(
                    range(positions[0], positions[-1] + 1)
                ):
                    break
            else:
                pytest.fail(f"neither side of {edge} contiguous")

    def test_rooting_changes_order(self, simple_two_level):
        default = simple_two_level.left_to_right_compute_order()
        rerooted = simple_two_level.left_to_right_compute_order(root="v3")
        assert set(default) == set(rerooted)
        assert rerooted[0] == "v3"
        assert default != rerooted

    def test_unknown_root_rejected(self, simple_two_level):
        with pytest.raises(TopologyError):
            simple_two_level.left_to_right_compute_order(root="ghost")


class TestMisc:
    def test_contains(self, simple_star):
        assert "v1" in simple_star
        assert "ghost" not in simple_star

    def test_repr_mentions_name(self, simple_star):
        assert "star(4)" in repr(simple_star)

    def test_iter_links_reports_both_directions(self):
        tree = TreeTopology({("a", "b"): 1.0, ("b", "a"): 3.0}, ["a", "b"])
        ((edge, forward, backward),) = list(tree.iter_links())
        assert {forward, backward} == {1.0, 3.0}

    def test_node_sort_key_distinguishes_types(self):
        assert node_sort_key(1) != node_sort_key("1")

    def test_undirected_edges_deterministic(self, simple_two_level):
        assert (
            simple_two_level.undirected_edges()
            == simple_two_level.undirected_edges()
        )

    def test_degree_and_leaves(self, simple_two_level):
        assert simple_two_level.degree("core") == 2
        assert simple_two_level.degree("w2") == 4
        assert simple_two_level.leaves() == ("v1", "v2", "v3", "v4", "v5")
