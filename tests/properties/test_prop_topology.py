"""Property tests for topology invariants on random trees."""

from hypothesis import given, settings

from repro.topology.normalize import normalize
from tests.link_loads import multicast_links, unicast_links
from tests.strategies import tree_topologies
from tests.model.paths import (
    node_sides,
    path_edges,
    path_nodes,
    sides,
    steiner_links,
)


class TestTreeInvariants:
    @given(tree=tree_topologies())
    @settings(max_examples=60)
    def test_edge_sides_partition(self, tree):
        for edge in tree.undirected_edges():
            a_side, b_side = node_sides(tree, edge)
            assert a_side | b_side == set(tree.nodes)
            assert not (a_side & b_side)

    @given(tree=tree_topologies())
    @settings(max_examples=60)
    def test_paths_connect_endpoints(self, tree):
        nodes = sorted(tree.compute_nodes, key=str)
        for u in nodes[:3]:
            for v in nodes[-3:]:
                path = path_nodes(tree, u, v)
                assert path[0] == u and path[-1] == v
                assert len(path) == len(set(path))  # simple path

    @given(tree=tree_topologies())
    @settings(max_examples=60)
    def test_traversal_order_subtree_contiguity(self, tree):
        order = tree.left_to_right_compute_order()
        position = {v: i for i, v in enumerate(order)}
        for edge in tree.undirected_edges():
            for side in sides(tree, edge):
                positions = sorted(position[v] for v in side)
                if positions and positions == list(
                    range(positions[0], positions[-1] + 1)
                ):
                    break
            else:
                raise AssertionError(f"edge {edge}: no contiguous side")

    @given(tree=tree_topologies())
    @settings(max_examples=40)
    def test_leaf_count_lower_bound(self, tree):
        # every tree with >= 2 nodes has >= 2 leaves
        assert len(tree.leaves()) >= 2


class TestNormalizationInvariants:
    @given(tree=tree_topologies())
    @settings(max_examples=60)
    def test_normalized_shape(self, tree):
        result = normalize(tree, virtual_bandwidth="sum")
        normalized = result.tree
        for v in normalized.compute_nodes:
            assert normalized.degree(v) <= 1
        for v in normalized.nodes:
            if v not in normalized.compute_nodes:
                assert normalized.degree(v) != 2

    @given(tree=tree_topologies())
    @settings(max_examples=60)
    def test_compute_count_preserved(self, tree):
        result = normalize(tree)
        assert len(result.tree.compute_nodes) == len(tree.compute_nodes)
        assert set(result.node_map) == set(tree.compute_nodes)


class TestSteinerInvariants:
    @given(tree=tree_topologies())
    @settings(max_examples=40)
    def test_steiner_equals_union_of_paths(self, tree):
        computes = sorted(tree.compute_nodes, key=str)
        src = computes[0]
        dsts = computes[1:4] if len(computes) > 1 else computes
        union = set()
        for dst in dsts:
            union |= set(path_edges(tree, src, dst))
        assert steiner_links(tree, src, dsts) == union
        assert multicast_links(tree, src, dsts) == dict.fromkeys(union, 1)

    @given(tree=tree_topologies())
    @settings(max_examples=40)
    def test_steiner_subadditive(self, tree):
        computes = sorted(tree.compute_nodes, key=str)
        src = computes[0]
        full = set(multicast_links(tree, src, computes))
        for dst in computes:
            assert set(unicast_links(tree, src, dst)) <= full
