"""Property tests for the G-dagger orientation (Lemma 4) and cover DP."""

import pytest
from hypothesis import given, settings

from repro.topology.dagger import (
    build_dagger,
    cover_value,
    minimal_covers,
    optimal_cover,
)
from tests.strategies import node_sizes, tree_topologies
from tests.model.paths import node_sides, sides


class TestLemma4:
    @given(data=tree_topologies().flatmap(
        lambda tree: node_sizes(tree).map(lambda sizes: (tree, sizes))
    ))
    @settings(max_examples=80)
    def test_unique_root_and_out_degrees(self, data):
        tree, sizes = data
        dagger = build_dagger(tree, sizes)
        # out-degree <= 1 holds structurally (parent is a dict); check
        # the unique sink and the absence of cycles.
        roots = [v for v in tree.nodes if v not in dagger.parent]
        assert roots == [dagger.root]
        for start in tree.nodes:
            seen = set()
            node = start
            while node in dagger.parent:
                assert node not in seen
                seen.add(node)
                node = dagger.parent[node]
            assert node == dagger.root

    @given(data=tree_topologies().flatmap(
        lambda tree: node_sizes(tree).map(lambda sizes: (tree, sizes))
    ))
    @settings(max_examples=80)
    def test_edges_point_to_weakly_heavier_side(self, data):
        tree, sizes = data
        dagger = build_dagger(tree, sizes)
        for node, parent in dagger.parent.items():
            edge = tree.canonical_edge(node, parent)
            minus, plus = sides(tree, edge)
            node_side = minus if node in node_sides(tree, edge)[0] else plus
            other_side = plus if node_side is minus else minus
            weight_node = sum(sizes.get(v, 0) for v in node_side)
            weight_other = sum(sizes.get(v, 0) for v in other_side)
            assert weight_node <= weight_other


class TestCoverDp:
    @given(data=tree_topologies(max_nodes=8).flatmap(
        lambda tree: node_sizes(tree).map(lambda sizes: (tree, sizes))
    ))
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_enumeration(self, data):
        tree, sizes = data
        dagger = build_dagger(tree, sizes)
        if not dagger.parent:
            return
        cover, value = optimal_cover(dagger)
        enumerated = list(minimal_covers(dagger))
        assert enumerated, "at least the leaf cover exists"
        best = min(cover_value(dagger, c) for c in enumerated)
        assert value == pytest.approx(best)
        assert cover_value(dagger, cover) == pytest.approx(value)
