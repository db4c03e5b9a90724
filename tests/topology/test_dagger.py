"""Unit tests for the G-dagger orientation (Lemma 4) and its covers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.suites import standard_topologies
from repro.errors import TopologyError
from repro.topology.builders import star, two_level
from repro.topology.dagger import (
    build_dagger,
    cover_value,
    minimal_covers,
    optimal_cover,
)
from repro.topology.tree import TreeTopology, node_sort_key

from tests.strategies import node_sizes, tree_topologies

SUITE = standard_topologies(include_random=False)


def _covers_every_leaf(dagger, cover) -> bool:
    """Every dagger leaf has itself or an ancestor in ``cover``."""
    for leaf in dagger.dagger_leaves():
        node = leaf
        while node not in cover:
            if node not in dagger.parent:
                return False
            node = dagger.parent[node]
    return True


class TestOrientation:
    def test_star_points_to_center_under_balance(self):
        tree = star(4)
        dagger = build_dagger(tree, {f"v{i}": 10 for i in range(1, 5)})
        assert dagger.root == "w"
        assert not dagger.root_is_compute
        assert all(dagger.parent[v] == "w" for v in tree.compute_nodes)

    def test_heavy_node_becomes_root(self):
        tree = star(4)
        weights = {"v1": 100, "v2": 1, "v3": 1, "v4": 1}
        dagger = build_dagger(tree, weights)
        assert dagger.root == "v1"
        assert dagger.root_is_compute

    def test_out_degree_at_most_one(self, simple_two_level):
        dagger = build_dagger(
            simple_two_level, {f"v{i}": i for i in range(1, 6)}
        )
        # parent is a dict: one out-edge per node by construction; verify
        # the root is the only node without a parent.
        missing = [
            v for v in simple_two_level.nodes if v not in dagger.parent
        ]
        assert missing == [dagger.root]

    def test_exact_tie_has_unique_root(self):
        # Two nodes with exactly half the data each: both link
        # orientations satisfy the paper's rule; the pivot tie-break
        # must still produce a unique root (Lemma 4(2)).
        tree = star(2)
        dagger = build_dagger(tree, {"v1": 5, "v2": 5})
        roots = [v for v in tree.nodes if v not in dagger.parent]
        assert len(roots) == 1

    def test_zero_weights_everywhere(self):
        tree = star(3)
        dagger = build_dagger(tree, {})
        roots = [v for v in tree.nodes if v not in dagger.parent]
        assert len(roots) == 1

    def test_out_bandwidths_match_tree(self, simple_two_level):
        dagger = build_dagger(
            simple_two_level, {f"v{i}": 1 for i in range(1, 6)}
        )
        for node, parent in dagger.parent.items():
            assert dagger.out_bandwidth[node] == simple_two_level.bandwidth(
                node, parent
            )

    def test_rejects_weight_on_router(self, simple_two_level):
        with pytest.raises(TopologyError, match="not a compute node"):
            build_dagger(simple_two_level, {"core": 5})

    def test_rejects_asymmetric_tree(self):
        tree = TreeTopology({("a", "b"): 1.0, ("b", "a"): 2.0}, ["a", "b"])
        with pytest.raises(TopologyError, match="symmetric"):
            build_dagger(tree, {"a": 1})

    def test_children_and_leaves(self, simple_two_level):
        dagger = build_dagger(
            simple_two_level, {f"v{i}": 1 for i in range(1, 6)}
        )
        for leaf in dagger.dagger_leaves():
            assert not dagger.children(leaf)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_children_are_the_parent_scan(self, data):
        """The child lists built once equal a scan of every parent
        pointer, in ``node_sort_key`` order, and come back as copies."""
        tree = data.draw(tree_topologies(min_nodes=2, max_nodes=12))
        dagger = build_dagger(tree, data.draw(node_sizes(tree)))
        for node in tree.nodes:
            scan = sorted(
                (v for v, p in dagger.parent.items() if p == node),
                key=node_sort_key,
            )
            assert dagger.children(node) == scan
        dagger.children(dagger.root).append("stray")
        assert "stray" not in dagger.children(dagger.root)

    def test_subtree_nodes(self):
        tree = two_level([2, 2])
        dagger = build_dagger(tree, {"v1": 1, "v2": 1, "v3": 5, "v4": 5})
        root_subtree = dagger.subtree_nodes(dagger.root)
        assert root_subtree == set(tree.nodes)


class TestCovers:
    def make_dagger(self):
        tree = two_level(
            [2, 2], leaf_bandwidth=[1.0, 4.0], uplink_bandwidth=[2.0, 8.0]
        )
        return build_dagger(tree, {v: 1 for v in tree.compute_nodes})

    def test_optimal_cover_is_minimal_over_enumeration(self):
        dagger = self.make_dagger()
        _, best = optimal_cover(dagger)
        enumerated = [
            cover_value(dagger, cover) for cover in minimal_covers(dagger)
        ]
        assert best == pytest.approx(min(enumerated))

    def test_optimal_cover_is_a_minimal_cover(self):
        dagger = self.make_dagger()
        cover, value = optimal_cover(dagger)
        assert cover in set(minimal_covers(dagger))
        assert cover_value(dagger, cover) == pytest.approx(value)

    def test_enumeration_includes_leaf_cover(self):
        dagger = self.make_dagger()
        leaf_cover = frozenset(dagger.dagger_leaves())
        assert leaf_cover in set(minimal_covers(dagger))

    def test_root_alone_excluded(self):
        dagger = self.make_dagger()
        for cover in minimal_covers(dagger):
            assert cover != frozenset({dagger.root})

    def test_every_cover_covers_every_leaf(self):
        dagger = self.make_dagger()
        for cover in minimal_covers(dagger):
            assert _covers_every_leaf(dagger, cover), cover

    @pytest.mark.parametrize("tree", SUITE, ids=lambda tree: tree.name)
    def test_optimal_cover_is_best_over_enumeration_on_the_suite(self, tree):
        """Lemma 8(3) on every standard topology."""
        dagger = build_dagger(tree, {v: 1 for v in tree.compute_nodes})
        cover, best = optimal_cover(dagger)
        enumerated = {c: cover_value(dagger, c) for c in minimal_covers(dagger)}
        assert cover in enumerated
        assert best == pytest.approx(min(enumerated.values()))

    @pytest.mark.parametrize("tree", SUITE, ids=lambda tree: tree.name)
    def test_every_enumerated_cover_is_minimal(self, tree):
        dagger = build_dagger(tree, {v: 1 for v in tree.compute_nodes})
        covers = list(minimal_covers(dagger))
        assert covers
        for cover in covers:
            assert _covers_every_leaf(dagger, cover)
            # dropping any one node uncovers some leaf
            for node in cover:
                assert not _covers_every_leaf(dagger, cover - {node})

    @pytest.mark.parametrize("tree", SUITE, ids=lambda tree: tree.name)
    def test_enumeration_is_distinct_and_complete(self, tree):
        """One cover per choice: a node either stands for its subtree or
        defers to its children, independently per child."""
        dagger = build_dagger(tree, {v: 1 for v in tree.compute_nodes})

        def count(node):
            children = dagger.children(node)
            return 1 + math.prod(map(count, children)) if children else 1

        covers = list(minimal_covers(dagger))
        assert len(set(covers)) == len(covers)
        assert len(covers) == math.prod(map(count, dagger.children(dagger.root)))

    def test_single_node_tree_has_no_cover(self):
        tree = TreeTopology({}, ["only"])
        dagger = build_dagger(tree, {"only": 3})
        with pytest.raises(TopologyError):
            optimal_cover(dagger)

    def test_star_cover_is_all_leaves_when_center_rooted(self):
        tree = star(3, bandwidth=[1.0, 1.0, 1.0])
        dagger = build_dagger(tree, {v: 1 for v in tree.compute_nodes})
        cover, value = optimal_cover(dagger)
        assert cover == set(tree.compute_nodes)
        assert value == pytest.approx(3**0.5)
