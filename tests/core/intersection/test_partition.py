"""Unit tests for α/β classification and the balanced partition (Alg. 3)."""

import tracemalloc

import pytest

from repro.core.intersection.partition import (
    _alpha_components,
    balanced_partition,
    block_spanning_edges,
    classify_edges,
    verify_balanced_partition,
)
from repro.topology.builders import caterpillar, star, two_level
from repro.topology.tree import TreeTopology


class TestClassifyEdges:
    def test_all_beta_when_r_small(self):
        tree = star(4)
        sizes = {f"v{i}": 100 for i in range(1, 5)}
        classification = classify_edges(tree, sizes, r_size=10)
        assert classification.num_alpha == 0
        assert classification.num_beta == 4

    def test_all_alpha_when_r_large(self):
        tree = star(4)
        sizes = {f"v{i}": 5 for i in range(1, 5)}
        classification = classify_edges(tree, sizes, r_size=10)
        assert classification.num_alpha == 4
        assert classification.num_beta == 0

    def test_mixed(self):
        tree = star(3)
        sizes = {"v1": 100, "v2": 100, "v3": 1}
        classification = classify_edges(tree, sizes, r_size=50)
        assert tree.canonical_edge("v3", "w") in classification.alpha
        assert tree.canonical_edge("v1", "w") in classification.beta

    def test_classification_is_direction_free(self):
        tree = two_level([2, 2])
        sizes = {"v1": 30, "v2": 30, "v3": 30, "v4": 30}
        classification = classify_edges(tree, sizes, r_size=20)
        assert classification.num_alpha + classification.num_beta == len(
            tree.undirected_edges()
        )


class TestBalancedPartition:
    def test_no_beta_edges_single_block(self):
        tree = star(4)
        sizes = {f"v{i}": 2 for i in range(1, 5)}
        blocks = balanced_partition(tree, sizes, r_size=100)
        assert blocks == [frozenset(tree.compute_nodes)]

    def test_all_heavy_star_gives_singletons(self):
        tree = star(4)
        sizes = {f"v{i}": 100 for i in range(1, 5)}
        blocks = balanced_partition(tree, sizes, r_size=10)
        assert sorted(len(b) for b in blocks) == [1, 1, 1, 1]

    def test_blocks_partition_computes(self):
        tree = two_level([3, 3])
        sizes = {f"v{i}": 10 * i for i in range(1, 7)}
        blocks = balanced_partition(tree, sizes, r_size=35)
        union = set()
        for block in blocks:
            assert not (union & block)
            union |= set(block)
        assert union == set(tree.compute_nodes)

    @pytest.mark.parametrize("r_size", [1, 10, 50, 100, 500])
    def test_definition1_on_two_level(self, r_size):
        tree = two_level([3, 3, 2])
        sizes = {f"v{i}": 17 * i % 97 for i in range(1, 9)}
        if sum(sizes.values()) < 2 * r_size:
            pytest.skip("outside the |R| <= |S| regime")
        blocks = balanced_partition(tree, sizes, r_size)
        violations = verify_balanced_partition(tree, sizes, r_size, blocks)
        assert violations == []

    @pytest.mark.parametrize("r_size", [1, 5, 20, 60])
    def test_definition1_on_caterpillar(self, r_size):
        tree = caterpillar(4, 2)
        sizes = {f"v{i}": (i * 13) % 40 for i in range(1, 9)}
        if sum(sizes.values()) < 2 * r_size:
            pytest.skip("outside the |R| <= |S| regime")
        blocks = balanced_partition(tree, sizes, r_size)
        assert verify_balanced_partition(tree, sizes, r_size, blocks) == []

    def test_zero_r_size(self):
        tree = star(3)
        sizes = {"v1": 5, "v2": 5, "v3": 5}
        blocks = balanced_partition(tree, sizes, r_size=0)
        union = frozenset().union(*blocks)
        assert union == set(tree.compute_nodes)

    def test_merging_respects_alpha_connectivity(self):
        # Rack 1 holds little data (α-connected through its router);
        # its nodes must land in one block together.
        tree = two_level([2, 2], leaf_bandwidth=1.0)
        sizes = {"v1": 3, "v2": 3, "v3": 50, "v4": 50}
        blocks = balanced_partition(tree, sizes, r_size=20)
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        assert block_of["v1"] == block_of["v2"]


class TestBlockSpanningEdges:
    def test_single_node_block_has_no_edges(self, simple_two_level):
        assert block_spanning_edges(simple_two_level, frozenset({"v1"})) == frozenset()

    def test_same_rack_block(self, simple_two_level):
        edges = block_spanning_edges(simple_two_level, frozenset({"v1", "v2"}))
        assert edges == {
            simple_two_level.canonical_edge("v1", "w1"),
            simple_two_level.canonical_edge("v2", "w1"),
        }

    def test_cross_rack_block_includes_core_links(self, simple_two_level):
        edges = block_spanning_edges(simple_two_level, frozenset({"v1", "v3"}))
        assert simple_two_level.canonical_edge("w1", "core") in edges
        assert simple_two_level.canonical_edge("w2", "core") in edges


class TestVerifier:
    def test_detects_overlap(self):
        tree = star(2)
        sizes = {"v1": 5, "v2": 5}
        violations = verify_balanced_partition(
            tree, sizes, 1, [frozenset({"v1", "v2"}), frozenset({"v2"})]
        )
        assert any("overlap" in v for v in violations)

    def test_detects_missing_cover(self):
        tree = star(2)
        violations = verify_balanced_partition(
            tree, {"v1": 5, "v2": 5}, 1, [frozenset({"v1"})]
        )
        assert any("cover" in v for v in violations)

    def test_detects_underweight_block(self):
        tree = star(2)
        violations = verify_balanced_partition(
            tree,
            {"v1": 5, "v2": 5},
            100,
            [frozenset({"v1"}), frozenset({"v2"})],
        )
        assert any("< |R|" in v for v in violations)


def test_verify_keeps_no_side_sets():
    """Definition 1's checks are per-link sums over arrays: on 1 057
    nodes they allocate well under a MiB and leave nothing on the tree
    (a frozenset pair per link costs O(nodes x links), ~100 MiB here)."""
    tree = two_level([32] * 32)
    sizes = {v: 1 + i % 7 for i, v in enumerate(sorted(tree.compute_nodes, key=str))}
    blocks = balanced_partition(tree, sizes, r_size=100)
    assert len(blocks) == 32
    tracemalloc.start()
    try:
        assert verify_balanced_partition(tree, sizes, 100, blocks) == []
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert kept < 2**20


def test_alpha_component_ids_follow_the_node_order():
    """Component ids (named in violation messages) number components by
    their first node, not by the union-find root the α-edges' merge
    order — a frozenset's, so the hash seed's — happened to leave."""
    tree = TreeTopology.from_undirected(
        {("n1", "n9"): 1.0, ("n2", "n9"): 1.0, ("n2", "n3"): 1.0}, ["n1", "n3"]
    )
    component_of = _alpha_components(tree, frozenset({("n1", "n9"), ("n2", "n3")}))
    assert component_of == {"n1": 0, "n9": 0, "n2": 1, "n3": 1}
