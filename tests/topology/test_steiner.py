"""The routing kernels' link sets against the union of tree paths.

A unicast crosses the links of its tree path; a deduplicated multicast
crosses each link of the union of its source-to-destination paths once
(the Section-2 model's walk, ``tests/model/paths.py``).  One element sent
through :class:`RoutingIndex` must load exactly those directed links, its
LCAs must be the nodes where the model's paths turn, and its kernels must
agree with the model on trees deeper than any random strategy draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.topology.builders import caterpillar, two_level
from tests.link_loads import loaded_links, multicast_links, unicast_links
from tests.model.paths import ancestors, path_edges, path_nodes, steiner_links
from tests.strategies import tree_topologies
from tests.topology.test_tree_kernels import (
    path_tree,
    shared_key_counts,
    shared_key_counts_reference,
    single_node_tree,
)

DEEP_TREES = {
    "path-300": lambda: path_tree(300),
    "caterpillar-200x2": lambda: caterpillar(200, 2),
}


def model_meet(tree, u, v):
    """The node where the model's path from ``u`` to ``v`` stops climbing."""
    return min(path_nodes(tree, u, v), key=lambda node: len(ancestors(tree, node)))


def assert_lca_is_the_meet(tree, pairs) -> None:
    index = tree.routing_index
    a = np.array([index.index_of[u] for u, _ in pairs], dtype=np.intp)
    b = np.array([index.index_of[v] for _, v in pairs], dtype=np.intp)
    found = [tree.nodes[i] for i in index.lca(a, b).tolist()]
    assert found == [model_meet(tree, u, v) for u, v in pairs]


def depth_of(tree) -> int:
    return max(len(ancestors(tree, node)) for node in tree.nodes) - 1


class TestSteinerLinks:
    def setup_method(self):
        self.tree = two_level([2, 3])

    def test_path_matches_tree(self):
        assert unicast_links(self.tree, "v1", "v3") == dict.fromkeys(
            path_edges(self.tree, "v1", "v3"), 1
        )

    def test_path_to_self_empty(self):
        assert unicast_links(self.tree, "v2", "v2") == {}

    def test_steiner_single_destination_is_path(self):
        assert multicast_links(self.tree, "v1", ["v4"]) == dict.fromkeys(
            path_edges(self.tree, "v1", "v4"), 1
        )

    def test_steiner_dedups_shared_prefix(self):
        # v1 -> {v3, v4}: the shared segment v1..w2 is charged once.
        links = multicast_links(self.tree, "v1", ["v3", "v4"])
        assert links[("v1", "w1")] == 1
        assert links[("w1", "core")] == 1
        assert ("w2", "v3") in links
        assert ("w2", "v4") in links
        assert len(links) == 5
        assert set(links.values()) == {1}

    def test_steiner_covers_union_of_paths(self):
        destinations = ["v2", "v3", "v5"]
        links = multicast_links(self.tree, "v1", destinations)
        assert links == dict.fromkeys(steiner_links(self.tree, "v1", destinations), 1)

    def test_steiner_to_self_only(self):
        assert multicast_links(self.tree, "v1", ["v1"]) == {}

    def test_destination_order_irrelevant(self):
        forward = multicast_links(self.tree, "v1", ["v3", "v4"])
        backward = multicast_links(self.tree, "v1", ["v4", "v3"])
        assert forward == backward

    def test_edges_directed_away_from_source(self):
        for (u, v) in multicast_links(self.tree, "v5", ["v1", "v2"]):
            # every edge points from the v5 side toward the destinations
            path = path_nodes(self.tree, "v5", v)
            assert path.index(v) > path_nodes(self.tree, "v5", u).index(u)


class TestLca:
    @given(tree=tree_topologies(min_nodes=2, max_nodes=14))
    @settings(max_examples=100, deadline=None)
    def test_every_pair_meets_where_the_model_turns(self, tree):
        assert_lca_is_the_meet(tree, [(u, v) for u in tree.nodes for v in tree.nodes])

    @pytest.mark.parametrize("name", DEEP_TREES)
    def test_deep_trees(self, name):
        tree = DEEP_TREES[name]()
        assert depth_of(tree) >= 200
        nodes = tree.nodes
        # every node against both ends of the preorder, the deepest node,
        # a middle node and itself; the pairs in both orders
        fixed = [nodes[0], nodes[-1], nodes[len(nodes) // 2],
                 max(nodes, key=lambda node: len(ancestors(tree, node)))]
        pairs = [(u, v) for u in nodes for v in (*fixed, u)]
        assert_lca_is_the_meet(tree, pairs + [(v, u) for u, v in pairs])

    def test_ancestors_and_descendants(self):
        tree = path_tree(300)
        chain = ancestors(tree, "p300")
        pairs = [(chain[i], chain[j]) for i in range(0, 301, 7) for j in range(0, 301, 11)]
        assert_lca_is_the_meet(tree, pairs)
        index = tree.routing_index
        deepest = index.index_of["p300"]
        assert tree.nodes[index.lca([deepest], [index.index_of["p000"]])[0]] == "p000"

    def test_single_node_and_empty_arrays(self):
        assert_lca_is_the_meet(single_node_tree(), [("only", "only")] * 2)
        found = two_level([2, 3]).routing_index.lca(np.empty(0, np.intp), np.empty(0, np.intp))
        assert found.shape == (0,)


class TestDeepTrees:
    """The kernels against the model where the tree is 100+ links deep."""

    def setup_method(self):
        self.tree = caterpillar(120, 1)
        self.index = self.tree.routing_index
        self.rng = np.random.default_rng(5)
        assert depth_of(self.tree) >= 100

    def test_unicast_loads(self):
        computes = self.tree.compute_nodes
        src = self.rng.integers(len(computes), size=60)
        dst = self.rng.integers(len(computes), size=60)
        counts = self.rng.integers(1, 5, size=60)
        expected: dict = {}
        for s, d, count in zip(src.tolist(), dst.tolist(), counts.tolist()):
            for edge in path_edges(self.tree, computes[s], computes[d]):
                expected[edge] = expected.get(edge, 0) + count
        at = self.index.compute_idx
        loads = self.index.unicast_loads(at[src], at[dst], counts)
        assert loaded_links(self.tree, loads) == expected

    def test_multicast_loads(self):
        computes = self.tree.compute_nodes
        srcs, flat, starts, ends, counts = [], [], [], [], []
        expected: dict = {}
        for group in range(25):
            src = computes[self.rng.integers(len(computes))]
            # repeats, the source itself and empty destination sets included
            dsts = [computes[i] for i in self.rng.integers(len(computes), size=group % 6)]
            if group % 4 == 0:
                dsts.append(src)
            srcs.append(self.index.index_of[src])
            starts.append(len(flat))
            flat.extend(self.index.index_of[d] for d in dsts)
            ends.append(len(flat))
            counts.append(group + 1)
            for edge in steiner_links(self.tree, src, dsts):
                expected[edge] = expected.get(edge, 0) + group + 1
        loads = self.index.multicast_loads(srcs, flat, starts, ends, counts)
        assert loaded_links(self.tree, loads) == expected

    def test_steiner_counts(self):
        keys_by_node = {
            v: self.rng.integers(-3, 12, size=self.rng.integers(0, 4)) * 10**12
            for v in self.tree.compute_nodes
        }
        assert shared_key_counts(self.tree, keys_by_node) == shared_key_counts_reference(
            self.tree, keys_by_node
        )
