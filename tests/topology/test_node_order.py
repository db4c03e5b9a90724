"""The tree decides the node order once.

``nodes``, ``compute_nodes``, ``routers`` and ``leaves()`` are tuples in
:func:`node_sort_key` order, built at construction; membership goes
through ``node in tree`` and ``is_compute_node``, both reading the one
node table ``compute_position`` (a router's entry is ``-1``).  A pickled tree comes
back with the same tuples, ids that print alike but differ in type
(``1`` and ``"1"``) stay two nodes, and the routing index and the
cluster number nodes by the tree's tuples instead of sorting their own.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster
from repro.topology.tree import TreeTopology, node_sort_key
from tests.strategies import shaped_trees


def accessors(tree) -> tuple:
    return tree.nodes, tree.compute_nodes, tree.routers, tree.leaves()


def with_mixed_ids(tree) -> TreeTopology:
    """``tree`` relabelled so that node ``i`` of its order is ``i // 2``
    for even ``i`` and ``str(i // 2)`` for odd: ``0`` and ``"0"``, ``1``
    and ``"1"``, ... all occur."""
    label = {v: i // 2 if i % 2 == 0 else str(i // 2) for i, v in enumerate(tree.nodes)}
    return TreeTopology(
        {(label[u], label[v]): w for (u, v), w in tree.directed_edges.items()},
        [label[v] for v in tree.compute_nodes],
    )


@given(shaped_trees(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_accessors_are_canonical_tuples(tree, mixed):
    if mixed:
        relabelled = with_mixed_ids(tree)
        assert relabelled.num_nodes == tree.num_nodes
        assert relabelled.num_compute_nodes == tree.num_compute_nodes
        tree = relabelled
    for nodes in accessors(tree):
        assert isinstance(nodes, tuple)
        assert list(nodes) == sorted(nodes, key=node_sort_key)
        assert len(set(nodes)) == len(nodes)
    computes = set(tree.compute_nodes)
    assert tree.routers == tuple(v for v in tree.nodes if v not in computes)
    assert tree.leaves() == tuple(v for v in tree.nodes if tree.degree(v) <= 1)
    assert list(tree.compute_position) == list(tree.nodes)
    for node in tree.nodes:
        assert node in tree
        assert tree.is_compute_node(node) == (node in computes)
        position = tree.compute_position[node]
        assert position == (tree.compute_nodes.index(node) if node in computes else -1)
        assert tree.neighbors(node) == sorted(tree.neighbors(node), key=node_sort_key)
    assert "ghost" not in tree and not tree.is_compute_node("ghost")
    assert accessors(pickle.loads(pickle.dumps(tree))) == accessors(tree)
    assert tree.nodes is tree.nodes  # held, not rebuilt per call


def test_int_and_string_ids_stay_distinct():
    tree = TreeTopology.from_undirected({(1, "1"): 1.0, ("1", 2): 2.0}, [1, 2])
    assert tree.nodes == (1, 2, "1")
    assert tree.compute_nodes == (1, 2)
    assert tree.routers == ("1",)
    assert tree.is_compute_node(1) and not tree.is_compute_node("1")
    assert dict(tree.compute_position) == {1: 0, 2: 1, "1": -1}
    assert "2" not in tree and 2 in tree
    assert tree.undirected_edges() == [(1, "1"), (2, "1")]


@given(shaped_trees())
@settings(max_examples=60, deadline=None)
def test_the_routing_index_and_the_cluster_read_the_trees_order(tree):
    index = tree.routing_index
    assert list(index.index_of) == list(tree.nodes)
    assert [tree.nodes[i] for i in index.compute_idx] == list(tree.compute_nodes)
    assert not hasattr(index, "nodes") and not hasattr(index, "compute_nodes")
    cluster = Cluster(tree)
    assert cluster.compute_order is tree.compute_nodes
