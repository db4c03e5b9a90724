"""The two per-link kernels against their set-based definitions.

``RoutingIndex.subtree_sums`` must equal "the link's sides, then ``sum``
(or ``min`` / ``max``)" and ``RoutingIndex.steiner_counts`` must equal
"the set intersection of the two sides' keys", link by link.  The sides
come from the Section-2 model (``tests/model/paths.py``), a walk that
never reads the routing index.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology, node_sort_key
from tests.model.paths import node_sides, sides
from tests.strategies import node_sizes, shaped_trees, tree_topologies


@st.composite
def trees_with_any_compute_set(draw):
    """Random trees whose compute nodes are any non-empty node subset:
    leaves may be routers (router-only subtrees), hubs may compute."""
    tree = draw(tree_topologies(max_nodes=14))
    nodes = sorted(tree.nodes, key=str)
    chosen = draw(st.sets(st.sampled_from(nodes), min_size=1))
    return tree.with_compute_nodes(chosen)


def path_tree(length: int) -> TreeTopology:
    edges = {(f"p{i:03d}", f"p{i + 1:03d}"): 1.0 for i in range(length)}
    return TreeTopology.from_undirected(edges, ["p000", f"p{length:03d}"])


def single_node_tree() -> TreeTopology:
    return TreeTopology({}, ["only"])


def assert_same_dict(found: dict, expected: dict) -> None:
    """Equal values, equal key order, and plain Python numbers throughout."""
    assert list(found) == list(expected)
    assert found == expected
    for value in found.values():
        for number in value if isinstance(value, tuple) else (value,):
            assert type(number) in (int, float)


def side_weights_reference(tree, weights) -> dict:
    """Per link, ``sum`` of ``weights`` over each side's compute nodes."""
    return {
        edge: tuple(sum(weights.get(v, 0) for v in side) for side in sides(tree, edge))
        for edge in tree.undirected_edges()
    }


def shared_key_counts_reference(tree, keys_by_node) -> dict:
    """Per link, the keys held on both sides."""

    def held(side):
        return set().union(*(keys_by_node.get(v, ()) for v in side))

    return {
        edge: len(held(a) & held(b))
        for edge, (a, b) in ((e, sides(tree, e)) for e in tree.undirected_edges())
    }


def shared_key_counts(tree, keys_by_node) -> dict:
    """``steiner_counts`` keyed by link, fed the way
    ``LowerBound.from_shared_keys`` feeds it: every key held, paired with
    its holder's routing index (compute nodes only, repeats allowed)."""
    index = tree.routing_index
    held = {
        index.index_of[v]: keys
        for v, keys in keys_by_node.items()
        if v in tree.compute_nodes
    }
    counts = index.steiner_counts(
        np.repeat(list(held), [len(keys) for keys in held.values()]),
        np.concatenate([np.empty(0, np.int64), *held.values()]),
    )
    return dict(zip(tree.undirected_edges(), counts[index.link_child].tolist()))


class TestSubtreeSums:
    @given(data=st.data(), tree=trees_with_any_compute_set())
    @settings(max_examples=150, deadline=None)
    def test_integer_weights_equal_the_set_based_sums(self, data, tree):
        sizes = data.draw(node_sizes(tree))
        found = tree.side_weights(sizes)
        assert_same_dict(found, side_weights_reference(tree, sizes))
        assert all(type(x) is int for pair in found.values() for x in pair)

    @given(data=st.data(), tree=trees_with_any_compute_set())
    @settings(max_examples=150, deadline=None)
    def test_float_weights_sum_by_additions_only(self, data, tree):
        weights = {
            v: data.draw(st.sampled_from([0.0, 0.1, 1e-9, 3.7, 1e12]))
            for v in sorted(tree.compute_nodes, key=str)
        }
        found = tree.side_weights(weights)
        expected = side_weights_reference(tree, weights)
        assert list(found) == list(expected)
        for edge, sides in found.items():
            for got, want in zip(sides, expected[edge]):
                assert type(got) is float
                # float64 sums of n non-negative terms in two orders
                # differ by at most n ulps of the result
                assert math.isclose(got, want, rel_tol=len(weights) * 2**-52, abs_tol=0.0)
                if want == 0:  # total - subtree would leave 1e12's rounding here
                    assert got == 0.0

    @given(data=st.data(), tree=trees_with_any_compute_set())
    @settings(max_examples=100, deadline=None)
    def test_kernel_on_all_nodes_matches_edge_sides(self, data, tree):
        index = tree.routing_index
        weights = np.array(
            [data.draw(st.integers(0, 9)) for _ in tree.nodes], dtype=np.int64
        )
        below, above = index.subtree_sums(weights)
        by_node = dict(zip(tree.nodes, weights.tolist()))
        for (a, b), child, first in zip(
            tree.undirected_edges(), index.link_child, index.link_child_first
        ):
            a_side, b_side = node_sides(tree, (a, b))
            a_sum = sum(by_node[v] for v in a_side)
            b_sum = sum(by_node[v] for v in b_side)
            assert tree.nodes[child] == (a if first else b)
            assert (below[child], above[child]) == (
                (a_sum, b_sum) if first else (b_sum, a_sum)
            )

    @given(data=st.data(), tree=trees_with_any_compute_set())
    @settings(max_examples=100, deadline=None)
    def test_min_and_max_match_edge_sides(self, data, tree):
        index = tree.routing_index
        values = np.array(
            [data.draw(st.integers(-9, 9)) for _ in tree.nodes], dtype=np.int64
        )
        by_node = dict(zip(tree.nodes, values.tolist()))
        for ufunc, reduce, identity in [(np.minimum, min, 99), (np.maximum, max, -99)]:
            below, above = index.subtree_sums(values, ufunc, identity)
            for (a, b), child, first in zip(
                tree.undirected_edges(), index.link_child, index.link_child_first
            ):
                a_side, b_side = node_sides(tree, (a, b))
                a_end = reduce(by_node[v] for v in a_side)
                b_end = reduce(by_node[v] for v in b_side)
                assert (below[child], above[child]) == (
                    (a_end, b_end) if first else (b_end, a_end)
                )

    def test_min_and_max_of_an_empty_side_are_the_identity(self):
        tree = path_tree(3)
        index = tree.routing_index
        assert tree.nodes == ("p000", "p001", "p002", "p003")
        below, above = index.subtree_sums(np.array([7, 50, 50, 50]), np.minimum, 50)
        # p000 is the root: its subtree is everything, its outside nothing
        assert below.tolist() == [7, 50, 50, 50]
        assert above.tolist() == [50, 7, 7, 7]

    def test_weights_for_routers_and_strangers_are_ignored(self):
        tree = two_level([2, 2])
        sizes = dict.fromkeys(tree.compute_nodes, 3)
        noisy = {**sizes, **dict.fromkeys(tree.routers, 100), "nowhere": 7}
        assert tree.side_weights(noisy) == tree.side_weights(sizes)
        assert tree.side_weights(sizes) == side_weights_reference(tree, sizes)

    def test_missing_weights_count_as_zero(self):
        tree = two_level([2, 3])
        assert_same_dict(tree.side_weights({}), side_weights_reference(tree, {}))

    @pytest.mark.parametrize(
        "tree",
        [star(1), star(7), path_tree(1), path_tree(200), two_level([3, 1, 4])],
        ids=["star-1", "star-7", "path-1", "path-200", "two-level"],
    )
    def test_shapes(self, tree):
        sizes = {v: i + 1 for i, v in enumerate(sorted(tree.compute_nodes, key=str))}
        assert_same_dict(tree.side_weights(sizes), side_weights_reference(tree, sizes))

    def test_single_node_tree_has_no_links(self):
        tree = single_node_tree()
        assert tree.side_weights({"only": 5}) == {}
        assert shared_key_counts(tree, {"only": np.array([1, 2])}) == {}
        assert tree.undirected_edges() == []


class TestSteinerCounts:
    @given(data=st.data(), tree=trees_with_any_compute_set())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_link_intersection(self, data, tree):
        # few keys, so fragments repeat keys, share keys across nodes,
        # hold keys nobody else has, and are sometimes empty
        fragment = st.lists(st.integers(0, 8), max_size=6)
        keys_by_node = {
            v: np.array(data.draw(fragment), dtype=np.int64)
            for v in sorted(tree.compute_nodes, key=str)
        }
        assert_same_dict(
            shared_key_counts(tree, keys_by_node),
            shared_key_counts_reference(tree, keys_by_node),
        )

    def test_key_on_one_node_crosses_no_link(self):
        tree = two_level([2, 2])
        first = min(tree.compute_nodes, key=str)
        counts = shared_key_counts(tree, {first: np.array([4, 4, 9])})
        assert set(counts.values()) == {0}

    def test_duplicates_on_a_node_count_once(self):
        tree = star(3)
        a, b, c = sorted(tree.compute_nodes, key=str)
        keys = {a: np.array([5, 5, 5]), b: np.array([5, 5]), c: np.array([6])}
        assert_same_dict(
            shared_key_counts(tree, keys), shared_key_counts_reference(tree, keys)
        )
        assert sorted(shared_key_counts(tree, keys).values()) == [0, 1, 1]

    def test_empty_and_missing_fragments(self):
        tree = two_level([2, 3])
        empty = {v: np.empty(0, np.int64) for v in tree.compute_nodes}
        zeros = dict.fromkeys(tree.undirected_edges(), 0)
        assert shared_key_counts(tree, empty) == zeros
        assert shared_key_counts(tree, {}) == zeros

    def test_keys_on_routers_are_ignored(self):
        tree = two_level([2, 2])
        keys = {v: np.array([1]) for v in tree.nodes}
        only_compute = {v: np.array([1]) for v in tree.compute_nodes}
        assert shared_key_counts(tree, keys) == shared_key_counts(tree, only_compute)

    def test_deep_path(self):
        tree = path_tree(200)
        keys = {"p000": np.array([1, 2, 3]), "p200": np.array([2, 3, 4])}
        assert set(shared_key_counts(tree, keys).values()) == {2}


@st.composite
def profile_stacks(draw, tree: TreeTopology) -> np.ndarray:
    """Float profiles in compute order, one per row: an all-zero row,
    then rows of zeros, small integers and ``2**53`` next to ones, whose
    float sums come out differently in different orders."""
    count = tree.num_compute_nodes
    values = st.sampled_from([0.0, 0.0, 1.0, 3.0, 2.0**53, 2.0**53 + 2])
    rows = [[0.0] * count] + [
        [draw(values) for _ in range(count)]
        for _ in range(draw(st.integers(1, 5)))
    ]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.float64)


class TestStackedKernel:
    """A stack of profiles is one kernel pass whose every row (column,
    on the routing index) equals the one-profile call, bit for bit."""

    @given(data=st.data(), tree=shaped_trees())
    @settings(max_examples=120, deadline=None)
    def test_link_side_sums_of_a_stack_are_its_rows_summed_alone(self, data, tree):
        stack = data.draw(profile_stacks(tree))
        first, second = tree.link_side_sums(stack)
        assert first.shape == second.shape == (len(stack), len(tree.undirected_edges()))
        for i, profile in enumerate(stack):
            alone = tree.link_side_sums(profile)
            assert np.array_equal(first[i], alone[0])
            assert np.array_equal(second[i], alone[1])

    @given(data=st.data(), tree=shaped_trees())
    @settings(max_examples=120, deadline=None)
    def test_subtree_sums_of_a_stack_are_its_columns_alone(self, data, tree):
        index = tree.routing_index
        rows = data.draw(profile_stacks(tree))
        stack = np.zeros((index.num_nodes, len(rows)))
        stack[index.compute_idx] = rows.T
        for ufunc, identity in ((np.add, 0), (np.minimum, np.inf), (np.maximum, -np.inf)):
            below, above = index.subtree_sums(stack, ufunc, identity)
            for j in range(len(rows)):
                alone = index.subtree_sums(stack[:, j].copy(), ufunc, identity)
                assert np.array_equal(below[:, j], alone[0])
                assert np.array_equal(above[:, j], alone[1])


class TestLinkArrays:
    """The array presentation the planner's cost model reads."""

    @given(data=st.data(), tree=trees_with_any_compute_set())
    @settings(max_examples=80, deadline=None)
    def test_side_weights_is_link_side_sums_keyed_by_link(self, data, tree):
        sizes = data.draw(node_sizes(tree))
        values = np.array([sizes[v] for v in tree.compute_nodes])
        first, second = tree.link_side_sums(values)
        assert tree.side_weights(sizes) == dict(
            zip(tree.undirected_edges(), zip(first.tolist(), second.tolist()))
        )

    @given(data=st.data(), tree=trees_with_any_compute_set())
    @settings(max_examples=80, deadline=None)
    def test_links_facing_is_membership_in_the_second_side(self, data, tree):
        node = data.draw(st.sampled_from(sorted(tree.nodes, key=str)))
        expected = [node in node_sides(tree, e)[1] for e in tree.undirected_edges()]
        assert tree.links_facing(node).tolist() == expected

    def test_bandwidth_arrays_follow_the_link_order(self):
        tree = two_level([2, 3], uplink_bandwidth=[1, 4])
        slow = tree.undirected_edges()[0]
        lopsided = tree.with_bandwidths({slow: 0.25})
        index = lopsided.routing_index
        links = lopsided.undirected_edges()
        assert index.link_forward.tolist() == [lopsided.bandwidth(a, b) for a, b in links]
        assert index.link_backward.tolist() == [lopsided.bandwidth(b, a) for a, b in links]
        assert tree.undirected_bandwidths().tolist() == [
            tree.undirected_bandwidth(edge) for edge in links
        ]
        with pytest.raises(TopologyError) as one_link:
            lopsided.undirected_bandwidth(slow)
        with pytest.raises(TopologyError) as all_links:
            lopsided.undirected_bandwidths()
        assert str(all_links.value) == str(one_link.value)

    def test_a_single_node_tree_has_empty_arrays(self):
        tree = single_node_tree()
        first, second = tree.link_side_sums(np.array([3.0]))
        assert len(first) == len(second) == 0
        assert len(tree.links_facing("only")) == 0
        assert len(tree.undirected_bandwidths()) == 0
        with pytest.raises(TopologyError):
            tree.links_facing("nowhere")


class TestLinksAndIndexOwnership:
    @given(tree=trees_with_any_compute_set())
    @settings(max_examples=60, deadline=None)
    def test_undirected_edges_order_is_unchanged(self, tree):
        canonical = {tuple(sorted(e, key=node_sort_key)) for e in tree.directed_edges}
        assert tree.undirected_edges() == sorted(
            canonical, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))
        )

    def test_undirected_edges_returns_a_fresh_list(self):
        tree = two_level([2, 2])
        edges = tree.undirected_edges()
        edges.clear()
        assert len(tree.undirected_edges()) == tree.num_nodes - 1

    def test_oracle_serves_the_trees_index(self):
        from repro.topology.steiner import PathOracle

        tree = two_level([2, 2])
        assert PathOracle(tree).routing_index is tree.routing_index

    def test_pickle_drops_the_derived_structures(self):
        tree = two_level([4, 4])
        fresh = len(pickle.dumps(tree))
        tree.side_weights(dict.fromkeys(tree.compute_nodes, 1))
        assert tree._routing_index is not None
        blob = pickle.dumps(tree)
        assert len(blob) == fresh
        clone = pickle.loads(blob)
        assert clone.undirected_edges() == tree.undirected_edges()
        sizes = {v: i for i, v in enumerate(sorted(tree.compute_nodes, key=str))}
        assert clone.side_weights(sizes) == tree.side_weights(sizes)
