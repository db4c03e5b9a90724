"""Pure functions of an immutable tree are worked out once per tree.

``TreeTopology.fingerprint`` (the key of every topology cache) and
the default-rooted ``left_to_right_compute_order`` are memoized on the
tree: the digest must stay byte-equal to walking the tree again, a
derived tree must get its own, a pickled tree must come back with the
same one, and the memoized order must hand every caller a fresh list.
"""

import hashlib
import pickle
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.topology.tree import node_sort_key
from tests.strategies import BANDWIDTH_CHOICES, shaped_trees, tree_topologies


def recomputed_fingerprint(tree) -> str:
    """The digest walked from scratch, as the artifact layer did per lookup."""
    digest = hashlib.blake2b(digest_size=16)
    for node in sorted(tree.nodes, key=node_sort_key):
        digest.update(repr(node_sort_key(node)).encode())
        digest.update(b"\x01" if node in tree.compute_nodes else b"\x00")
    for (u, v) in sorted(
        tree.directed_edges, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))
    ):
        digest.update(
            repr((node_sort_key(u), node_sort_key(v), tree.bandwidth(u, v))).encode()
        )
    return digest.hexdigest()


any_tree = st.one_of(tree_topologies(min_nodes=2, max_nodes=14), shaped_trees())


@given(any_tree)
@settings(max_examples=150, deadline=None)
def test_the_memoized_digest_is_the_recomputed_one(tree):
    assert tree.fingerprint == recomputed_fingerprint(tree)
    assert tree.fingerprint is tree.fingerprint
    assert pickle.loads(pickle.dumps(tree)).fingerprint == tree.fingerprint


@given(any_tree, st.data())
@settings(max_examples=100, deadline=None)
def test_derived_trees_get_their_own_digest(tree, data):
    before = tree.fingerprint
    computes = data.draw(
        st.sets(st.sampled_from(sorted(tree.nodes, key=str)), min_size=1)
    )
    derived = [tree.with_compute_nodes(computes)]
    if tree.directed_edges:
        edge = data.draw(st.sampled_from(sorted(tree.directed_edges)))
        width = data.draw(st.sampled_from(BANDWIDTH_CHOICES))
        derived.append(tree.with_bandwidths({edge: width}))
    for other in derived:
        assert other.fingerprint == recomputed_fingerprint(other)
        same = (other.compute_nodes, other.directed_edges) == (
            tree.compute_nodes,
            tree.directed_edges,
        )
        assert (other.fingerprint == before) == same
    assert tree.fingerprint == before


def test_the_default_order_is_walked_once_and_handed_out_fresh():
    tree = repro.two_level([3, 2, 4])
    first = tree.left_to_right_compute_order()
    root = min(tree.nodes, key=node_sort_key)
    assert first == tree.left_to_right_compute_order(root)
    first.reverse()  # the caller's list, not the memo
    code = node_sort_key.__code__
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profiler)
    try:
        second = tree.left_to_right_compute_order()
    finally:
        sys.setprofile(None)
    assert calls == 0
    assert second == first[::-1]
    assert second is not tree.left_to_right_compute_order()
