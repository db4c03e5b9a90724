"""The per-link aggregates by their set-based definitions: the reference model.

These are the per-edge Python loops that production code ran before the
``RoutingIndex`` kernels (``subtree_sums``, ``steiner_counts``) replaced
them: walk ``compute_sides`` per link and ``sum`` / ``np.intersect1d``
the two sides.  They are slow and obviously right, which is what a
reference is for.  :func:`reference_model` swaps them in under the
registered bounds, so every bound can be recomputed the old way and
compared field by field with what the kernels produce.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.common import LowerBound
from repro.graphs.model import DEFAULT_EDGE_TAG, decode_edges
from repro.graphs.reference import reference_components
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.topology.tree import TreeTopology, node_sort_key


def undirected_edges_reference(tree: TreeTopology) -> list:
    """All links as canonical undirected edges, sorted on every call."""
    seen = set()
    result = []
    for (u, v) in tree.directed_edges:
        edge = (u, v) if node_sort_key(u) <= node_sort_key(v) else (v, u)
        if edge not in seen:
            seen.add(edge)
            result.append(edge)
    result.sort(key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1])))
    return result


def side_weights_reference(tree: TreeTopology, weights) -> dict:
    """``(sum over V-e, sum over V+e)`` per link, one ``sum`` per side."""
    result = {}
    for edge in undirected_edges_reference(tree):
        a_side, b_side = tree.compute_sides(edge)
        result[edge] = (
            sum(weights.get(v, 0) for v in a_side),
            sum(weights.get(v, 0) for v in b_side),
        )
    return result


def shared_key_counts_reference(tree: TreeTopology, keys_by_node) -> dict:
    """Distinct keys on both sides per link, one ``intersect1d`` per link."""
    result = {}
    for edge in undirected_edges_reference(tree):
        a_side, b_side = tree.compute_sides(edge)
        a_keys = [keys_by_node[v] for v in a_side if len(keys_by_node.get(v, ()))]
        b_keys = [keys_by_node[v] for v in b_side if len(keys_by_node.get(v, ()))]
        if not a_keys or not b_keys:
            result[edge] = 0
            continue
        result[edge] = len(
            np.intersect1d(np.concatenate(a_keys), np.concatenate(b_keys))
        )
    return result


@contextmanager
def reference_model():
    """Run the enclosed bound computations on the per-edge loops."""
    kernels = (TreeTopology.side_weights, TreeTopology.shared_key_counts)
    TreeTopology.side_weights = side_weights_reference
    TreeTopology.shared_key_counts = shared_key_counts_reference
    try:
        yield
    finally:
        TreeTopology.side_weights, TreeTopology.shared_key_counts = kernels


# --------------------------------------------------------------------- #
# the three shared-key bounds, start to finish, as they were
# --------------------------------------------------------------------- #


def _shared_key_bound(tree, node_keys, description) -> LowerBound:
    per_edge = {
        edge: shared / (2.0 * tree.undirected_bandwidth(edge))
        for edge, shared in shared_key_counts_reference(tree, node_keys).items()
    }
    return LowerBound.from_per_edge(per_edge, description)


def groupby_lower_bound_reference(
    tree, distribution, *, tag="R", payload_bits=DEFAULT_PAYLOAD_BITS
) -> LowerBound:
    node_keys = {}
    for v in sorted(tree.compute_nodes, key=node_sort_key):
        keys, _ = decode_tuples(
            distribution.fragment(v, tag), payload_bits=payload_bits
        )
        node_keys[v] = np.unique(keys)
    return _shared_key_bound(
        tree, node_keys, "per-link shared-key counting (group-by)"
    )


def triangles_lower_bound_reference(
    tree, distribution, *, tag=DEFAULT_EDGE_TAG
) -> LowerBound:
    node_vertices = {}
    for v in sorted(tree.compute_nodes, key=node_sort_key):
        fragment = distribution.fragment(v, tag)
        if not len(fragment):
            node_vertices[v] = np.empty(0, np.int64)
            continue
        src, dst = decode_edges(fragment)
        node_vertices[v] = np.unique(np.concatenate([src, dst]))
    return _shared_key_bound(
        tree, node_vertices, "per-link shared-vertex counting (triangles)"
    )


def components_lower_bound_reference(
    tree, distribution, *, tag=DEFAULT_EDGE_TAG
) -> LowerBound:
    description = "per-link spanning-component counting (connectivity)"
    computes = sorted(tree.compute_nodes, key=node_sort_key)
    fragments = {v: distribution.fragment(v, tag) for v in computes}
    all_edges = [f for f in fragments.values() if len(f)]
    if not all_edges:
        return LowerBound.from_per_edge(
            {edge: 0.0 for edge in undirected_edges_reference(tree)}, description
        )
    src, dst = decode_edges(np.concatenate(all_edges))
    component_of = reference_components(np.stack([src, dst], axis=1))
    node_components = {}
    for v, fragment in fragments.items():
        if not len(fragment):
            node_components[v] = frozenset()
            continue
        s, d = decode_edges(fragment)
        node_components[v] = frozenset(
            component_of[int(u)] for u in np.unique(np.concatenate([s, d]))
        )
    per_edge = {}
    for edge in undirected_edges_reference(tree):
        a_side, b_side = tree.compute_sides(edge)
        a_comps = frozenset().union(*(node_components[v] for v in a_side))
        b_comps = frozenset().union(*(node_components[v] for v in b_side))
        per_edge[edge] = len(a_comps & b_comps) / (
            2.0 * tree.undirected_bandwidth(edge)
        )
    return LowerBound.from_per_edge(per_edge, description)
