"""The per-link aggregates by their set-based definitions: the reference model.

These are the per-edge Python loops that production code ran before the
``RoutingIndex`` kernels (``subtree_sums``, ``steiner_counts``) replaced
them: find each link's two sides (``tests/tree_sides.py``, a walk that
never reads the routing index) and ``sum`` / ``np.intersect1d`` them.
They are slow and obviously right, which is what a reference is for.
:func:`reference_model` swaps the sums in under the code that still
reads ``tree.side_weights`` (G-dagger, hence Theorem 4's cover), and
the per-link bounds that production now computes as one
vector over the links are kept below start to finish as they were —
node-keyed size dicts, one ``min`` and one division per edge, the
maximum by a ``max`` over the dict — so every bound can be recomputed
the old way and compared field by field with what the kernels produce.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.common import LowerBound
from repro.graphs.model import DEFAULT_EDGE_TAG, decode_edges
from repro.graphs.reference import reference_components
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.topology.tree import TreeTopology, node_sort_key
from tests.tree_sides import compute_sides


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
        a_side, b_side = compute_sides(tree, edge)
        result[edge] = (
            sum(weights.get(v, 0) for v in a_side),
            sum(weights.get(v, 0) for v in b_side),
        )
    return result


def shared_key_counts_reference(tree: TreeTopology, keys_by_node) -> dict:
    """Distinct keys on both sides per link, one ``intersect1d`` per link."""
    result = {}
    for edge in undirected_edges_reference(tree):
        a_side, b_side = compute_sides(tree, edge)
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
    kernel = TreeTopology.side_weights
    TreeTopology.side_weights = side_weights_reference
    try:
        yield
    finally:
        TreeTopology.side_weights = kernel


def from_per_edge_reference(per_edge: dict, description: str) -> LowerBound:
    """The max-over-links bound from a per-link dict (first maximum wins)."""
    if not per_edge:
        return LowerBound(0.0, None, {}, description)
    bottleneck = max(per_edge, key=lambda e: per_edge[e])
    return LowerBound(
        value=float(per_edge[bottleneck]),
        bottleneck_edge=bottleneck,
        per_edge=dict(per_edge),
        description=description,
    )


# --------------------------------------------------------------------- #
# the four lighter-side (flow) bounds, start to finish, as they were
# --------------------------------------------------------------------- #


def intersection_lower_bound_reference(
    tree, distribution, *, r_tag="R", s_tag="S"
) -> LowerBound:
    tree.require_symmetric("the Theorem 1 lower bound")
    r_total = distribution.total(r_tag)
    s_total = distribution.total(s_tag)
    sizes = {
        v: distribution.size(v, r_tag) + distribution.size(v, s_tag)
        for v in tree.compute_nodes
    }
    per_edge: dict = {}
    for edge, (minus, plus) in side_weights_reference(tree, sizes).items():
        bandwidth = tree.undirected_bandwidth(edge)
        per_edge[edge] = min(r_total, s_total, minus, plus) / bandwidth
    return from_per_edge_reference(per_edge, "Theorem 1 (set intersection)")


def equijoin_lower_bound_reference(
    tree, distribution, *, r_tag="R", s_tag="S"
) -> LowerBound:
    bound = intersection_lower_bound_reference(
        tree, distribution, r_tag=r_tag, s_tag=s_tag
    )
    return LowerBound(
        value=bound.value,
        bottleneck_edge=bound.bottleneck_edge,
        per_edge=bound.per_edge,
        description="Theorem 1 applied to the equi-join",
    )


def sorting_lower_bound_reference(tree, distribution, *, tag="R") -> LowerBound:
    tree.require_symmetric("the Theorem 6 lower bound")
    sizes = {v: distribution.size(v, tag) for v in tree.compute_nodes}
    per_edge: dict = {}
    for edge, (minus, plus) in side_weights_reference(tree, sizes).items():
        bandwidth = tree.undirected_bandwidth(edge)
        per_edge[edge] = min(minus, plus) / bandwidth
    return from_per_edge_reference(per_edge, "Theorem 6 (sorting)")


def cartesian_lower_bound_flow_reference(
    tree, distribution, *, r_tag="R", s_tag="S"
) -> LowerBound:
    tree.require_symmetric("the Theorem 3 lower bound")
    sizes = {
        v: distribution.size(v, r_tag) + distribution.size(v, s_tag)
        for v in tree.compute_nodes
    }
    per_edge: dict = {}
    for edge, (minus, plus) in side_weights_reference(tree, sizes).items():
        bandwidth = tree.undirected_bandwidth(edge)
        per_edge[edge] = min(minus, plus) / bandwidth
    return from_per_edge_reference(per_edge, "Theorem 3 (cartesian, flow)")


def unequal_lower_bound_flow_reference(
    tree, distribution, *, r_tag="R", s_tag="S"
) -> LowerBound:
    tree.require_symmetric("the Theorem 8 lower bound")
    r_size = min(distribution.total(r_tag), distribution.total(s_tag))
    sizes = {
        v: distribution.size(v, r_tag) + distribution.size(v, s_tag)
        for v in tree.compute_nodes
    }
    per_edge: dict = {}
    for edge, (minus, plus) in side_weights_reference(tree, sizes).items():
        bandwidth = tree.undirected_bandwidth(edge)
        per_edge[edge] = min(minus, plus, r_size) / bandwidth
    return from_per_edge_reference(per_edge, "Theorem 8 (unequal, flow)")


# --------------------------------------------------------------------- #
# the three shared-key bounds, start to finish, as they were
# --------------------------------------------------------------------- #


def _shared_key_bound(tree, node_keys, description) -> LowerBound:
    per_edge = {
        edge: shared / (2.0 * tree.undirected_bandwidth(edge))
        for edge, shared in shared_key_counts_reference(tree, node_keys).items()
    }
    return from_per_edge_reference(per_edge, description)


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
        return from_per_edge_reference(
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
        a_side, b_side = compute_sides(tree, edge)
        a_comps = frozenset().union(*(node_components[v] for v in a_side))
        b_comps = frozenset().union(*(node_components[v] for v in b_side))
        per_edge[edge] = len(a_comps & b_comps) / (
            2.0 * tree.undirected_bandwidth(edge)
        )
    return from_per_edge_reference(per_edge, description)
