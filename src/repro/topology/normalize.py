"""The two w.l.o.g. normalizations of Section 2.1.

The paper's tree algorithms assume, without loss of generality, that

1. **every compute node is a leaf** — a non-leaf compute node ``v`` is
   replaced by a router, with a fresh compute leaf ``v'`` attached through
   a link that is never the bottleneck; and
2. **no node has degree two** — a degree-2 node ``v`` with incident links
   ``(v, u1)`` and ``(v, u2)`` is spliced out, the two links merging into
   one link ``(u1, u2)`` whose per-direction bandwidth is the minimum of
   the two replaced directions.

:func:`normalize` applies both and returns the transformed topology plus
the compute-node relocation map, so an initial data distribution on the
original tree can be replayed on the normalized one: place each node's
fragments at ``node_map[node]``, e.g.
``Distribution({node_map[v]: {tag: dist.fragment(v, tag) for tag in
dist.tags} for v in dist.node_order})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Literal

from repro.errors import TopologyError
from repro.topology.tree import NodeId, TreeTopology

VirtualBandwidth = Literal["infinite", "sum"]


@dataclass(frozen=True)
class NormalizedTopology:
    """Result of :func:`normalize`.

    Attributes
    ----------
    tree:
        The normalized topology (compute nodes are leaves, no degree-2
        nodes).
    node_map:
        Maps each *original* compute node to the node holding its data in
        the normalized topology (identity for nodes that did not move).
    """

    tree: TreeTopology
    node_map: dict = field(default_factory=dict)

    def relocated(self) -> dict:
        """Only the entries where a compute node actually moved."""
        return {old: new for old, new in self.node_map.items() if old != new}


def _leaf_alias(node: NodeId, existing: frozenset) -> str:
    """A fresh leaf name derived from ``node`` that avoids collisions."""
    base = f"{node}::leaf"
    candidate = base
    suffix = 1
    while candidate in existing:
        suffix += 1
        candidate = f"{base}{suffix}"
    return candidate


def ensure_compute_leaves(
    tree: TreeTopology,
    *,
    virtual_bandwidth: VirtualBandwidth | float = "infinite",
) -> NormalizedTopology:
    """Make every compute node a leaf (first transform of Section 2.1).

    The paper attaches the fresh leaf with bandwidth ``+inf``.  A finite
    alternative, ``virtual_bandwidth="sum"``, uses the total bandwidth of
    the node's other links — still never the bottleneck, but finite, which
    the cartesian-product packing needs to size squares.  A float value
    uses that bandwidth directly.
    """
    edges = tree.directed_edges
    node_map: dict = {v: v for v in tree.compute_nodes}
    computes = set(tree.compute_nodes)
    all_nodes = set(tree.nodes)
    for node in sorted(tree.compute_nodes, key=str):
        if tree.degree(node) <= 1 and len(tree.nodes) > 1:
            continue
        if len(tree.nodes) == 1:
            continue
        if virtual_bandwidth == "infinite":
            bandwidth = math.inf
        elif virtual_bandwidth == "sum":
            bandwidth = sum(
                tree.bandwidth(node, nbr) for nbr in tree.neighbors(node)
            )
        else:
            bandwidth = float(virtual_bandwidth)
            if bandwidth <= 0:
                raise TopologyError("virtual bandwidth must be positive")
        leaf = _leaf_alias(node, frozenset(all_nodes))
        all_nodes.add(leaf)
        edges[(node, leaf)] = bandwidth
        edges[(leaf, node)] = bandwidth
        computes.discard(node)
        computes.add(leaf)
        node_map[node] = leaf
    return NormalizedTopology(
        TreeTopology(edges, computes, name=tree.name), node_map
    )


def suppress_degree_two(tree: TreeTopology) -> TreeTopology:
    """Splice out degree-2 routers (second transform of Section 2.1).

    Only routers are removed; a degree-2 *compute* node must first be
    turned into a leaf with :func:`ensure_compute_leaves`.  Each splice
    replaces links ``(u1, v), (v, u2)`` with ``(u1, u2)`` taking the
    per-direction minimum bandwidth, exactly as in the paper.
    """
    adjacency: dict[NodeId, dict[NodeId, float]] = {}
    for (u, v), w in tree.directed_edges.items():
        adjacency.setdefault(u, {})[v] = w
        adjacency.setdefault(v, {})
    computes = set(tree.compute_nodes)

    def removable() -> NodeId | None:
        for node in sorted(adjacency, key=str):
            if node not in computes and len(adjacency[node]) == 2:
                return node
        return None

    while True:
        node = removable()
        if node is None:
            break
        (u1, u2) = sorted(adjacency[node], key=str)
        forward = min(adjacency[u1][node], adjacency[node][u2])
        backward = min(adjacency[u2][node], adjacency[node][u1])
        del adjacency[u1][node]
        del adjacency[u2][node]
        del adjacency[node]
        adjacency[u1][u2] = forward
        adjacency[u2][u1] = backward

    edges = {
        (u, v): w for u, nbrs in adjacency.items() for v, w in nbrs.items()
    }
    return TreeTopology(edges, computes, name=tree.name)


def normalize(
    tree: TreeTopology,
    *,
    virtual_bandwidth: VirtualBandwidth | float = "infinite",
) -> NormalizedTopology:
    """Apply both Section 2.1 transforms; see the module docstring."""
    leafed = ensure_compute_leaves(tree, virtual_bandwidth=virtual_bandwidth)
    return NormalizedTopology(
        suppress_degree_two(leafed.tree), leafed.node_map
    )
