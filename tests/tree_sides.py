"""Link sides and multicast links by their definitions, for tests.

Removing a link ``(a, b)`` splits a tree in two: the nodes reachable from
``a`` without crossing the link (the paper's ``V-e``) and those reachable
from ``b`` (``V+e``).  A multicast's links are the union of the tree
paths from its source to each destination.  These helpers compute both
by a plain walk over ``tree.neighbors`` / ``tree.path_edges``; they never
read ``routing_index``, so the kernels they check share nothing with them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.topology.tree import NodeId, TreeTopology


def _reach(tree: TreeTopology, start: NodeId, barrier: NodeId) -> frozenset:
    """Nodes reachable from ``start`` without stepping onto ``barrier``."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for neighbor in tree.neighbors(node):
            if neighbor != barrier and neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return frozenset(seen)


def edge_sides(tree: TreeTopology, edge: tuple) -> tuple[frozenset, frozenset]:
    """All nodes on each side of a link: ``(side of edge[0], side of edge[1])``."""
    a, b = edge
    tree.bandwidth(a, b)  # raises unless the link exists
    return _reach(tree, a, b), _reach(tree, b, a)


def compute_sides(tree: TreeTopology, edge: tuple) -> tuple[frozenset, frozenset]:
    """The compute nodes on each side of a link."""
    return tuple(side & tree.compute_nodes for side in edge_sides(tree, edge))


def union_of_paths(
    tree: TreeTopology, src: NodeId, dsts: Iterable[NodeId]
) -> set:
    """The directed links a multicast from ``src`` to ``dsts`` crosses:
    its Steiner tree, directed away from the source."""
    return {edge for dst in dsts for edge in tree.path_edges(src, dst)}
