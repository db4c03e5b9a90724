"""Paths and link sides, walked from ``tree.parent``.

A transfer from ``u`` to ``v`` climbs from ``u`` to the lowest common
ancestor and descends to ``v``; a multicast crosses the union of its
paths.  Removing a link splits the tree into the nodes below it and the
rest (the paper's ``V-e`` and ``V+e``).  Nothing here reads a routing
index.
"""

from __future__ import annotations

from functools import lru_cache

from repro.topology.tree import node_sort_key


@lru_cache(maxsize=1 << 16)  # trees are immutable
def ancestors(tree, node) -> tuple:
    """``node``, its parent, ..., the root of the canonical rooting."""
    chain = [node]
    while (up := tree.parent(chain[-1])) is not None:
        chain.append(up)
    return tuple(chain)


def path_nodes(tree, u, v) -> list:
    """The unique path from ``u`` to ``v``, both ends included."""
    up_u, up_v = ancestors(tree, u), ancestors(tree, v)
    shared = set(up_v)
    meet = next(node for node in up_u if node in shared)
    return [*up_u[: up_u.index(meet) + 1], *reversed(up_v[: up_v.index(meet)])]


def path_edges(tree, u, v) -> list:
    """The directed links a transfer from ``u`` to ``v`` crosses."""
    nodes = path_nodes(tree, u, v)
    return list(zip(nodes, nodes[1:]))


def steiner_links(tree, src, dsts) -> set:
    """The directed links a multicast from ``src`` to ``dsts`` crosses:
    the union of its paths, directed away from the source."""
    return {link for dst in dsts for link in path_edges(tree, src, dst)}


def links(tree) -> list:
    """Every link once, as ``(child, parent)``, children in node order."""
    return [
        (node, tree.parent(node))
        for node in sorted(tree.nodes, key=node_sort_key)
        if tree.parent(node) is not None
    ]


def node_sides(tree, link) -> tuple[set, set]:
    """All nodes on each side of ``link = (a, b)``: ``(a's, b's)``."""
    a, b = link
    tree.bandwidth(a, b)  # raises unless the link exists
    child = a if tree.parent(a) == b else b
    below = {node for node in tree.nodes if child in ancestors(tree, node)}
    rest = set(tree.nodes) - below
    return (below, rest) if child == a else (rest, below)


def sides(tree, link) -> tuple[set, set]:
    """The compute nodes on each side of ``link``."""
    computes = set(tree.compute_nodes)
    return tuple(side & computes for side in node_sides(tree, link))
